"""Pin the public import surface: every ``__all__`` name must import.

Walks every package under ``repro`` and asserts:

* each package ``__init__`` declares an explicit ``__all__``;
* every listed name resolves (deprecated shims included — they must warn,
  not break);
* no duplicates, and nothing in ``__all__`` that ``dir()`` cannot see
  (modulo lazy ``__getattr__`` shims);
* the curated ``repro.service`` surface is re-exported at the top level.

This is the regression net for the export audit: adding a name to a
façade without exporting it (or exporting a name that does not exist)
fails here rather than in a downstream import.
"""

from __future__ import annotations

import importlib
import pkgutil
import warnings

import pytest

import repro

EXPECTED_PACKAGES = {
    "repro",
    "repro.core",
    "repro.engine",
    "repro.experiments",
    "repro.graph",
    "repro.matching",
    "repro.patterns",
    "repro.reachability",
    "repro.service",
    "repro.shard",
    "repro.subscribe",
    "repro.updates",
    "repro.workloads",
}

#: Public plain modules (not packages) whose surface is pinned too.
EXPECTED_MODULES = {"repro.exceptions"}


def _all_packages():
    names = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.add(info.name)
    return sorted(names)


@pytest.fixture(scope="module")
def packages():
    return _all_packages()


class TestExportSurface:
    def test_every_expected_package_exists(self, packages):
        assert EXPECTED_PACKAGES <= set(packages), (
            "a package disappeared; update EXPECTED_PACKAGES if intentional"
        )

    @pytest.mark.parametrize("module_name", sorted(EXPECTED_PACKAGES | EXPECTED_MODULES))
    def test_declares_explicit_all(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} has no explicit __all__"
        exported = module.__all__
        assert isinstance(exported, (list, tuple))
        assert all(isinstance(name, str) for name in exported)
        assert len(exported) == len(set(exported)), f"{module_name}.__all__ has duplicates"

    @pytest.mark.parametrize("module_name", sorted(EXPECTED_PACKAGES | EXPECTED_MODULES))
    def test_every_name_in_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        with warnings.catch_warnings():
            # Deprecated shims are allowed to warn here; breaking is not.
            warnings.simplefilter("ignore", DeprecationWarning)
            missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module_name}.__all__ lists unresolvable names: {missing}"

    def test_undiscovered_packages_also_have_all(self, packages):
        # Future packages outside EXPECTED_PACKAGES must still declare __all__.
        for module_name in packages:
            module = importlib.import_module(module_name)
            assert hasattr(module, "__all__"), f"{module_name} has no explicit __all__"

    def test_service_surface_reexported_at_top_level(self):
        for name in (
            "GraphService",
            "ServiceConfig",
            "ReachRequest",
            "PatternRequest",
            "ServiceAnswer",
            "ServiceStats",
        ):
            assert name in repro.__all__, f"repro.__all__ is missing {name}"
            assert getattr(repro, name) is getattr(
                importlib.import_module("repro.service"), name
            )

    def test_removed_serving_shims_are_gone(self):
        # The PR 5 lazy deprecation shims had a one-release window; it has
        # passed.  The names must be absent from the top level for good —
        # the low-level API lives in repro.shard.
        for name in ("ShardedEngine", "Partition", "partition_graph"):
            assert name not in repro.__all__
            with pytest.raises(AttributeError):
                getattr(repro, name)
            assert hasattr(importlib.import_module("repro.shard"), name)

    def test_shard_update_router_is_gone(self):
        # One mutable graph per service: shards re-prepare through reset.
        shard = importlib.import_module("repro.shard")
        service = importlib.import_module("repro.service")
        assert "ShardUpdateReport" not in shard.__all__
        assert not {"UpdatePlan", "PATCH", "REBUILD"} & set(service.__all__)
        assert hasattr(shard.ShardedEngine, "reset")
        assert not hasattr(shard.ShardedEngine, "update")

    def test_kernel_dispatch_surface_exported(self):
        graph_pkg = importlib.import_module("repro.graph")
        for name in ("ReachBatch", "reach_batch"):
            assert name in graph_pkg.__all__, f"repro.graph.__all__ is missing {name}"

    def test_star_import_of_service_is_clean(self):
        namespace: dict = {}
        exec("from repro.service import *", namespace)  # noqa: S102 - deliberate
        module = importlib.import_module("repro.service")
        for name in module.__all__:
            assert name in namespace
