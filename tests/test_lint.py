"""The no-fallback check of ``tools/lint.py`` (check 4).

``src/repro`` may hold no guard against a missing numpy, and where
``Search`` reads (``core/`` and ``graph/neighborhood.py``) no branch for a
graph that is no ``CSRGraph``: no ``csr is (not) None`` test and no
``hasattr(…, "neighbor_indices" | "label_presence")`` probe.  Each case
writes one line into a scratch source tree and asks which lines the check
names.
"""

from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

LINT_PATH = Path(__file__).resolve().parent.parent / "tools" / "lint.py"


@pytest.fixture(scope="module")
def lint():
    spec = spec_from_file_location("repro_tools_lint", LINT_PATH)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def offending(lint, monkeypatch, tmp_path, relative: str, line: str) -> list:
    """What ``fallback_lines`` names in a tree holding ``line`` at ``relative``."""
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    root = tmp_path / "src" / "repro"
    path = root / relative
    path.parent.mkdir(parents=True)
    path.write_text(f"def f(graph, csr, np):\n    {line}\n        return None\n")
    return lint.fallback_lines(root)


@pytest.mark.parametrize(
    "relative, line",
    [
        ("core/weights.py", "if csr is None:"),
        ("core/rbsim.py", "if self._csr is not None:"),
        ("graph/neighborhood.py", 'if hasattr(graph, "label_presence"):'),
        ("core/reduction.py", "if hasattr(graph, 'neighbor_indices'):"),
        ("engine/prepared.py", "if np is None:"),
    ],
)
def test_a_second_substrate_or_a_numpy_fallback_is_named(lint, monkeypatch, tmp_path, relative, line):
    assert offending(lint, monkeypatch, tmp_path, relative, line) == [
        f"src/repro/{relative}:2: {line}"
    ]


@pytest.mark.parametrize(
    "relative, line",
    [
        ("graph/csr.py", "if csr is None:"),
        ("engine/prepared.py", 'if hasattr(graph, "label_presence"):'),
        ("core/weights.py", "if graph is None:"),
    ],
)
def test_a_branch_outside_the_search_substrate_is_not_named(lint, monkeypatch, tmp_path, relative, line):
    assert offending(lint, monkeypatch, tmp_path, relative, line) == []


def test_the_source_tree_passes_the_check(lint):
    assert lint.fallback_lines() == []
