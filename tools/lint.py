#!/usr/bin/env python
"""Lint/typecheck driver for ``make lint`` — locally and in CI.

Runs, in order:

1. ``python -m compileall`` over the whole tree — the floor that always
   runs, even on machines without the dev tools installed;
2. ``ruff check`` with the configuration in ``pyproject.toml``;
3. ``mypy`` over the packages scoped in ``pyproject.toml``;
4. the no-fallback check: numpy is a hard dependency, so ``src/repro``
   may hold no ``except ImportError`` and no ``np is None`` /
   ``CSRGraph is None`` branch; ``Search`` reads one substrate, the
   ``CSRGraph`` the matchers and the ``Sl`` index freeze on entry, so no
   file under ``src/repro/core/`` and no ``graph/neighborhood.py`` may hold
   a ``csr``/``_csr is (not) None`` branch or a ``hasattr(…, "neighbor_indices")`` /
   ``hasattr(…, "label_presence")`` probe (a second, node-by-node arm
   beside the row-space one); and numpy is the *only* dependency, so
   ``src/repro`` may import nothing outside the standard library, numpy
   and itself, not even inside a function (offending lines are printed).
   The measured reason: importing ``scipy.sparse.csgraph`` for its SCC
   routine adds 27.7 MB of RSS (35.7 → 63.4 MB), against a 5% bound on
   the benchmark's ``peak_rss_mb``;
5. the hash-unique check: a plain ``np.unique(x)`` (no ``return_index``,
   ``return_inverse`` or ``return_counts``) under ``src/repro`` fails.
   numpy ≥ 2.3 answers it with a hash table and then sorts the result;
   ``repro.graph.csr._unique`` sorts once and compares neighbours, 14×
   faster on the condensation's 33 129 int64 edge codes (5.5 → 0.4 ms on
   a 2-core Xeon host);
6. the cli-only check: under ``src/repro`` only ``cli.py`` may ``import
   argparse`` or ``raise SystemExit``.  Flag parsing, exit codes and
   printed reports belong to the command line; the library raises its own
   exceptions, so a caller embedding it is never exited from under it;
7. the one-forker check: under ``src/repro`` only ``engine/daemons.py``
   may start a process (a ``Process(...)``, ``get_context(...)`` or
   ``os.fork()`` call), and no file there may name the retired
   ``REPRO_MP_START_METHOD`` override.  A daemon worker is forked from the
   very state it serves; a second place that starts processes, or a start
   method chosen from the environment, would let a worker run on state it
   was never forked from.

ruff and mypy are exercised when importable and *skipped with a notice*
otherwise: the target container bakes in only the core Python toolchain and
must not pip-install ad hoc, while CI installs the ``dev`` extra and runs
all three.  Exit code is non-zero if any executed stage fails — a skipped
tool is not a failure, a failing one always is.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGETS = ["src", "tools", "tests", "benchmarks", "examples"]
RUNTIME_IMPORTS = {"numpy", "repro"}
FALLBACK = re.compile(r"except\s+\(?\s*ImportError|\b(?:np|numpy|_?CSRGraph)\s+is\s+(?:not\s+)?None\b")
#: A second substrate where ``Search`` reads: a branch for a graph that is no ``CSRGraph``.
SECOND_SUBSTRATE = re.compile(
    r"\b_?csr\s+is\s+(?:not\s+)?None\b|hasattr\([^)]*[\"'](?:neighbor_indices|label_presence)[\"']"
)


def _run(label: str, command: list) -> bool:
    print(f"[lint] {label}: {' '.join(command)}", flush=True)
    result = subprocess.run(command, cwd=ROOT)
    if result.returncode != 0:
        print(f"[lint] {label} FAILED (exit {result.returncode})")
        return False
    return True


def _reads_one_substrate(path: Path, root: Path) -> bool:
    """Whether ``path`` is where ``Search`` reads: ``core/`` or ``graph/neighborhood.py``."""
    relative = path.relative_to(root)
    return relative.parts[0] == "core" or relative == Path("graph", "neighborhood.py")


def fallback_lines(root: Path = ROOT / "src" / "repro") -> list:
    """``path:line: text`` of every no-numpy fallback left under ``root``, and
    of every second-substrate branch where ``Search`` reads."""
    return [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if FALLBACK.search(line) or (SECOND_SUBSTRATE.search(line) and _reads_one_substrate(path, root))
    ]


def _nodes(root: Path):
    """``(path, node)`` for every AST node of every module under ``root``."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def foreign_imports(root: Path = ROOT / "src" / "repro") -> list:
    """``path:line: import name`` of every import under ``root`` outside stdlib, numpy and ``repro``."""
    found = []
    for path, node in _nodes(root):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top not in RUNTIME_IMPORTS:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: import {name}")
    return found


SORTING_KEYWORDS = {"return_index", "return_inverse", "return_counts"}


def hash_unique_calls(root: Path = ROOT / "src" / "repro") -> list:
    """``path:line: np.unique(...)`` of every plain ``np.unique``/``numpy.unique`` call under ``root``."""
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.func.value.id}.unique(...)"
        for path, node in _nodes(root)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and not SORTING_KEYWORDS & {keyword.arg for keyword in node.keywords}
    ]


def cli_only_lines(root: Path = ROOT / "src" / "repro") -> list:
    """``path:line: what`` of every ``argparse`` import or ``raise SystemExit`` under ``root`` outside ``cli.py``."""
    found = []
    for path, node in _nodes(root):
        if path == root / "cli.py":
            continue
        if isinstance(node, ast.Import) and any(alias.name == "argparse" for alias in node.names):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}: import argparse")
        elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}: from argparse import ...")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "SystemExit":
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: raise SystemExit")
    return found


FORKERS = {"Process", "get_context", "fork"}
RETIRED_ENV = "REPRO_MP_START_METHOD"


def one_forker_lines(root: Path = ROOT / "src" / "repro") -> list:
    """``path:line: what`` of every process start under ``root`` outside ``engine/daemons.py``,
    and of every mention of the retired start-method override."""
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {name}(...)"
        for path, node in _nodes(root)
        if path != root / "engine" / "daemons.py"
        and isinstance(node, ast.Call)
        and (name := getattr(node.func, "attr", getattr(node.func, "id", None))) in FORKERS
    ]
    found += [
        f"{path.relative_to(ROOT)}:{number}: {RETIRED_ENV}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if RETIRED_ENV in line
    ]
    return found


def main() -> int:
    ok = True

    ok &= _run(
        "compileall",
        [sys.executable, "-m", "compileall", "-q", *TARGETS],
    )

    if find_spec("ruff") is not None:
        ok &= _run("ruff", [sys.executable, "-m", "ruff", "check", *TARGETS])
    else:
        print("[lint] ruff not installed — skipped (CI installs it via the 'dev' extra)")

    if find_spec("mypy") is not None:
        # Scope comes from [tool.mypy] in pyproject.toml.
        ok &= _run("mypy", [sys.executable, "-m", "mypy"])
    else:
        print("[lint] mypy not installed — skipped (CI installs it via the 'dev' extra)")

    for label, rule, offending in (
        (
            "no-fallback",
            "src/repro must not guard against a missing numpy, and core/ and graph/neighborhood.py "
            "read a CSRGraph only (no csr-is-None branch, no neighbor_indices/label_presence probe)",
            fallback_lines(),
        ),
        (
            "imports",
            "src/repro imports only the standard library and numpy (scipy alone adds 27.7 MB RSS at import)",
            foreign_imports(),
        ),
        (
            "hash-unique",
            "src/repro dedups int arrays with repro.graph.csr._unique, not a plain np.unique "
            "(its hash table is 14x slower on 33 129 int64 edge codes: 5.5 vs 0.4 ms, 2-core Xeon)",
            hash_unique_calls(),
        ),
        (
            "cli-only",
            "under src/repro only cli.py imports argparse or raises SystemExit",
            cli_only_lines(),
        ),
        (
            "one-forker",
            "under src/repro only engine/daemons.py starts a process, and nothing reads "
            "REPRO_MP_START_METHOD (a worker is forked from the state it serves)",
            one_forker_lines(),
        ),
    ):
        print(f"[lint] {label}: {rule}", flush=True)
        for line in offending:
            print(f"[lint]   {line}")
        if offending:
            print(f"[lint] {label} FAILED ({len(offending)} line(s))")
            ok = False

    print("[lint] OK" if ok else "[lint] failures above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
