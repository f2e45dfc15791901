"""Paired, in-process A/B timing of cold pattern answers against another tree.

Imports another tree's ``src/repro`` under the package name ``repro_base``
(every ``import repro`` / ``from repro`` line of its sources is rewritten as
it loads), builds both of ``bench_search.py``'s pattern logs in each
package, and times rounds of cold full answers (``RBSim.answer`` on the
even positions, ``RBSub.answer`` on the odd ones, one matcher per log and
semantics, the ``Sl`` index shared, fresh pattern copies each round).  In a
round every query is answered by both trees back to back, which one goes
first alternating query by query; a round's ratio is this tree's seconds
over the base's.  One process and pairs this close are what resolves a few
percent on a host whose speed drifts 1.5-1.8x over minutes; two separate
runs do not.

Before timing, every answer's fingerprint (``G_Q`` node and edge lists,
the answer, ``ReductionResult.spend()``) is compared across the trees; any
difference exits non-zero.  Per log it prints the median of the per-round
ratios (this tree / base), their quartiles, and in how many rounds this
tree was faster.

Run with:  make ab-answers PARENT=<tree>
       or: PYTHONPATH=src python3 benchmarks/ab_answers.py <tree> [--rounds 30] [--log youtube]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.abc
import importlib.util
import re
import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

import repro  # noqa: E402

BASE = "repro_base"
DATASET_SEED = 7
SHAPE = (4, 8)
#: name -> (content builder over a package's modules, alpha, queries): ``bench_search.py``'s logs.
LOGS = {
    "youtube": (lambda module: module("workloads.datasets").load_dataset("youtube", seed=DATASET_SEED), 0.02, 128),
    "community": (
        lambda module: module("graph.generators").community_graph(
            [120] + [60] * 79, intra_probability=0.1, inter_edges=0, seed=DATASET_SEED
        ),
        0.01,
        64,
    ),
}
_IMPORT = re.compile(r"^(\s*)(from|import)\s+repro\b", re.MULTILINE)


class _RenamedTree(importlib.abc.MetaPathFinder, importlib.abc.SourceLoader):
    """Finds ``repro_base`` and its submodules under another tree's
    ``src/repro`` and loads their source with the package renamed."""

    def __init__(self, root: Path) -> None:
        self._root = root

    def _path(self, fullname: str):
        parts = fullname.split(".")
        if parts[0] != BASE:
            return None, False
        base = self._root.joinpath(*parts[1:])
        if (base / "__init__.py").is_file():
            return base / "__init__.py", True
        module = base.with_suffix(".py")
        return (module, False) if module.is_file() else (None, False)

    def find_spec(self, fullname, path=None, target=None):
        file, package = self._path(fullname)
        if file is None:
            return None
        return importlib.util.spec_from_file_location(
            fullname, file, loader=self, submodule_search_locations=[str(file.parent)] if package else None
        )

    def get_filename(self, fullname: str) -> str:
        return str(self._path(fullname)[0])

    def get_data(self, path: str) -> bytes:
        source = Path(path).read_text(encoding="utf-8")
        return _IMPORT.sub(lambda match: f"{match[1]}{match[2]} {BASE}", source).encode("utf-8")

    def path_stats(self, path):  # no bytecode cache for a rewritten source
        raise OSError(path)


def load_base(tree: Path):
    """The package at ``tree/src/repro``, imported as ``repro_base``."""
    root = tree.resolve() / "src" / "repro"
    if not (root / "__init__.py").is_file():
        raise SystemExit(f"{tree}: no src/repro package")
    sys.meta_path.insert(0, _RenamedTree(root))
    return importlib.import_module(BASE)


class ColdAnswers:
    """One log in one package: its graph, index, matchers and queries."""

    def __init__(self, package, name: str) -> None:
        def module(name: str):
            return importlib.import_module(f"{package.__name__}.{name}")

        build, alpha, count = LOGS[name]
        content = build(module)
        graph = module("graph.csr").CSRGraph.from_digraph(content)
        index = module("graph.neighborhood").NeighborhoodIndex(graph)
        rbsim = module("core.rbsim")
        config = rbsim.RBSimConfig(visit_coefficient=float(max(1, graph.max_degree())))
        matchers = [
            matcher(graph, alpha, config=config, neighborhood_index=index)
            for matcher in (rbsim.RBSim, module("core.rbsub").RBSub)
        ]
        workload = module("workloads.queries").generate_pattern_workload(
            content, shape=SHAPE, count=count, seed=DATASET_SEED
        )
        # Even positions are simulation queries, odd ones subgraph queries.
        self.calls = [
            (matchers[position % 2].answer, query.pattern, query.personalized_match)
            for position, query in enumerate(workload.queries)
        ]

    def fingerprints(self):
        """What every answer says, as one hash per query."""
        found = []
        for answer, pattern, vp in self.calls:
            result = answer(pattern, vp)
            subgraph = result.subgraph
            said = (
                list(subgraph.nodes()),
                list(subgraph.edges()),
                sorted(result.answer, key=repr),
                result.reduction.spend() if result.reduction is not None else None,
            )
            found.append(hashlib.sha256(repr(said).encode()).hexdigest()[:16])
        return found

    def fresh_calls(self):
        """The log's calls on fresh copies of its patterns, so nothing a
        pattern derives on first use is carried from one round to the next."""
        return [
            (answer, type(pattern)(pattern.labels, pattern.edges, pattern.personalized, pattern.output), vp)
            for answer, pattern, vp in self.calls
        ]


def paired_round(sides, flip: bool):
    """One round: every query answered cold by both sides, back to back, the
    side going first alternating by query (and flipped by ``flip``), so the
    host's drift lands on both; returns each side's seconds."""
    calls = {side: answers.fresh_calls() for side, answers in sides.items()}
    seconds = dict.fromkeys(sides, 0.0)
    clock = time.perf_counter
    gc.collect()
    for position, pair in enumerate(zip(calls["base"], calls["this"])):
        order = pair if (position % 2 == 0) != flip else pair[::-1]
        for side, (answer, pattern, vp) in zip(("base", "this") if order is pair else ("this", "base"), order):
            started = clock()
            answer(pattern, vp)
            seconds[side] += clock() - started
    return seconds


def compare(name: str, base, rounds: int) -> bool:
    """Check and time one log; return whether every fingerprint agreed."""
    sides = {"base": ColdAnswers(base, name), "this": ColdAnswers(repro, name)}
    prints = {side: answers.fingerprints() for side, answers in sides.items()}
    differing = [position for position, (a, b) in enumerate(zip(prints["base"], prints["this"])) if a != b]
    if differing or len(prints["base"]) != len(prints["this"]):
        print(f"{name}: fingerprints differ at positions {differing}", file=sys.stderr)
        return False
    timed = [paired_round(sides, flip=bool(round_ % 2)) for round_ in range(rounds)]
    ratios = [seconds["this"] / seconds["base"] for seconds in timed]
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    queries = len(sides["this"].calls)

    def per_query(side: str) -> float:
        return 1e3 * statistics.median(seconds[side] for seconds in timed) / queries

    print(
        f"{name}: {queries} queries, {rounds} paired rounds; cold answer ms/query "
        f"base {per_query('base'):.3f}, this {per_query('this'):.3f}; "
        f"paired ratio median {statistics.median(ratios):.4f} "
        f"(quartiles {quartiles[0]:.4f}-{quartiles[2]:.4f}), "
        f"faster in {sum(ratio < 1 for ratio in ratios)}/{rounds}; fingerprints equal"
    )
    return True


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="the other tree's root (it holds src/repro)")
    parser.add_argument("--rounds", type=int, default=30, help="paired rounds per log")
    parser.add_argument("--log", choices=sorted(LOGS), action="append", help="default: every log")
    arguments = parser.parse_args()
    base = load_base(arguments.tree)
    agreed = [compare(name, base, arguments.rounds) for name in arguments.log or sorted(LOGS)]
    if not all(agreed):
        raise SystemExit("a fingerprint differs")


if __name__ == "__main__":
    main()
