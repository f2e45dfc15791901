"""Personalized social search on a scale-free social network surrogate.

This example mirrors the paper's motivating workload: personalized pattern
queries (Facebook-Graph-Search style) answered within a small resource
budget.  It generates a Youtube-like surrogate graph, embeds a workload of
``(|Vp|, |Ep|) = (4, 8)`` queries, and compares the resource-bounded
algorithms (RBSim, RBSub) against the exact baselines (MatchOpt, VF2OPT)
on running time, accuracy and the amount of data they touch.

Run with:  python examples/personalized_social_search.py [num_nodes]
"""

from __future__ import annotations

import sys
import time

from repro import RBSim, RBSub, generate_pattern_workload, pattern_accuracy, youtube_like
from repro.core.accuracy import mean_accuracy
from repro.graph.csr import freeze
from repro.graph.neighborhood import NeighborhoodIndex
from repro.matching.strong_simulation import match_opt
from repro.matching.vf2 import vf2_opt

ALPHA = 0.002
SHAPE = (4, 8)
NUM_QUERIES = 5


def main() -> None:
    num_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 8000
    graph = youtube_like(num_nodes=num_nodes)
    print(f"surrogate social graph: |V| = {graph.num_nodes()}, |E| = {graph.num_edges()}, "
          f"|G| = {graph.size()}, max degree = {graph.max_degree()}")
    print(f"resource ratio alpha = {ALPHA} -> budget of {int(ALPHA * graph.size())} nodes+edges per query\n")

    workload = generate_pattern_workload(graph, shape=SHAPE, count=NUM_QUERIES, seed=42)
    # Freeze once: a shared index must index the CSRGraph the matchers search.
    frozen = freeze(graph)
    shared_index = NeighborhoodIndex(frozen)
    rbsim = RBSim(frozen, ALPHA, neighborhood_index=shared_index)
    rbsub = RBSub(frozen, ALPHA, neighborhood_index=shared_index)

    timings = {"RBSim": 0.0, "MatchOpt": 0.0, "RBSub": 0.0, "VF2OPT": 0.0}
    sim_accuracy, sub_accuracy = [], []
    print(f"{'query':>5}  {'ball |G_dQ(vp)|':>16}  {'|G_Q|':>6}  {'exact':>5}  {'RBSim':>5}  {'RBSub':>5}")
    for number, query in enumerate(workload):
        started = time.perf_counter()
        exact_sim = match_opt(query.pattern, graph, query.personalized_match)
        timings["MatchOpt"] += time.perf_counter() - started

        started = time.perf_counter()
        approx_sim = rbsim.answer(query.pattern, query.personalized_match)
        timings["RBSim"] += time.perf_counter() - started

        started = time.perf_counter()
        exact_sub = vf2_opt(query.pattern, graph, query.personalized_match)
        timings["VF2OPT"] += time.perf_counter() - started

        started = time.perf_counter()
        approx_sub = rbsub.answer(query.pattern, query.personalized_match)
        timings["RBSub"] += time.perf_counter() - started

        sim_accuracy.append(pattern_accuracy(exact_sim.answer, approx_sim.answer))
        sub_accuracy.append(pattern_accuracy(exact_sub.answer, approx_sub.answer))
        print(f"{number:>5}  {exact_sim.ball_size:>16}  {approx_sim.subgraph_size:>6}  "
              f"{len(exact_sim.answer):>5}  {len(approx_sim.answer):>5}  {len(approx_sub.answer):>5}")

    per_query = {name: total / NUM_QUERIES * 1000 for name, total in timings.items()}
    print("\nmean time per query (ms):")
    for name, value in per_query.items():
        print(f"  {name:8s} {value:8.2f}")
    print(f"\nRBSim speedup over MatchOpt : {per_query['MatchOpt'] / per_query['RBSim']:.2f}x")
    print(f"RBSub speedup over VF2OPT   : {per_query['VF2OPT'] / per_query['RBSub']:.2f}x")
    print(f"RBSim mean accuracy (F1)    : {mean_accuracy(sim_accuracy).f_measure:.3f}")
    print(f"RBSub mean accuracy (F1)    : {mean_accuracy(sub_accuracy).f_measure:.3f}")


if __name__ == "__main__":
    main()
