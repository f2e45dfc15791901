"""``RBReach`` held field by field to the frozen oracle of ``tests/rbreach_oracle.py``.

The row-backed answer loop must return the oracle's ``reachable``,
``visited``, ``met_at`` and ``exhausted`` on every query: on the
end-to-end benchmark's reachability pools (``youtube`` at α 0.02, the
80-community graph at α 0.01), on the index after every delta of two
confined churn rounds (each round patches the index and ends in a node
removal that rebuilds it), and on a matcher that went through a pickle.
A changed ``visited`` charge, a dropped candidate or a moved rank window
shows up there as a differing fingerprint.  A wrong weight or tie-break
does not change an answer on these pools, so the candidate entries
themselves are compared with the oracle's, weight by weight.
"""

import pickle
import random
import sys
from pathlib import Path

import pytest

_E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
if str(_E2E) not in sys.path:
    sys.path.insert(0, str(_E2E))

from rbreach_oracle import OracleRBReach, fingerprint  # noqa: E402
from workloads import FULL, build_graph, confined_delta_rounds, confined_nodes, reach_pool  # noqa: E402

from repro.engine.prepared import PreparedGraph  # noqa: E402
from repro.reachability.rbreach import _candidates  # noqa: E402

POOL_SEED = 11
POOL_SIZE = 4096
#: graph kind -> alpha, as the end-to-end workloads serve them
GRAPHS = {"youtube": 0.02, "community": 0.01}


def pairs_of(requests):
    return [(request.source, request.target) for request in requests]


def assert_matches_oracle(matcher, pairs):
    oracle = OracleRBReach(matcher.index)
    found = [fingerprint(answer) for answer in matcher.query_batch(pairs)]
    expected = [fingerprint(answer) for answer in oracle.query_batch(pairs)]
    mismatched = [pair for pair, left, right in zip(pairs, found, expected) if left != right]
    assert not mismatched, f"{len(mismatched)} answers differ, first {mismatched[:3]}"
    return found


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def served(request):
    graph = build_graph(request.param, FULL)
    alpha = GRAPHS[request.param]
    return graph, alpha, PreparedGraph(graph).rbreach(alpha), pairs_of(reach_pool(graph, POOL_SIZE, POOL_SEED))


class TestOracleParity:
    def test_pool_matches_oracle(self, served):
        _, _, matcher, pairs = served
        found = assert_matches_oracle(matcher, pairs)
        # The pool exercises every exit: rank test, seed meeting, frontier search.
        assert {visited for _, visited, _, _ in found} - {0, 1}
        assert any(met_at is not None for _, _, met_at, _ in found)

    def test_unpickled_matcher_matches_oracle_and_original(self, served):
        _, _, matcher, pairs = served
        clone = pickle.loads(pickle.dumps(matcher))
        found = assert_matches_oracle(clone, pairs)
        assert found == [fingerprint(answer) for answer in matcher.query_batch(pairs)]

    def test_every_delta_of_two_churn_rounds(self):
        graph = build_graph("community", FULL)
        alpha = GRAPHS["community"]
        pairs = pairs_of(reach_pool(graph, 1024, POOL_SEED))
        rounds = confined_delta_rounds(
            graph,
            confined_nodes(FULL),
            protected=set(),
            rounds=2,
            round_deltas=FULL.churn_round_deltas,
            delta_ops=FULL.churn_delta_ops,
            seed=POOL_SEED,
        )
        prepared = PreparedGraph(graph)
        assert_matches_oracle(prepared.rbreach(alpha), pairs)
        modes = []
        for delta in (delta for deltas in rounds for delta in deltas):
            modes.append(prepared.apply_delta(delta).mode)
            assert_matches_oracle(prepared.rbreach(alpha), pairs)
        assert {"patched", "rebuilt"} <= set(modes)


    def test_candidates_match_oracle_expansions(self, served):
        """Entry by entry, in order, on active sets where ``c(v)`` varies.

        On the pools every frontier grows from about one seed, so all its
        candidates share ``c(v) = 1`` and the answers cannot tell a wrong
        weight from a right one; here the active set is a landmark plus part
        of its two-hop index neighbourhood, under random rank windows.
        """
        _, _, matcher, _ = served
        rows, forward, backward = matcher._landmark_rows()
        oracle = OracleRBReach(matcher.index)
        rng = random.Random(POOL_SEED)
        ranks = sorted({row.rank for row in rows.values()})
        shared = 0
        for landmark in sorted(rows, key=repr):
            around = sorted({far for near in rows[landmark].neighbors for far in rows[near].neighbors}, key=repr)
            active = {landmark, *rng.sample(around, len(around) // 2)}
            low, high = sorted(rng.choices(ranks, k=2)) if rng.random() < 0.5 else (ranks[0], ranks[-1])
            for is_forward, adjacency in ((True, forward), (False, backward)):
                found = list(_candidates(rows, adjacency.get(landmark, ()), active, low, high))
                expected = [
                    (-weight, repr(neighbor), neighbor)
                    for neighbor, weight in oracle._expansions(landmark, active, high, low, is_forward)
                ]
                assert found == expected
                shared += sum(len(rows[neighbor].neighbors & active) > 1 for _, _, neighbor in found)
        assert shared


class TestRows:
    def test_rows_built_once_per_matcher(self, served):
        graph, alpha, _, pairs = served
        fresh = PreparedGraph(graph).rbreach(alpha)
        assert fresh._rows is None
        fresh.query_batch(pairs[:512])
        rows = fresh._rows
        assert rows is not None
        fresh.query_batch(pairs[512:1024])
        assert fresh._rows is rows

    def test_pickled_matcher_carries_no_rows(self, served):
        _, _, matcher, pairs = served
        matcher.query_batch(pairs[:64])
        assert matcher._rows is not None
        payload = pickle.dumps(matcher)
        assert b"_Row" not in payload
        assert pickle.loads(payload)._rows is None
