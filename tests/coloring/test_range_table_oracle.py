"""The per-element range table against the per-element loops it replaced.

``CombinedSynopsis.range_table`` computes every feasible interval ``R_i``
at once, and the colouring graph, the dataset fill, the interval
posterior and the propagation checks derive their per-element quantities
from it with whole-array operations.  The loops below are the code those
paths ran before, one ``range_of``/``bound`` call per element; they are
kept here as the oracle.  Every comparison is bitwise: the table must
equal ``range_of`` field for field, and each array path must produce the
same doubles as its loop, so no released decision can move.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.graph import ColoringGraph
from repro.coloring.sampler import PosteriorSampler, dataset_from_coloring
from repro.exceptions import InconsistentAnswersError
from repro.rng import as_generator, scale_uniform, uniform_block
from repro.synopsis.combined import CombinedSynopsis
from repro.synopsis.extreme_synopsis import MaxSynopsis, MinSynopsis
from repro.types import AggregateKind

MAX = AggregateKind.MAX
MIN = AggregateKind.MIN


# ----------------------------------------------------------------------
# The per-element loops (reference oracle)
# ----------------------------------------------------------------------

def loop_dataset_from_coloring(graph, coloring, rng):
    gen = as_generator(rng)
    synopsis = graph.synopsis
    values = [None] * synopsis.n
    for node in graph.nodes:
        values[coloring[node.node_id]] = node.value
    free, lows, highs = [], [], []
    for i in range(synopsis.n):
        if values[i] is not None:
            continue
        rng_i = synopsis.range_of(i)
        if rng_i.is_point:
            values[i] = rng_i.lo
        else:
            free.append(i)
            lows.append(rng_i.lo)
            highs.append(rng_i.hi)
    if free:
        fills = scale_uniform(uniform_block(gen, len(free)),
                              np.asarray(lows), np.asarray(highs))
        for i, fill in zip(free, fills):
            values[i] = float(fill)
    return [float(v) for v in values]


def _loop_bucket(edges, value):
    idx = int(np.searchsorted(edges, value, side="left")) - 1
    return min(max(idx, 0), len(edges) - 2)


def loop_interval_probabilities(sampler, count, edges):
    synopsis = sampler.graph.synopsis
    n = synopsis.n
    gamma = len(edges) - 1
    witness = sampler.estimate_witness_probabilities(count) if count else {}
    probs = np.zeros((n, gamma), dtype=float)
    point_mass = np.zeros(n)
    for node in sampler.graph.nodes:
        bucket_idx = _loop_bucket(edges, node.value)
        for element, pi in witness.get(node.node_id, {}).items():
            probs[element, bucket_idx] += pi
            point_mass[element] += pi
    for i in range(n):
        rng_i = synopsis.range_of(i)
        remaining = 1.0 - point_mass[i]
        if remaining <= 0.0:
            continue
        if rng_i.length <= 0.0:
            probs[i, _loop_bucket(edges, rng_i.lo)] += remaining
            continue
        for j in range(gamma):
            overlap = (min(rng_i.hi, float(edges[j + 1]))
                       - max(rng_i.lo, float(edges[j])))
            if overlap > 0:
                probs[i, j] += remaining * overlap / rng_i.length
    return probs


def loop_adjacency(graph):
    adjacency = [[] for _ in graph.nodes]
    for u, w in itertools.combinations(graph.nodes, 2):
        if u.elements & w.elements:
            adjacency[u.node_id].append(w.node_id)
            adjacency[w.node_id].append(u.node_id)
    return adjacency


def loop_weights(graph):
    weights = {}
    for node in graph.nodes:
        for element in node.elements:
            if element not in weights:
                length = graph.synopsis.range_of(element).length
                weights[element] = 1.0 / length if length > 0 else float("inf")
    return weights


def loop_forced_witnesses(self):
    for side, opposite in ((self.max_side, self.min_side),
                           (self.min_side, self.max_side)):
        for pid, pred in side.items():
            if not pred.equality or pred.determines_value:
                continue
            forced = []
            for j in pred.elements:
                opp_val, opp_closed = opposite.bound(j)
                if opp_val is None:
                    continue
                if opp_val == pred.value and opp_closed:
                    forced.append(j)
                elif side.direction * (opp_val - pred.value) > 0:
                    raise InconsistentAnswersError(
                        "element bounds cross at an equality predicate")
            if len(forced) > 1:
                raise InconsistentAnswersError(
                    f"{len(forced)} elements forced to equal one "
                    f"predicate value")
            if forced:
                side.force_witness(pid, forced[0])
                return True
    return False


def loop_check_ranges(self):
    for i in range(self.n):
        rng = self.range_of(i)
        if rng.lo > rng.hi:
            raise InconsistentAnswersError(
                "an element has an empty feasible range")
        if rng.lo == rng.hi and not (rng.lo_closed and rng.hi_closed):
            raise InconsistentAnswersError(
                "an element has a degenerate half-open range")


class LoopSynopsis(CombinedSynopsis):
    """The combined synopsis with the per-element propagation checks."""

    _apply_forced_witnesses = loop_forced_witnesses
    _check_ranges = loop_check_ranges

    def copy(self):
        dup = LoopSynopsis(self.n, self.low, self.high)
        dup.max_side = self.max_side.copy()
        dup.min_side = self.min_side.copy()
        return dup


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_table_matches_range_of(syn):
    table = syn.range_table()
    assert all(len(column) == syn.n for column in table)
    for i in range(syn.n):
        r = syn.range_of(i)
        assert float(table.lo[i]).hex() == float(r.lo).hex()
        assert float(table.hi[i]).hex() == float(r.hi).hex()
        assert bool(table.lo_closed[i]) is r.lo_closed
        assert bool(table.hi_closed[i]) is r.hi_closed
    for side in (syn.max_side, syn.min_side):
        assert_bound_arrays_match_bound(side)


def assert_bound_arrays_match_bound(side):
    values, closed = side.bound_arrays()
    assert len(values) == len(closed) == side.n
    for i in range(side.n):
        value, is_closed = side.bound(i)
        if value is None:
            value = side.direction * float("inf")
        assert float(values[i]).hex() == float(value).hex()
        assert bool(closed[i]) is is_closed


def predicate_state(syn):
    return (sorted(map(repr, syn.predicates())),
            sorted(syn.determined.items()))


@st.composite
def insert_streams(draw, true_answers_only):
    """A duplicate-free dataset, then inserts of true answers (and, unless
    ``true_answers_only``, of arbitrary answers) interleaved with
    ``add_element``.  Small ``n`` and queries that reuse an earlier query's
    members make same-value splits and determined elements common."""
    n = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.permutation(np.linspace(0.05, 0.95, n)).tolist()
    ops = []
    previous = frozenset(range(n))
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        roll = rng.random()
        if roll < 0.1:
            fresh = float(rng.uniform(0.0, 1.0))
            while fresh in values:
                fresh = float(rng.uniform(0.0, 1.0))
            values.append(fresh)
            ops.append(("add", None, None, None))
            continue
        size = int(rng.integers(1, len(values) + 1))
        members = frozenset(int(i) for i in rng.choice(len(values),
                                                       size=size,
                                                       replace=False))
        if roll < 0.35:
            members = members | {int(rng.choice(sorted(previous)))}
        previous = members
        kind = MAX if rng.integers(2) else MIN
        agg = max if kind is MAX else min
        answer = agg(values[i] for i in members)
        if not true_answers_only and rng.random() < 0.4:
            answer = float(rng.choice(values + [0.0, 0.5, 1.0]))
        ops.append(("insert", kind, members, answer))
    return values, ops


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

@given(insert_streams(true_answers_only=False))
@settings(max_examples=150, deadline=None)
def test_propagation_matches_per_element_loops(case):
    values, ops = case
    n = len(values) - sum(1 for op in ops if op[0] == "add")
    syn = CombinedSynopsis(n, 0.0, 1.0)
    loop = LoopSynopsis(n, 0.0, 1.0)
    for op, kind, members, answer in ops:
        if op == "add":
            assert syn.add_element() == loop.add_element()
        else:
            # The same answers are refused, by the same check.
            outcomes = []
            for target in (syn, loop):
                try:
                    target.insert(kind, members, answer)
                    outcomes.append(None)
                except InconsistentAnswersError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        assert predicate_state(syn) == predicate_state(loop)
        assert_table_matches_range_of(syn)


@given(insert_streams(true_answers_only=True),
       st.sampled_from([0, 1, 3, 20]),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_posterior_paths_match_per_element_loops(case, count, gamma, seed):
    values, ops = case
    n = len(values) - sum(1 for op in ops if op[0] == "add")
    syn = CombinedSynopsis(n, 0.0, 1.0)
    for op, kind, members, answer in ops:
        if op == "add":
            syn.add_element()
        else:
            syn.insert(kind, members, answer)
    assert_table_matches_range_of(syn)

    graph = ColoringGraph(syn)
    assert [graph.neighbors(v.node_id) for v in graph.nodes] == \
        loop_adjacency(graph)
    for element, weight in loop_weights(graph).items():
        assert float(graph.weights[element]).hex() == weight.hex()

    # count=0 leaves no witness mass, so determined elements take the
    # point-range branch; count>0 exercises the witness mass.
    edges = np.linspace(0.0, 1.0, gamma + 1)
    fast = PosteriorSampler(syn, initial_dataset=values, rng=seed)
    slow = PosteriorSampler(syn, initial_dataset=values, rng=seed)
    assert bits(fast.estimate_interval_probabilities(count, edges)) == \
        bits(loop_interval_probabilities(slow, count, edges))

    for draw in range(3):
        coloring = fast.sample_coloring()
        assert bits(dataset_from_coloring(graph, coloring, rng=draw)) == \
            bits(loop_dataset_from_coloring(graph, coloring, rng=draw))


def test_table_covers_determined_and_grown_elements():
    syn = CombinedSynopsis(4, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 0.9)
    syn.insert(MIN, {0, 3}, 0.9)       # same value: pins element 0
    syn.add_element()
    table = syn.range_table()
    assert syn.determined == {0: 0.9}
    assert (table.lo[0], table.hi[0]) == (0.9, 0.9)
    assert table.lo_closed[0] and table.hi_closed[0]
    assert (table.lo[4], table.hi[4]) == (0.0, 1.0)   # fresh and free
    assert_table_matches_range_of(syn)


def test_determined_value_overrides_a_strict_bound_on_the_other_side():
    # Before propagation removes it, a min-determined element can still
    # sit in a strict max predicate; the table follows range_of, which
    # reports the determined point as closed on both ends.
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.max_side.insert({0, 1}, 0.8)
    syn.max_side.insert({1, 2}, 0.8)     # element 0 -> [max({0}) < 0.8]
    syn.min_side.insert({0}, 0.3)        # element 0 determined at 0.3
    hi, hi_closed = syn.max_side.bound_arrays()
    assert (hi[0], hi_closed[0]) == (0.8, False)
    table = syn.range_table()
    assert (table.lo[0], table.hi[0]) == (0.3, 0.3)
    assert table.lo_closed[0] and table.hi_closed[0]
    assert_table_matches_range_of(syn)


def test_unlimited_side_reads_as_open_infinity():
    for side in (MaxSynopsis(3), MinSynopsis(3)):
        side.insert({0, 1}, 0.5)
        values, closed = side.bound_arrays()
        assert values.tolist() == [0.5, 0.5, side.direction * np.inf]
        assert closed.tolist() == [True, True, False]
        assert_bound_arrays_match_bound(side)


def test_infinite_limits_stay_closed():
    syn = CombinedSynopsis(3, low=-np.inf, high=np.inf)
    syn.insert(MAX, {0, 1}, 5.0)
    assert_table_matches_range_of(syn)
    values, closed = syn.max_side.bound_arrays()
    assert values.tolist() == [5.0, 5.0, np.inf] and closed.all()
