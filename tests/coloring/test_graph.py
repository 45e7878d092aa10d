"""Unit tests for the colouring graph construction."""

import numpy as np
import pytest

from repro.auditors.consistency import Constraint, \
    construct_consistent_dataset
from repro.exceptions import ColoringError
from repro.coloring.graph import ColoringGraph, enumerate_colorings
from repro.coloring.sampler import PosteriorSampler
from repro.synopsis.combined import CombinedSynopsis
from repro.types import AggregateKind

MAX = AggregateKind.MAX
MIN = AggregateKind.MIN


def example_synopsis():
    # The paper's Section 3.2 worked example:
    # [max{a,b,c} = 1] and [min{a,b} = 0.2]
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 1.0)
    syn.insert(MIN, {0, 1}, 0.2)
    return syn


def test_nodes_and_edges_of_example():
    graph = ColoringGraph(example_synopsis())
    assert graph.k == 2
    assert graph.degree(0) == 1 and graph.degree(1) == 1
    assert graph.max_degree() == 1


def test_weights_are_inverse_range_lengths():
    graph = ColoringGraph(example_synopsis())
    # a, b range over [0.2, 1] (length 0.8); c over [0, 1] (length 1).
    assert graph.weights[0] == pytest.approx(1 / 0.8)
    assert graph.weights[1] == pytest.approx(1 / 0.8)
    assert graph.weights[2] == pytest.approx(1.0)


def test_enumerate_colorings_counts_valid_assignments():
    graph = ColoringGraph(example_synopsis())
    colorings = list(enumerate_colorings(graph))
    # max witness in {a,b,c}, min witness in {a,b}, distinct: 3*2 - 2 = 4.
    assert len(colorings) == 4
    assert all(graph.is_valid(c) for c in colorings)


def test_coloring_from_dataset_identifies_witnesses():
    graph = ColoringGraph(example_synopsis())
    dataset = [1.0, 0.2, 0.7]  # a is the max witness, b the min witness
    coloring = graph.coloring_from_dataset(dataset)
    by_kind = {node.is_max: coloring[node.node_id] for node in graph.nodes}
    assert by_kind[True] == 0 and by_kind[False] == 1


def test_coloring_from_inconsistent_dataset_raises():
    graph = ColoringGraph(example_synopsis())
    with pytest.raises(ColoringError):
        graph.coloring_from_dataset([0.9, 0.2, 0.7])  # nobody attains max=1


def test_find_valid_coloring_backtracks():
    graph = ColoringGraph(example_synopsis())
    coloring = graph.find_valid_coloring()
    assert graph.is_valid(coloring)


def test_lemma2_condition():
    graph = ColoringGraph(example_synopsis())
    # |S(max)| = 3 >= 1 + 2 and |S(min)| = 2 < 1 + 2 -> violated.
    assert not graph.satisfies_lemma2()
    syn = CombinedSynopsis(6, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2, 3}, 0.9)
    syn.insert(MIN, {2, 3, 4, 5}, 0.1)
    graph2 = ColoringGraph(syn)
    assert graph2.satisfies_lemma2()


def test_empty_graph():
    syn = CombinedSynopsis(3, 0.0, 1.0)
    graph = ColoringGraph(syn)
    assert graph.k == 0
    assert graph.satisfies_lemma2()
    assert list(enumerate_colorings(graph)) == [{}]


def test_mixing_condition_diagnostic():
    # Large disjoint-ish predicates satisfy Lemma 3's stronger condition.
    syn = CombinedSynopsis(20, 0.0, 1.0)
    syn.insert(MAX, set(range(0, 10)), 0.9)
    syn.insert(MIN, set(range(8, 18)), 0.1)
    graph = ColoringGraph(syn)
    holds, m, threshold = graph.mixing_condition()
    assert m == 10.0
    assert isinstance(holds, bool)
    assert threshold > 0
    # Empty graph trivially mixes.
    empty = ColoringGraph(CombinedSynopsis(3, 0.0, 1.0))
    assert empty.mixing_condition()[0] is True


def split_synopsis():
    # The paper's Section 3.2 split: max{0,1,2} = 0.9 and min{2,3,4} = 0.9
    # share the value, so x_2 = 0.9 and both sides pin element 2.
    syn = CombinedSynopsis(5, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 0.9)
    syn.insert(MIN, {2, 3, 4}, 0.9)
    return syn


def test_same_value_pin_is_one_node():
    syn = split_synopsis()
    assert [(p.is_max, sorted(p.elements)) for p in
            syn.equality_predicates()] == [(True, [2]), (False, [2])]
    graph = ColoringGraph(syn)
    assert [(v.is_max, sorted(v.elements), v.value) for v in graph.nodes] \
        == [(True, [2], 0.9)]
    assert graph.neighbors(0) == []
    assert graph.find_valid_coloring() == {0: 2}
    # A singleton node still fails Lemma 2, before and after merging.
    assert not graph.satisfies_lemma2()


def test_same_value_pin_samples_with_unit_witness_mass():
    sampler = PosteriorSampler(split_synopsis(), rng=0)
    dataset = sampler.sample_dataset()
    assert dataset[2] == 0.9
    assert max(dataset[j] for j in (0, 1, 2)) == 0.9
    assert min(dataset[j] for j in (2, 3, 4)) == 0.9
    probs = sampler.estimate_interval_probabilities(
        10, np.linspace(0.0, 1.0, 5))
    assert probs[2].tolist() == [0.0, 0.0, 0.0, 1.0]
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_same_value_pin_constructs_a_consistent_dataset():
    constraints = [Constraint(MAX, frozenset({0, 1, 2}), 0.9),
                   Constraint(MIN, frozenset({2, 3, 4}), 0.9)]
    values = construct_consistent_dataset(constraints, 5, rng=1)
    assert values[2] == 0.9
    assert max(values[:3]) == 0.9 and min(values[2:]) == 0.9
    assert len(set(values)) == 5
