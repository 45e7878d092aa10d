"""Max-prob reads only the samples it checks, with the stream unchanged.

When one unsafe sample denies, ``MaxProbabilisticAuditor`` reads sample
0 of each uniform block and jumps a PCG64 generator past the rest with
``repro.rng.skip_uniforms``.  These tests hold the jump to the whole
block draw bit for bit, generator state included, and hold the auditor
to its reference mode (``vectorized=False``, which draws every block
whole): the same decisions, the same generator state, the same pickle.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditors.max_prob import MaxProbabilisticAuditor
from repro.rng import skip_uniforms, skips_uniforms, uniform_block
from repro.sdb.dataset import Dataset
from repro.types import max_query
from tests.golden.workloads import SERVING_WORKLOADS

# ----------------------------------------------------------------------
# The helper: a skip lands where the block draw lands
# ----------------------------------------------------------------------

blocks = st.lists(
    st.tuples(
        st.integers(0, 3),     # integers() draws before the block
        st.integers(1, 40),    # samples in the block
        st.integers(1, 12),    # width of one sample
        st.integers(0, 39),    # the row to read (taken modulo the count)
        st.sampled_from([2, 7, 1000, 2**40]),  # bound of those draws
    ),
    min_size=1, max_size=4,
)


@given(seed=st.integers(0, 2**32 - 1), layout=blocks,
       tail=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_skipping_around_one_row_equals_the_whole_block(seed, layout, tail):
    whole = np.random.default_rng(seed)
    skipping = np.random.default_rng(seed)
    for draws, count, width, row, bound in layout:
        # Small bounds leave half of a 64-bit word buffered (has_uint32
        # 1) or a stale one behind (has_uint32 0, uinteger set); a bound
        # past 32 bits draws whole words and leaves the buffer alone.
        assert np.array_equal(whole.integers(bound, size=draws),
                              skipping.integers(bound, size=draws))
        assert (whole.bit_generator.state
                == skipping.bit_generator.state)
        row %= count
        block = uniform_block(whole, count * width)
        skip_uniforms(skipping, row * width)
        got = uniform_block(skipping, width)
        skip_uniforms(skipping, (count - row - 1) * width)
        want = block[row * width:(row + 1) * width]
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert whole.bit_generator.state == skipping.bit_generator.state
    assert np.array_equal(whole.integers(7, size=tail),
                          skipping.integers(7, size=tail))
    assert whole.bit_generator.state == skipping.bit_generator.state


def test_only_pcg64_skips():
    assert skips_uniforms(np.random.default_rng(0))
    for bits in (np.random.MT19937, np.random.SFC64, np.random.Philox,
                 np.random.PCG64DXSM):
        assert not skips_uniforms(np.random.Generator(bits(0)))


# ----------------------------------------------------------------------
# The auditor: skipping equals the reference, pickle for pickle
# ----------------------------------------------------------------------

def outcome(decision):
    return (decision.denied, decision.reason, decision.value,
            decision.detail)


def pickled(auditor):
    """The auditor's pickle with the mode flag set to the default, so
    two modes compare on everything the flag does not name."""
    flag = auditor.vectorized
    auditor.vectorized = True
    try:
        return pickle.dumps(auditor)
    finally:
        auditor.vectorized = flag


def assert_modes_agree(make, queries):
    skipping, reference = make(True), make(False)
    for query in queries:
        assert outcome(skipping.audit(query)) == outcome(
            reference.audit(query))
        assert (pickle.dumps(skipping._rng.bit_generator.state)
                == pickle.dumps(reference._rng.bit_generator.state))
    assert pickled(skipping) == pickled(reference)
    return skipping


@st.composite
def one_breach_denies(draw):
    n = draw(st.integers(4, 30))
    config = {
        "n": n,
        "num_samples": draw(st.integers(1, 40)),
        # delta/2T * N < 1 for every N here, so sample 0 can decide.
        "delta": draw(st.sampled_from([0.05, 0.2])),
        "rounds": draw(st.sampled_from([5, 100])),
        # Wide bands answer often enough to build equality predicates,
        # whose witness picks buffer half words between uniform blocks.
        "lam": draw(st.sampled_from([0.3, 0.6, 0.9])),
        "gamma": draw(st.sampled_from([2, 4])),
        "seed": draw(st.integers(0, 2**16)),
    }
    queries = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1).map(max_query),
        min_size=1, max_size=8,
    ))
    return config, queries


@given(one_breach_denies())
@settings(max_examples=60, deadline=None)
def test_skipping_equals_the_reference_when_one_breach_denies(case):
    config, queries = case
    data = Dataset.uniform(config["n"], rng=config["seed"],
                           duplicate_free=True)

    def make(vectorized):
        return MaxProbabilisticAuditor(
            data, lam=config["lam"], gamma=config["gamma"],
            delta=config["delta"], rounds=config["rounds"],
            num_samples=config["num_samples"], rng=config["seed"],
            vectorized=vectorized)

    assert_modes_agree(make, queries)


def test_serving_golden_stream_pickles_identically():
    # max_prob_n1000 answers twice (equality predicates whose witness
    # picks leave a stale half word in the buffer) and denies the rest,
    # most after sample 0.  The perfbench-shaped tail of 2-10 members
    # then denies at sample 0, skipping across those predicates.
    make = SERVING_WORKLOADS["max_prob_n1000"]
    _, queries = make(True)
    gen = np.random.default_rng(3)
    tail = [max_query(gen.choice(1000, size=int(gen.integers(2, 11)),
                                 replace=False).tolist())
            for _ in range(20)]
    skipping = assert_modes_agree(lambda v: make(v)[0], queries + tail)
    assert any(p.equality for p in skipping.synopsis.predicates())


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.SFC64,
                                  np.random.Philox])
def test_other_bit_generators_draw_whole_blocks(bits):
    data = Dataset.uniform(200, rng=7, duplicate_free=True)
    gen = np.random.default_rng(21)
    queries = [max_query(gen.choice(200, size=int(gen.integers(2, 40)),
                                    replace=False).tolist())
               for _ in range(25)]

    def make(vectorized):
        return MaxProbabilisticAuditor(
            data, lam=0.6, gamma=4, rng=np.random.Generator(bits(5)),
            vectorized=vectorized)

    assert_modes_agree(make, queries)
