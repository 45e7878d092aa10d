"""Unit tests for the value-level taint engine.

Each test pins one propagation mechanism against the
``taint_units`` fixture: parameter passthrough, source reads, the
``len()`` sanitizer, mutator-method receiver tainting, the release
boundary, interprocedural summaries, and union-joins at branches.
Breaking any of these silently weakens every LEAK rule, so they are
asserted directly at the summary level rather than through findings.
"""

import pathlib

import pytest

from repro.analysis.callgraph import Resolver
from repro.analysis.facts import FunctionFacts
from repro.analysis.findings import Finding
from repro.analysis.modindex import build_index
from repro.analysis.purity import EffectEngine
from repro.analysis.simulatability import default_package_dir
from repro.analysis.taintflow import SOURCE, TaintEngine

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
UNIT_MODULES = [("repro._fixture_taint_units", FIXTURES / "taint_units.py")]


@pytest.fixture(scope="module")
def taint_and_module():
    index = build_index(default_package_dir(), package="repro",
                        extra_modules=UNIT_MODULES)
    facts = FunctionFacts(index, Resolver(index))
    taint = TaintEngine(facts, EffectEngine(facts))
    return taint, index.modules["repro._fixture_taint_units"]


def _summary(taint_and_module, name):
    taint, mod = taint_and_module
    return taint.summary_of(mod.functions[name])


def test_parameter_passthrough(taint_and_module):
    summary = _summary(taint_and_module, "passthrough")
    assert not summary.returns_source
    assert summary.param_returns == frozenset({0})


def test_dataset_cell_read_is_a_source(taint_and_module):
    assert _summary(taint_and_module, "pick_cell").returns_source


def test_shard_spec_values_are_the_only_sensitive_field(taint_and_module):
    # A spec built from cells is a handle; reading ``values`` back off a
    # spec is a cell read, its configuration fields are public.
    assert not _summary(taint_and_module, "spec_from_cells").returns_source
    assert _summary(taint_and_module, "spec_values").returns_source
    assert not _summary(taint_and_module, "spec_index").returns_source


def test_len_sanitizes(taint_and_module):
    summary = _summary(taint_and_module, "scrub")
    assert not summary.returns_source
    assert not summary.param_returns


def test_mutator_method_taints_receiver(taint_and_module):
    # out.append(tainted) must taint `out`, else accumulation loops
    # (engine.from_records-style) launder every cell
    assert _summary(taint_and_module, "collect").returns_source


def test_release_boundary_launders(taint_and_module):
    # AuditDecision.answer is the sanctioned channel: its result is public
    assert not _summary(taint_and_module, "release").returns_source


def test_raise_records_param_sink(taint_and_module):
    summary = _summary(taint_and_module, "raise_param")
    assert summary.sink_params("raise") == frozenset({0})


def test_interprocedural_relay_fires_at_call_site(taint_and_module):
    taint, mod = taint_and_module
    events = taint.events_for(mod.functions["relay"])
    raises = [e for e in events if e.kind == "raise"]
    assert raises, "tainted call into raise_param() must surface in relay"
    assert any(SOURCE in e.origins for e in raises)


def test_branch_join_unions(taint_and_module):
    # a value tainted on only one branch stays tainted after the join —
    # an intersection join would launder it
    assert _summary(taint_and_module, "branch_taint").returns_source


def _finding(sink):
    return Finding(rule="LEAK001", message="m", file="repro/x.py",
                   line=10, col=4, entry_class="C", entry_method="f",
                   entry_module="repro.x", sink=sink)


def test_fingerprint_survives_sink_reflow():
    compact = _finding("deny(detail=f'answer {a} breaches the band')")
    reflowed = _finding("deny(detail=f'answer {a} breaches\n"
                        "        the band')")
    assert compact.fingerprint == reflowed.fingerprint


def test_fingerprint_still_separates_distinct_sinks():
    assert (_finding("deny(detail='x')").fingerprint
            != _finding("deny(detail='y')").fingerprint)
