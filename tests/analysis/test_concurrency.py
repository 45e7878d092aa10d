"""Tests for the CONC rule family (lock discipline, shared state)."""

import pathlib

import pytest

from repro.analysis import (
    RULE_ACQUIRE_WITHOUT_RELEASE,
    RULE_BLOCKING_UNDER_LOCK,
    RULE_UNGUARDED_GUARDED_STATE,
    RULE_UNSYNCHRONIZED_SHARED_MUTATION,
    analyze_package,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def report():
    return analyze_package(select=["CONC"], extra_modules=[
        ("repro._fixture_conc_discipline",
         FIXTURES / "conc_discipline.py"),
    ])


def fixture_findings(report):
    return [f for f in report.findings
            if f.file.endswith("conc_discipline.py")]


def by_class(report, name):
    return [f for f in fixture_findings(report) if f.entry_class == name]


def test_unguarded_mutation_in_lock_owner_is_caught(report):
    hits = by_class(report, "RacyCounter")
    assert len(hits) == 1
    assert hits[0].rule == RULE_UNGUARDED_GUARDED_STATE
    assert hits[0].entry_method == "bump"
    assert "self._count" in hits[0].sink


def test_guarded_twin_and_locked_helper_are_clean(report):
    assert not by_class(report, "DisciplinedCounter")


def test_bare_acquire_is_caught(report):
    hits = by_class(report, "LeakyAcquirer")
    assert len(hits) == 1
    assert hits[0].rule == RULE_ACQUIRE_WITHOUT_RELEASE
    assert "acquire" in hits[0].sink


def test_try_finally_acquire_is_clean(report):
    assert not by_class(report, "CarefulAcquirer")


def test_fsync_under_lock_is_caught(report):
    hits = by_class(report, "StallingAppender")
    assert len(hits) == 1
    assert hits[0].rule == RULE_BLOCKING_UNDER_LOCK
    assert "os.fsync" in hits[0].sink


def test_fsync_two_helpers_under_lock_is_caught(report):
    hits = by_class(report, "HelperStallingAppender")
    assert [f.rule for f in hits] == [RULE_BLOCKING_UNDER_LOCK]
    assert "_write_durably (transitive fsync)" in hits[0].sink


def test_fsync_after_release_is_clean(report):
    assert not by_class(report, "PipelinedAppender")


def test_shared_class_without_lock_is_caught(report):
    hits = by_class(report, "SharedRegistry")
    assert len(hits) == 1
    assert hits[0].rule == RULE_UNSYNCHRONIZED_SHARED_MUTATION
    assert hits[0].entry_method == "register"


def test_locked_registry_twin_is_clean(report):
    assert not by_class(report, "LockedRegistry")


def test_worker_global_mutation_is_caught(report):
    hits = [f for f in fixture_findings(report)
            if f.entry_method == "_tally_worker"]
    assert len(hits) == 1
    assert hits[0].rule == RULE_UNSYNCHRONIZED_SHARED_MUTATION
    assert "_TALLY" in hits[0].sink


def test_guarded_worker_global_is_clean(report):
    assert not [f for f in fixture_findings(report)
                if f.entry_method == "_guarded_tally_worker"]


def test_stripping_the_cache_lock_is_caught():
    # Acceptance scenario: remove the LRU cache's internal lock and the
    # shared-state rule must resurface on its read-modify-write methods.
    from repro.analysis.simulatability import default_package_dir

    path = default_package_dir() / "sdb" / "cache.py"
    source = path.read_text()
    broken = source.replace("        self._lock = threading.Lock()\n", "")
    assert broken != source, "cache lock moved; update test"
    stripped = analyze_package(select=["CONC"],
                               source_overrides={str(path): broken})
    hits = [f for f in stripped.findings
            if f.rule == RULE_UNSYNCHRONIZED_SHARED_MUTATION
            and f.file.endswith("cache.py")]
    assert hits, stripped.format_text()
    assert {f.entry_method for f in hits} <= {"get", "put", "clear"}


def test_unlocking_engine_apply_is_caught():
    # Removing the with-lock around apply() leaves StatisticalDatabase a
    # lock owner mutating outside it: CONC001 must fire.
    from repro.analysis.simulatability import default_package_dir

    path = default_package_dir() / "sdb" / "engine.py"
    source = path.read_text()
    target = "        with self._lock:\n            if isinstance(event, Insert):"
    assert target in source, "engine apply() changed; update test"
    broken = source.replace(
        target, "        if True:\n            if isinstance(event, Insert):")
    stripped = analyze_package(select=["CONC"],
                               source_overrides={str(path): broken})
    hits = [f for f in stripped.findings
            if f.rule == RULE_UNGUARDED_GUARDED_STATE
            and f.file.endswith("engine.py")
            and f.entry_method == "apply"]
    assert hits, stripped.format_text()


def test_shipped_tree_is_conc_clean(report):
    real = [f for f in report.findings
            if "fixtures" not in f.file and f.severity == "violation"]
    assert not real, "\n".join(f.format_text() for f in real)
