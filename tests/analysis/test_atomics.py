"""Tests for the ATOM rule family (atomic-durability protocol)."""

import pathlib

import pytest

from repro.analysis import (
    RULE_FSYNC_WITHOUT_FLUSH,
    RULE_RENAME_WITHOUT_FSYNC,
    analyze_package,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def report():
    return analyze_package(select=["ATOM"], extra_modules=[
        ("repro._fixture_atom_protocol", FIXTURES / "atom_protocol.py"),
    ])


def fixture_findings(report, method=None):
    hits = [f for f in report.findings
            if f.file.endswith("atom_protocol.py")]
    if method is not None:
        hits = [f for f in hits if f.entry_method == method]
    return hits


def test_rename_without_file_fsync_is_caught(report):
    hits = fixture_findings(report, "rename_without_any_fsync")
    assert [f.rule for f in hits] == [RULE_RENAME_WITHOUT_FSYNC]
    assert "without file fsync" in hits[0].sink


def test_rename_without_dir_fsync_is_caught(report):
    hits = fixture_findings(report, "rename_without_dir_fsync")
    assert [f.rule for f in hits] == [RULE_RENAME_WITHOUT_FSYNC]
    assert "without directory fsync" in hits[0].sink


def test_fsync_of_unflushed_handle_is_caught(report):
    hits = fixture_findings(report, "fsync_unflushed_handle")
    assert [f.rule for f in hits] == [RULE_FSYNC_WITHOUT_FLUSH]


def test_full_protocol_twin_is_clean(report):
    assert not fixture_findings(report, "publish_manifest_safely")


def test_policy_gated_protocol_is_clean(report):
    # Mirrors the checkpoint layer: fsyncs behind an explicit
    # ``if durable_fsync:`` gate still satisfy the protocol.
    assert not fixture_findings(report, "publish_manifest_gated")


def test_dir_fsync_two_helpers_down_is_clean(report):
    assert not fixture_findings(report, "publish_manifest_via_helpers")


def test_helper_without_dir_fsync_is_caught(report):
    hits = fixture_findings(report, "rename_then_helper_without_dir_fsync")
    assert [f.rule for f in hits] == [RULE_RENAME_WITHOUT_FSYNC]
    assert "without directory fsync" in hits[0].sink


def test_stripping_checkpoint_file_fsync_is_caught():
    # Acceptance scenario: drop the snapshot-write fsync from the real
    # checkpoint layer and ATOM001 must fire on the snapshot publication.
    from repro.analysis.simulatability import default_package_dir

    path = default_package_dir() / "resilience" / "checkpoint.py"
    source = path.read_text()
    assert source.count("os.fsync(handle.fileno())") >= 2, \
        "checkpoint fsync moved; update test"
    broken = source.replace("os.fsync(handle.fileno())", "pass")
    stripped = analyze_package(select=["ATOM"],
                               source_overrides={str(path): broken})
    hits = [f for f in stripped.findings
            if f.rule == RULE_RENAME_WITHOUT_FSYNC
            and f.file.endswith("checkpoint.py")]
    assert hits, stripped.format_text()


def test_shipped_tree_is_atom_clean(report):
    real = [f for f in report.findings
            if "fixtures" not in f.file and f.severity == "violation"]
    assert not real, "\n".join(f.format_text() for f in real)
