"""CSV loading and the `serve` CLI endpoint."""

import io

import pytest

from repro.auditors.sum_classic import SumClassicAuditor
from repro.cli import main, _cmd_serve
from repro.exceptions import InvalidQueryError
from repro.io import load_csv_database, load_csv_string, read_records
from repro.types import AggregateKind
from repro.sdb.predicates import Eq

CSV_TEXT = """zip,dept,salary
94305,eng,100.0
94305,hr,120.0
94306,eng,90.5
94306,hr,110.25
"""


def test_read_records_coerces_types():
    records = read_records(io.StringIO(CSV_TEXT))
    assert records[0] == {"zip": 94305, "dept": "eng", "salary": 100.0}
    assert isinstance(records[0]["zip"], int)
    assert isinstance(records[2]["salary"], float)


def test_read_records_requires_header_and_rows():
    with pytest.raises(InvalidQueryError):
        read_records(io.StringIO(""))
    with pytest.raises(InvalidQueryError):
        read_records(io.StringIO("a,b\n"))


def test_load_csv_string_builds_audited_db():
    db = load_csv_string(CSV_TEXT, "salary",
                         lambda ds: SumClassicAuditor(ds))
    decision = db.query(Eq("zip", 94305), AggregateKind.SUM)
    assert decision.answered and decision.value == pytest.approx(220.0)


def test_load_csv_string_unknown_sensitive_column():
    with pytest.raises(InvalidQueryError):
        load_csv_string(CSV_TEXT, "wage", lambda ds: SumClassicAuditor(ds))


def test_load_csv_database_from_file(tmp_path):
    path = tmp_path / "salaries.csv"
    path.write_text(CSV_TEXT)
    db = load_csv_database(str(path), "salary",
                           lambda ds: SumClassicAuditor(ds))
    assert db.dataset.n == 4


def test_serve_command_end_to_end(tmp_path, capsys):
    from repro.resilience import replica_events

    path = tmp_path / "salaries.csv"
    path.write_text(CSV_TEXT)
    wal_path = tmp_path / "audit.d"

    import argparse
    args = argparse.Namespace(csv=str(path), sensitive="salary",
                              auditor="sum", wal=str(wal_path),
                              deadline=None, seed=0)
    queries = io.StringIO(
        "SELECT sum(salary) WHERE dept = 'eng'\n"
        "SELECT sum(salary) WHERE dept = 'eng' AND zip = 94305\n"
        "not sql at all\n"
        "quit\n"
    )
    code = _cmd_serve(args, stdin=queries)
    out = capsys.readouterr().out
    assert code == 0
    assert "answer: 190.5" in out
    assert "DENIED" in out            # the narrowing query isolates a salary
    assert "error:" in out            # the bad SQL line
    assert "write-ahead log synced" in out
    events = replica_events(str(wal_path))
    assert sum(1 for e in events if e["type"] == "query") == 2


def test_serve_command_missing_file(capsys):
    import argparse
    args = argparse.Namespace(csv="/no/such/file.csv", sensitive="x",
                              auditor="sum",
                              wal=None, deadline=None, seed=0)
    assert _cmd_serve(args, stdin=io.StringIO("")) == 2
    assert "error:" in capsys.readouterr().out


def test_serve_non_numeric_sensitive_cell_is_a_clean_error(tmp_path,
                                                           capsys):
    path = tmp_path / "bad.csv"
    path.write_text("zip,salary\n94305,100.0\n94306,np.float64(2.5)\n")
    code = main(["serve", "--csv", str(path), "--sensitive", "salary"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: sensitive column 'salary' holds a non-numeric value" \
        in captured.out
    assert "2.5" not in captured.out + captured.err   # the cell stays private


def test_non_numeric_cell_error_names_the_column_only():
    with pytest.raises(InvalidQueryError) as exc:
        load_csv_string("zip,salary\n1,10.0\n2,n/a\n", "salary",
                        SumClassicAuditor)
    assert "n/a" not in str(exc.value) and "'salary'" in str(exc.value)
    # No chained ValueError carries the cell into a traceback either.
    assert exc.value.__cause__ is None and exc.value.__suppress_context__


def test_serve_via_main_help(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    assert "CSV file" in capsys.readouterr().out


def test_serve_with_wal_recovers_across_restarts(tmp_path, capsys):
    path = tmp_path / "salaries.csv"
    path.write_text(CSV_TEXT)
    wal_path = tmp_path / "wal"

    import argparse

    def round_trip(lines):
        args = argparse.Namespace(csv=str(path), sensitive="salary",
                                  auditor="sum",
                                  wal=str(wal_path), deadline=None, seed=0)
        return _cmd_serve(args, stdin=io.StringIO(lines))

    assert round_trip("SELECT sum(salary)\nquit\n") == 0
    first = capsys.readouterr().out
    assert "answer:" in first and "write-ahead log synced" in first

    assert round_trip("SELECT sum(salary) WHERE dept = 'eng'\nquit\n") == 0
    second = capsys.readouterr().out
    # The restarted process remembers the total from the WAL: answering
    # eng here is fine, but the session count shows the replayed history.
    assert "session: 2 queries" in second


def test_checkpoint_bytes_keeps_the_record_trigger(tmp_path, capsys):
    """--checkpoint-bytes adds a byte trigger to the 256-record one; it
    does not replace it, in the stdin loop as under --listen."""
    import os

    from repro.cli import _build_parser

    path = tmp_path / "salaries.csv"
    path.write_text(CSV_TEXT)
    wal = tmp_path / "wal"
    args = _build_parser().parse_args([
        "serve", "--csv", str(path), "--sensitive", "salary",
        "--wal", str(wal), "--checkpoint-bytes", "10000000"])
    # One audited decision and 299 journalled cache replays.
    stdin = io.StringIO("SELECT sum(salary)\n" * 300)
    assert _cmd_serve(args, stdin=stdin) == 0
    assert "session: 300 queries" in capsys.readouterr().out
    assert [name for name in os.listdir(wal)
            if name.startswith("snapshot-")]


def test_serve_refuses_a_single_file_wal(tmp_path, capsys):
    """A --wal naming a regular file (the retired single-file log) exits
    2 and leaves the file byte-identical."""
    from repro.resilience.wal import SINGLE_FILE_LOG

    path = tmp_path / "salaries.csv"
    path.write_text(CSV_TEXT)
    old_log = tmp_path / "audit.wal"
    old_log.write_bytes(b"0123abcd {\"type\":\"header\"}\n")
    code = main(["serve", "--csv", str(path), "--sensitive", "salary",
                 "--wal", str(old_log)])
    assert code == 2
    assert f"error: {SINGLE_FILE_LOG}" in capsys.readouterr().out
    assert old_log.read_bytes() == b"0123abcd {\"type\":\"header\"}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "audit.wal", "salaries.csv"]


def test_serve_probabilistic_auditor_with_deadline(tmp_path, capsys):
    path = tmp_path / "salaries.csv"
    path.write_text(CSV_TEXT)
    import argparse
    args = argparse.Namespace(csv=str(path), sensitive="salary",
                              auditor="sum-prob", wal=None,
                              deadline=30.0, seed=3)
    code = _cmd_serve(args, stdin=io.StringIO("SELECT sum(salary)\nquit\n"))
    out = capsys.readouterr().out
    assert code == 0
    assert "answer:" in out or "DENIED" in out


def test_serve_rejects_deadline_for_classic_auditors(capsys):
    import argparse
    args = argparse.Namespace(csv="ignored.csv", sensitive="x",
                              auditor="sum", wal=None,
                              deadline=1.0, seed=0)
    assert _cmd_serve(args, stdin=io.StringIO("")) == 2
    assert "probabilistic" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The stdin loop's replicas: --replicate-to and --follow
# ----------------------------------------------------------------------

SESSION = ("SELECT sum(salary)\n"
           "SELECT sum(salary) WHERE dept = 'eng'\n"
           "SELECT sum(salary) WHERE dept = 'eng' AND zip = 94305\n")


def serve_piped(monkeypatch, argv, lines):
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    return main(argv)


def file_digests(directory):
    import hashlib

    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def replicated_session(tmp_path, monkeypatch, capsys):
    """Serve SESSION over piped SQL with one replica; return (W, R)."""
    path = tmp_path / "salaries.csv"
    path.write_text(CSV_TEXT)
    wal, replica = tmp_path / "wal", tmp_path / "replica"
    assert serve_piped(monkeypatch, [
        "serve", "--csv", str(path), "--sensitive", "salary",
        "--wal", str(wal), "--replicate-to", str(replica),
        "--checkpoint-every", "2"], SESSION) == 0
    out = capsys.readouterr().out
    assert out.count("answer:") == 2 and out.count("DENIED") == 1
    assert "and 1 follower replica(s)" in out
    return wal, replica


def follow(tmp_path, monkeypatch, replica, lines):
    return serve_piped(monkeypatch, [
        "serve", "--csv", str(tmp_path / "salaries.csv"),
        "--sensitive", "salary", "--follow", str(replica)], lines)


def test_stdin_replicas_are_bitwise_and_serve_read_only(tmp_path,
                                                        monkeypatch,
                                                        capsys):
    from repro.resilience.replication import replica_events

    wal, replica = replicated_session(tmp_path, monkeypatch, capsys)
    assert any(p.name.startswith("snapshot-") for p in wal.iterdir())
    assert file_digests(replica) == file_digests(wal)
    assert replica_events(str(replica)) == replica_events(str(wal))

    new_query = "SELECT sum(salary) WHERE zip = 94306\n"
    assert follow(tmp_path, monkeypatch, replica, SESSION + new_query) == 0
    out = capsys.readouterr().out
    assert "answer: 420.75" in out and "answer: 190.5" in out
    assert out.count("DENIED (full-disclosure)") == 1
    assert out.count("DENIED (policy): read-only replica") == 1


def test_follow_refuses_a_directory_without_a_manifest(tmp_path,
                                                       monkeypatch,
                                                       capsys):
    from repro.resilience.replication import NOT_A_REPLICA

    path = tmp_path / "salaries.csv"
    path.write_text(CSV_TEXT)
    typo = tmp_path / "typo-dir"
    assert follow(tmp_path, monkeypatch, typo, SESSION) == 2
    assert f"error: {NOT_A_REPLICA}\n" in capsys.readouterr().out
    assert not typo.exists()


def test_follow_leaves_a_torn_replica_byte_for_byte(tmp_path, monkeypatch,
                                                    capsys):
    """A torn final record and a stray install .tmp (a live primary's
    in-flight write) are read around, never healed or swept."""
    wal, replica = replicated_session(tmp_path, monkeypatch, capsys)
    active = max(p for p in replica.iterdir()
                 if p.name.startswith("segment-"))
    with open(active, "ab") as handle:
        handle.write(b'0123abcd {"type":"query",')  # 25 bytes, no newline
    (replica / "snapshot-000009.snap.tmp").write_bytes(b"in flight")
    before = file_digests(replica)

    assert follow(tmp_path, monkeypatch, replica, SESSION) == 0
    out = capsys.readouterr().out
    assert "3 replicated events" in out
    assert out.count("answer:") == 2
    assert file_digests(replica) == before
