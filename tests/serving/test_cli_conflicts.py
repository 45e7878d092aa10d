"""`serve` CLI argument-conflict hardening.

Every mutually exclusive flag combination must fail through argparse:
usage + a specific message on stderr and exit code 2 — not a bare print
on stdout with an ambiguous status.
"""

import io

import pytest

from repro.cli import main

BASE = ["serve", "--csv", "data.csv", "--sensitive", "salary"]

CONFLICTS = [
    (["--follow", "rep/", "--wal", "wal/"],
     "--follow"),
    (["--follow", "rep/", "--replicate-to", "rep2/"],
     "--follow"),
    (["--follow", "rep/", "--listen", "127.0.0.1:0"],
     "--listen"),
    # --journal is retired (the WAL directory is the only journal), so
    # argparse rejects it as an unrecognized argument.
    (["--follow", "rep/", "--journal", "j.json"],
     "--journal"),
    (["--replicate-to", "rep/"],
     "--replicate-to requires --wal"),
    (["--checkpoint-every", "4"],
     "--checkpoint-every"),
    (["--checkpoint-bytes", "1024"],
     "require --wal"),
    (["--listen", "127.0.0.1:0", "--journal", "j.json"],
     "--journal"),
    (["--deadline", "1.0", "--auditor", "sum"],
     "probabilistic"),
]


@pytest.mark.parametrize("extra,needle", CONFLICTS,
                         ids=[" ".join(extra) for extra, _ in CONFLICTS])
def test_conflicting_flags_exit_2_via_argparse(extra, needle, capsys):
    with pytest.raises(SystemExit) as exc:
        main(BASE + extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert needle in err


@pytest.mark.parametrize("flag", [["--shards", "2"],
                                  ["--shard-mode", "inline"],
                                  ["--max-in-flight", "8"]])
def test_retired_serving_flags_are_rejected(flag, capsys):
    # one pooled audit worker serves every user: there is nothing to
    # shard, and a single decision pipeline has no in-flight cap to shed
    with pytest.raises(SystemExit) as exc:
        main(BASE + ["--listen", "127.0.0.1:0"] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_listen_builds_one_worker_over_the_wal_dir_itself(tmp_path,
                                                         monkeypatch):
    from repro.exceptions import ReproError
    from repro.serving import shards

    built = []

    def capture(spec, **kwargs):
        built.append((spec, kwargs))
        raise ReproError("stopped before the worker starts")

    monkeypatch.setattr(shards, "ShardSupervisor", capture)
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\n2.0\n5.0\n")
    wal, replica = tmp_path / "audit.d", tmp_path / "replica.d"
    code = main(["serve", "--csv", str(csv), "--sensitive", "x",
                 "--listen", "127.0.0.1:0", "--wal", str(wal),
                 "--replicate-to", str(replica), "--checkpoint-every", "4"])
    assert code == 2
    [(spec, kwargs)] = built
    assert kwargs == {}  # the spawned worker
    assert spec.wal_dir == str(wal)
    assert spec.replicate_to == (str(replica),)
    assert spec.checkpoint_every == 4


def test_listen_refuses_the_old_per_shard_wal_layout(tmp_path, capsys,
                                                     monkeypatch):
    from repro.serving import shards

    def never(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("a worker started beside the old layout")

    monkeypatch.setattr(shards, "ShardSupervisor", never)
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\n2.0\n5.0\n")
    wal = tmp_path / "audit.d"
    (wal / "shard-00").mkdir(parents=True)
    (wal / "shard-01").mkdir()
    code = main(["serve", "--csv", str(csv), "--sensitive", "x",
                 "--listen", "127.0.0.1:0", "--wal", str(wal)])
    out = capsys.readouterr().out
    assert code == 2
    assert out == ("error: --wal holds shard-NN/ directories from the old "
                   "per-shard layout; refusing to start an empty audit log "
                   "beside the answers they hold\n")
    assert sorted(p.name for p in wal.iterdir()) == ["shard-00", "shard-01"]


def test_listen_without_wal_exits_2(tmp_path, capsys, monkeypatch):
    """A worker without a WAL would forget every released answer when it
    restarts, so --listen refuses to start one."""
    from repro.exceptions import ReproError
    from repro.serving import shards

    def never(*args, **kwargs):
        raise ReproError("a worker was built without a WAL")

    monkeypatch.setattr(shards, "ShardSupervisor", never)
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\n2.0\n5.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--csv", str(csv), "--sensitive", "x",
              "--listen", "127.0.0.1:0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--listen requires --wal" in err


def test_journal_with_wal_exits_2(tmp_path, capsys):
    """The WAL directory is the only journal: ``--journal`` is no longer
    a flag, and naming it writes neither file nor log."""
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\n2.0\n5.0\n")
    journal, wal = tmp_path / "j.json", tmp_path / "wal"
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--csv", str(csv), "--sensitive", "x",
              "--wal", str(wal), "--journal", str(journal)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments: --journal" in err
    assert not journal.exists() and not wal.exists()


def test_listen_refuses_a_single_file_wal(tmp_path, capsys, monkeypatch):
    from repro.resilience.wal import SINGLE_FILE_LOG
    from repro.serving import shards

    def never(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("a worker started beside a single-file log")

    monkeypatch.setattr(shards, "ShardSupervisor", never)
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\n2.0\n5.0\n")
    old_log = tmp_path / "audit.wal"
    old_log.write_bytes(b"0123abcd {}\n")
    code = main(["serve", "--csv", str(csv), "--sensitive", "x",
                 "--listen", "127.0.0.1:0", "--wal", str(old_log)])
    assert code == 2
    assert capsys.readouterr().out == f"error: {SINGLE_FILE_LOG}\n"
    assert old_log.read_bytes() == b"0123abcd {}\n"


def test_listen_reports_why_the_worker_could_not_boot(tmp_path, capsys,
                                                      monkeypatch):
    # A WAL recorded over one CSV, then served with --listen over another:
    # the spawned worker refuses to resume, and its reason (not a dead
    # pipe) reaches the operator.
    first = tmp_path / "a.csv"
    first.write_text("x\n1.0\n2.0\n5.0\n")
    second = tmp_path / "b.csv"
    second.write_text("x\n1.0\n2.0\n6.0\n")
    wal = str(tmp_path / "audit.d")
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
    assert main(["serve", "--csv", str(first), "--sensitive", "x",
                 "--wal", wal]) == 0
    capsys.readouterr()
    code = main(["serve", "--csv", str(second), "--sensitive", "x",
                 "--listen", "127.0.0.1:0", "--wal", wal])
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("error: WAL ")
    assert "recorded over a different dataset" in out


def test_listen_requires_host_port_shape(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\n2.0\n")
    code = main(["serve", "--csv", str(csv), "--sensitive", "x",
                 "--listen", "no-port-here", "--wal", str(tmp_path / "w")])
    assert code == 2
    assert "HOST:PORT" in capsys.readouterr().out


def test_listen_missing_csv_is_a_clean_error(tmp_path, capsys):
    code = main(["serve", "--csv", "/no/such/file.csv", "--sensitive",
                 "x", "--listen", "127.0.0.1:0",
                 "--wal", str(tmp_path / "w")])
    assert code == 2
    assert "error:" in capsys.readouterr().out


def test_listen_non_numeric_sensitive_cell_is_a_clean_error(tmp_path,
                                                             capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\nnp.float64(2.5)\n")
    code = main(["serve", "--csv", str(csv), "--sensitive", "x",
                 "--listen", "127.0.0.1:0", "--wal", str(tmp_path / "w")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: sensitive column 'x' holds a non-numeric value" \
        in captured.out
    assert "2.5" not in captured.out + captured.err   # the cell stays private


def test_listen_warns_on_degenerate_envelope(tmp_path, monkeypatch):
    from repro.exceptions import ReproError
    from repro.serving import shards

    def stop(*args, **kwargs):
        raise ReproError("stopped before any worker starts")

    monkeypatch.setattr(shards, "ShardSupervisor", stop)
    csv = tmp_path / "d.csv"
    csv.write_text("x\n5.0\n5.0\n")
    with pytest.warns(UserWarning, match="degenerate sensitive-value"):
        code = main(["serve", "--csv", str(csv), "--sensitive", "x",
                     "--listen", "127.0.0.1:0",
                     "--wal", str(tmp_path / "w")])
    assert code == 2


def test_plain_serve_still_works_without_conflicts(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\n2.0\n5.0\n")
    import io
    from repro import cli

    args = cli._build_parser().parse_args(
        ["serve", "--csv", str(csv), "--sensitive", "x"])
    assert cli._cmd_serve(args, stdin=io.StringIO(
        "SELECT sum(x)\nquit\n")) == 0
    assert "answer:" in capsys.readouterr().out
