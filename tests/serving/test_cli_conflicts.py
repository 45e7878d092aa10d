"""`serve` CLI argument-conflict hardening.

Every mutually exclusive flag combination must fail through argparse:
usage + a specific message on stderr and exit code 2 — not a bare print
on stdout with an ambiguous status.
"""

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


def test_listen_requires_host_port_shape(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\n2.0\n")
    code = main(["serve", "--csv", str(csv), "--sensitive", "x",
                 "--listen", "no-port-here"])
    assert code == 2
    assert "HOST:PORT" in capsys.readouterr().out


def test_listen_missing_csv_is_a_clean_error(capsys):
    code = main(["serve", "--csv", "/no/such/file.csv", "--sensitive",
                 "x", "--listen", "127.0.0.1:0"])
    assert code == 2
    assert "error:" in capsys.readouterr().out


def test_listen_non_numeric_sensitive_cell_is_a_clean_error(tmp_path,
                                                             capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("x\n1.0\nnp.float64(2.5)\n")
    code = main(["serve", "--csv", str(csv), "--sensitive", "x",
                 "--listen", "127.0.0.1:0"])
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
                     "--listen", "127.0.0.1:0"])
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
