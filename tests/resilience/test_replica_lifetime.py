"""What opening a log loads, and what closing it releases.

Each scenario runs in a fresh interpreter: whether a module was imported
is only meaningful before anything else imported it, and an unclosed
file surfaces as a ``ResourceWarning`` only when its object is collected.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

PRELUDE = """
import gc, json, os, sys, tempfile
from repro.auditors.sum_classic import SumClassicAuditor
from repro.resilience.checkpoint import CheckpointPolicy
from repro.resilience.wal import open_wal_auditor
from repro.sdb.dataset import Dataset
from repro.types import sum_query

root = tempfile.mkdtemp()
EVERY_RECORD = CheckpointPolicy(every_records=1)


def dataset():
    return Dataset([10.0, 20.0, 30.0, 40.0], low=0.0, high=100.0)


def stored(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith(("segment-", "snapshot-")):
            with open(os.path.join(directory, name), "rb") as handle:
                out[name] = handle.read().hex()
    return out
"""


def run_fresh(root, script, *flags):
    """Run ``script`` in a fresh interpreter with ``TMPDIR`` at ``root``,
    so the directories the script makes live under the test's own."""
    env = dict(os.environ)
    env["TMPDIR"] = str(root)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, *flags, "-c",
         textwrap.dedent(PRELUDE) + textwrap.dedent(script)],
        capture_output=True, text=True, timeout=120, env=env)


def test_a_log_without_replicas_never_imports_replication(tmp_path):
    result = run_fresh(tmp_path, """
        from repro.serving.shards import ShardSpec, ShardWorker

        wrapped, _ = open_wal_auditor(os.path.join(root, "log"),
                                      SumClassicAuditor, dataset(),
                                      policy=EVERY_RECORD)
        wrapped.audit(sum_query([0, 1, 2, 3]))
        wrapped.close()
        worker = ShardWorker(ShardSpec(
            values=(10.0, 20.0, 30.0, 40.0), low=0.0, high=100.0,
            wal_dir=os.path.join(root, "worker"), checkpoint_every=1))
        reply = worker.handle({"op": "query", "user": "u0", "kind": "sum",
                               "members": [0, 1, 2, 3]})
        worker.close()
        loaded = [m for m in sys.modules if m.endswith(".replication")]

        primary, replica = (os.path.join(root, "primary"),
                            os.path.join(root, "replica"))
        wrapped, _ = open_wal_auditor(primary, SumClassicAuditor, dataset(),
                                      policy=EVERY_RECORD,
                                      replicate_to=[replica])
        for members in ([0, 1, 2, 3], [0, 1], [2, 3]):
            wrapped.audit(sum_query(members))
        wrapped.close()
        print(json.dumps({
            "answered": not reply["decision"]["denied"],
            "loaded": loaded,
            "snapshots": sorted(n for n in os.listdir(os.path.join(
                root, "worker")) if n.startswith("snapshot-")),
            "replicated": "repro.resilience.replication" in sys.modules,
            "bitwise": stored(replica) == stored(primary),
        }))
    """)
    assert result.returncode == 0, result.stderr[-2000:]
    facts = json.loads(result.stdout.splitlines()[-1])
    assert facts["answered"] and facts["snapshots"]
    assert facts["loaded"] == []
    assert facts["replicated"] and facts["bitwise"]


def test_the_log_closes_the_replica_directories_it_opened(tmp_path):
    """Both after a clean close and after a failed attach sync (the
    replica was promoted, so the old primary is fenced), no replica
    segment is left open."""
    result = run_fresh(tmp_path, """
        from repro.resilience.replication import FencedError, promote_replica

        primary, replica = (os.path.join(root, "primary"),
                            os.path.join(root, "replica"))
        wrapped, _ = open_wal_auditor(primary, SumClassicAuditor, dataset(),
                                      replicate_to=[replica])
        wrapped.audit(sum_query([0, 1, 2, 3]))
        wrapped.close()
        del wrapped
        gc.collect()

        promoted, _, _ = promote_replica(replica, SumClassicAuditor)
        promoted.close()
        try:
            open_wal_auditor(primary, SumClassicAuditor, dataset(),
                             replicate_to=[replica])
        except FencedError:
            print("fenced")
        gc.collect()
        print("done")
    """, "-W", "error::ResourceWarning")
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["fenced", "done"]
    assert "ResourceWarning" not in result.stderr, result.stderr[-2000:]
