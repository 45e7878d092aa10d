"""Command-line interface: run the paper's experiments from a shell.

``python -m repro <command>`` (or the ``repro-audit`` console script):

* ``fig1``   — time to first denial vs database size (Figure 1);
* ``fig2``   — denial-probability curves for the three sum workloads
  (Figure 2);
* ``fig3``   — denial probability for max queries (Figure 3);
* ``attack`` — the denial-decoding attack vs naive and simulatable auditors;
* ``game``   — empirical ``(lambda, delta, gamma, T)``-privacy of the
  Section 3.1 auditor;
* ``empirical`` — the full grey-box audit matrix with Clopper-Pearson
  bounds and adversarial workload search (also ``repro-audit-empirical``);
* ``price``  — the §7 price of simulatability for max auditing;
* ``serve``  — an audited SQL statistics endpoint over a CSV file;
* ``lint``   — the static analysis gate: eight rule families (SIM, DET,
  WAL, BUD, CONC, FORK, ATOM, LEAK) over the package's serving paths;
  see ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    from .auditors import SERVED_AUDITORS

    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description="Query-auditing experiments from "
                    "'Towards Robustness in Query Auditing' (VLDB 2006)",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p = sub.add_parser("fig1", help="time to first denial vs database size")
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[50, 100, 200, 400])
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv", default=None,
                   help="also write the table to this CSV file")
    p.set_defaults(handler=_cmd_fig1)

    p = sub.add_parser("fig2", help="denial curves for three sum workloads")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--update-every", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv", default=None,
                   help="also write the three curves to this CSV file")
    p.set_defaults(handler=_cmd_fig2)

    p = sub.add_parser("fig3", help="denial probability for max queries")
    p.add_argument("--n", type=int, default=250)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv", default=None,
                   help="also write the curve to this CSV file")
    p.set_defaults(handler=_cmd_fig3)

    p = sub.add_parser("attack", help="denial-decoding attack comparison")
    p.add_argument("--n", type=int, default=90)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("game",
                       help="empirical privacy of the probabilistic auditors")
    p.add_argument("--auditor", choices=["max", "maxmin"], default="max")
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--lam", type=float, default=0.2)
    p.add_argument("--gamma", type=int, default=5)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_game)

    p = sub.add_parser(
        "empirical",
        help="grey-box empirical privacy audit: Monte-Carlo compromise "
             "rates with Clopper-Pearson bounds vs the claimed delta",
    )
    from .audit_empirical.cli import add_arguments as _empirical_arguments

    _empirical_arguments(p)
    p.set_defaults(handler=_cmd_empirical)

    p = sub.add_parser("price", help="price of simulatability (max queries)")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--horizon", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_price)

    p = sub.add_parser(
        "serve",
        help="audited SQL statistics endpoint over a CSV file (reads one "
             "SQL query per stdin line)",
    )
    p.add_argument("--csv", required=True, help="CSV file with a header row")
    p.add_argument("--sensitive", required=True,
                   help="name of the sensitive column")
    p.add_argument("--auditor", choices=list(SERVED_AUDITORS),
                   default="sum")
    p.add_argument("--wal", default=None, metavar="DIR",
                   help="crash-safe write-ahead audit log directory; every "
                        "decision is fsynced before its answer is printed, "
                        "and an existing log is recovered and replayed")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N",
                   help="with --wal: snapshot auditor state every N "
                        "journal records, so recovery replays only the "
                        "post-checkpoint suffix and old segments are "
                        "compacted away")
    p.add_argument("--checkpoint-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="with --wal: also checkpoint once the active log "
                        "segment exceeds BYTES")
    p.add_argument("--replicate-to", action="append", default=None,
                   metavar="DIR",
                   help="with --wal: ship every decision to a follower "
                        "replica keeping a bitwise copy of the audit log "
                        "under DIR; answers are released only after every "
                        "follower acknowledges (repeatable).  Each "
                        "follower runs in-process, written by the log "
                        "itself")
    p.add_argument("--follow", default=None, metavar="DIR",
                   help="serve as a read-only follower replica over the "
                        "replicated audit log in DIR, which is read once "
                        "and never written: replicated decisions are "
                        "re-released, everything else is denied "
                        "(incompatible with --wal/--replicate-to)")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-query wall-clock budget in seconds "
                        "(probabilistic auditors only); exhaustion yields "
                        "a fail-closed resource-exhausted denial")
    p.add_argument("--seed", type=int, default=0,
                   help="rng seed for the probabilistic auditors")
    p.add_argument("--listen", default=None, metavar="HOST:PORT",
                   help="serve the audit HTTP API instead of the stdin "
                        "SQL loop: one supervised worker process audits "
                        "every user's queries with one pooled auditor "
                        "and the WAL directory in --wal, which is "
                        "required (see docs/API.md)")
    p.add_argument("--user-rate", type=float, default=None,
                   help="with --listen: per-user sustained queries/second "
                        "admission limit; sheds surface as HTTP 429 and "
                        "are journalled resource-exhausted denials")
    p.add_argument("--max-deadline", type=float, default=30.0,
                   help="with --listen: server-side cap in seconds on "
                        "propagated client deadlines (clamps skewed "
                        "absolute X-Deadline headers)")
    p.set_defaults(handler=_cmd_serve, parser=p)

    p = sub.add_parser(
        "lint",
        help="statically verify the serving invariants: simulatability "
             "(SIM), determinism (DET), fail-closed ordering (WAL), "
             "budget checkpointing (BUD), lock discipline (CONC), "
             "fork/spawn safety (FORK), durable renames (ATOM) and "
             "taint-flow leak freedom (LEAK)",
    )
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="output format (default: text)")
    p.add_argument("--package-dir", default=None,
                   help="analyse this package directory instead of the "
                        "installed repro package")
    p.add_argument("--select", default=None, metavar="RULES",
                   help="comma-separated rule IDs or families to run "
                        "(e.g. 'DET,WAL001'); default: all rules")
    p.add_argument("--ignore", default=None, metavar="RULES",
                   help="comma-separated rule IDs or families to skip")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="suppress findings recorded in this baseline file")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline from the current run's "
                        "undocumented findings and exit 0")
    p.add_argument("--quiet", action="store_true",
                   help="print nothing when the tree is clean")
    p.set_defaults(handler=_cmd_lint)

    return parser


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------

def _cmd_fig1(args) -> int:
    from .reporting.tables import format_table
    from .utility.experiments import time_to_first_denial_vs_size
    from .utility.theory import theorem6_lower_bound, theorem7_upper_bound

    means = time_to_first_denial_vs_size(args.sizes, args.trials,
                                         rng=args.seed)
    rows = [(n, f"{means[n]:.1f}", f"{means[n] / n:.2f}",
             f"{theorem6_lower_bound(n):.1f}",
             f"{theorem7_upper_bound(n):.1f}") for n in args.sizes]
    print(format_table(
        ["n", "mean first denial", "T/n", "Thm6 lower", "Thm7 upper"],
        rows, title="Figure 1: time to first denial (sum queries)",
    ))
    if args.out_csv:
        from .reporting.export import write_table_csv

        write_table_csv(args.out_csv,
                        ["n", "mean_first_denial", "ratio",
                         "thm6_lower", "thm7_upper"], rows)
        print(f"wrote {args.out_csv}")
    return 0


def _cmd_fig2(args) -> int:
    from .reporting.ascii_plots import ascii_plot
    from .utility.experiments import (
        estimate_denial_curve,
        run_range_trial,
        run_sum_denial_trial,
        run_update_trial,
    )
    from .utility.metrics import moving_average

    n = args.n
    horizon = args.horizon or 3 * n
    plots = [
        ("Plot 1: uniform random sum queries",
         lambda child: run_sum_denial_trial(n, horizon, rng=child)),
        (f"Plot 2: modification every {args.update_every} queries",
         lambda child: run_update_trial(n, horizon,
                                        update_every=args.update_every,
                                        rng=child)),
        ("Plot 3: 1-d range queries (width 50-100)",
         lambda child: run_range_trial(n, horizon, rng=child)),
    ]
    curves = {}
    for title, trial in plots:
        curve = estimate_denial_curve(trial, args.trials, rng=args.seed)
        curves[title.split(":")[0]] = curve
        print(ascii_plot(moving_average(curve, max(5, n // 8)),
                         title=f"{title} (n={n})", y_label="query index"))
        tail = curve[min(2 * n, len(curve) // 2):]
        print(f"  long-run denial probability: "
              f"{float(np.mean(tail)):.2f}\n")
    if args.out_csv:
        from .reporting.export import write_series_csv

        write_series_csv(args.out_csv,
                         {name: list(curve)
                          for name, curve in curves.items()},
                         index_name="query")
        print(f"wrote {args.out_csv}")
    return 0


def _cmd_fig3(args) -> int:
    from .reporting.ascii_plots import ascii_plot
    from .utility.experiments import estimate_denial_curve, run_max_denial_trial
    from .utility.metrics import moving_average

    n = args.n
    horizon = args.horizon or 3 * n
    curve = estimate_denial_curve(
        lambda child: run_max_denial_trial(n, horizon, rng=child),
        args.trials, rng=args.seed,
    )
    print(ascii_plot(moving_average(curve, max(5, n // 8)),
                     title=f"Figure 3: max-query denial probability (n={n})",
                     y_label="query index"))
    print(f"  plateau (queries {n}..{horizon}): "
          f"{float(np.mean(curve[n:])):.2f}")
    if args.out_csv:
        from .reporting.export import write_series_csv

        write_series_csv(args.out_csv, {"denial_probability": list(curve)},
                         index_name="query")
        print(f"wrote {args.out_csv}")
    return 0


def _cmd_attack(args) -> int:
    from .attack.naive_max_attack import run_denial_decoding_attack
    from .auditors.max_classic import MaxClassicAuditor
    from .auditors.naive import NaiveMaxAuditor, OracleMaxAuditor
    from .reporting.tables import format_table
    from .sdb.dataset import Dataset

    data = Dataset.uniform(args.n, rng=args.seed)
    rows = []
    for name, cls in (("oracle", OracleMaxAuditor),
                      ("naive", NaiveMaxAuditor),
                      ("simulatable", MaxClassicAuditor)):
        auditor = cls(Dataset(list(data.values), low=data.low,
                              high=data.high))
        result = run_denial_decoding_attack(auditor, args.n,
                                            rng=args.seed + 1)
        correct = sum(1 for i, v in result.learned.items() if data[i] == v)
        rows.append((name, result.queries_posed, result.denials, correct,
                     f"{correct / args.n:.0%}"))
    print(format_table(
        ["auditor", "queries", "denials", "values leaked", "fraction"],
        rows, title=f"Denial-decoding attack over {args.n} records",
    ))
    return 0


def _cmd_game(args) -> int:
    from .attack.interval_attack import IntervalAttacker
    from .auditors.max_prob import MaxProbabilisticAuditor
    from .auditors.maxmin_prob import MaxMinProbabilisticAuditor
    from .privacy.game import (
        PrivacyGame,
        estimate_privacy,
        make_max_posterior_oracle,
        make_maxmin_posterior_oracle,
    )
    from .privacy.intervals import IntervalGrid
    from .sdb.dataset import Dataset

    grid = IntervalGrid(args.gamma)
    if args.auditor == "max":
        oracle = make_max_posterior_oracle(grid, args.n)

        def make_auditor(ds):
            return MaxProbabilisticAuditor(
                ds, lam=args.lam, gamma=args.gamma, delta=args.delta,
                rounds=args.rounds, num_samples=40, rng=args.seed,
            )
    else:
        oracle = make_maxmin_posterior_oracle(grid, args.n,
                                              num_samples=150, rng=args.seed)

        def make_auditor(ds):
            return MaxMinProbabilisticAuditor(
                ds, lam=args.lam, gamma=args.gamma, delta=args.delta,
                rounds=args.rounds, num_outer=3, num_inner=30, rng=args.seed,
            )
    game = PrivacyGame(grid, args.lam, args.rounds, oracle)
    win_rate = estimate_privacy(
        game,
        make_auditor=make_auditor,
        make_attacker=lambda rng: IntervalAttacker(args.n, rng=rng),
        make_dataset=lambda rng: Dataset.uniform(args.n, rng=rng),
        trials=args.trials,
        rng=args.seed,
    )
    verdict = "PRIVATE" if win_rate <= args.delta else "BREACHED"
    print(f"attacker win rate: {win_rate:.3f} over {args.trials} games "
          f"(delta = {args.delta}) -> {verdict}")
    return 0 if win_rate <= args.delta else 1


def _cmd_empirical(args) -> int:
    from .audit_empirical.cli import run

    return run(args)


def _cmd_price(args) -> int:
    from .auditors.max_classic import MaxClassicAuditor
    from .sdb.dataset import Dataset
    from .types import max_query
    from .utility.price_of_simulatability import (
        measure_price_of_simulatability,
    )

    rng = np.random.default_rng(args.seed)
    data = Dataset.uniform(args.n, rng=rng)
    auditor = MaxClassicAuditor(data)
    stream = []
    for _ in range(args.horizon):
        size = int(rng.integers(1, args.n + 1))
        members = [int(i) for i in rng.choice(args.n, size=size,
                                              replace=False)]
        stream.append(max_query(members))
    tally = measure_price_of_simulatability(auditor, stream)
    print(f"answered {tally.answered}, necessary denials "
          f"{tally.necessary_denials}, conservative denials "
          f"{tally.conservative_denials}")
    print(f"price of simulatability: {tally.price:.2f}")
    return 0


def _cmd_lint(args) -> int:
    import os
    import traceback

    from .analysis import analyze_package, report_to_sarif_json, \
        write_baseline

    if args.update_baseline and not args.baseline:
        print("error: --update-baseline requires --baseline",
              file=sys.stderr)
        return 2
    baseline = args.baseline
    if baseline is not None and not os.path.exists(baseline):
        if not args.update_baseline:
            print(f"error: baseline file not found: {baseline}",
                  file=sys.stderr)
            return 2
        baseline = None
    try:
        report = analyze_package(
            package_dir=args.package_dir,
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else None,
            baseline=None if args.update_baseline else baseline,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # internal analyzer bug: fail loudly, not as findings
        print("error: internal analyzer error", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2
    if args.update_baseline:
        recorded = write_baseline(args.baseline, report)
        print(f"lint: recorded {recorded} finding(s) in {args.baseline}")
        return 0
    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(report_to_sarif_json(report))
    elif not (args.quiet and report.ok):
        print(report.format_text())
    if not report.ok:
        print(f"lint: {len(report.violations)} undocumented "
              f"violation(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args, stdin=None) -> int:
    from .auditors import SERVED_AUDITORS, served_auditor_factory
    from .exceptions import ReproError
    from .io import read_csv
    from .resilience import Budget
    from .resilience.checkpoint import CheckpointPolicy
    from .sdb.engine import StatisticalDatabase, split_records
    from .sdb.sql import execute_sql

    # Argument conflicts fail through argparse when the args came from
    # the real parser (usage + message on stderr, exit code 2); hand-built
    # Namespaces (tests, embedding) keep the print-and-return contract.
    parser = getattr(args, "parser", None)

    def conflict(message: str) -> int:
        if parser is not None:
            parser.error(message)  # raises SystemExit(2)
        print(f"error: {message}")
        return 2

    probabilistic = SERVED_AUDITORS[args.auditor][1]
    if args.deadline is not None and not probabilistic:
        return conflict(
            "--deadline applies to the probabilistic auditors; "
            "the classic decision procedures are closed-form")
    factory = served_auditor_factory(
        args.auditor, args.seed,
        Budget(wall_time=args.deadline) if args.deadline is not None
        else None)

    checkpoint_every = getattr(args, "checkpoint_every", None)
    checkpoint_bytes = getattr(args, "checkpoint_bytes", None)
    if ((checkpoint_every is not None or checkpoint_bytes is not None)
            and not args.wal):
        return conflict(
            "--checkpoint-every/--checkpoint-bytes require --wal "
            "(a WAL directory)")

    replicate_to = getattr(args, "replicate_to", None)
    follow = getattr(args, "follow", None)
    listen = getattr(args, "listen", None)
    if follow and args.wal:
        return conflict(
            "--follow serves an existing replica read-only and is "
            "incompatible with --wal (a follower never appends to the "
            "audit log)")
    if follow and replicate_to:
        return conflict(
            "--follow serves an existing replica read-only and is "
            "incompatible with --replicate-to (a follower never ships "
            "records onward)")
    if follow and listen:
        return conflict(
            "--follow is incompatible with --listen: the networked "
            "serving tier appends to a writable WAL, while a "
            "follower is a read-only replica")
    if replicate_to and not args.wal:
        return conflict(
            "--replicate-to requires --wal (the primary's WAL directory)")
    if listen and not args.wal:
        return conflict(
            "--listen requires --wal: a restarted audit worker recovers "
            "every released answer from its WAL directory, and without "
            "one it would forget them")

    if listen:
        return _serve_http(args)

    try:
        table, dataset = split_records(read_csv(args.csv, args.sensitive),
                                       args.sensitive)
        if follow:
            from .resilience.replication import FollowerReadOnlyAuditor

            auditor = replica = FollowerReadOnlyAuditor(follow, factory,
                                                        dataset)
        elif args.wal:
            from .resilience.wal import open_wal_auditor

            # Replay-verify only the deterministic classics
            # (probabilistic replays restore state without re-deciding).
            # Every --replicate-to directory keeps a bitwise replica and
            # must acknowledge each record before the answer is printed.
            auditor, dataset = open_wal_auditor(
                args.wal, factory, dataset, verify=not probabilistic,
                policy=CheckpointPolicy.from_flags(checkpoint_every,
                                                   checkpoint_bytes),
                replicate_to=replicate_to)
        else:
            auditor = factory(dataset)
        db = StatisticalDatabase(table, dataset, auditor)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}")
        return 2

    print(f"serving {db.dataset.n} records from {args.csv}; sensitive "
          f"column {args.sensitive!r}; auditor {args.auditor!r}")
    if follow:
        print(f"read-only follower over {follow}: "
              f"{replica.total_events} replicated events at epoch "
              f"{replica.epoch}")
    elif replicate_to:
        print(f"replicating to {len(replicate_to)} follower(s): "
              + ", ".join(replicate_to))
    print("enter SQL statistical queries, one per line "
          "(e.g. SELECT sum(x) WHERE a = 1); EOF or 'quit' ends")

    stream = stdin if stdin is not None else sys.stdin
    for line in stream:
        text = line.strip()
        if not text:
            continue
        if text.lower() in ("quit", "exit"):
            break
        try:
            decision = execute_sql(db, text, args.sensitive)
        except ReproError as exc:
            print(f"error: {exc}")
            continue
        if decision.answered:
            print(f"answer: {decision.value}")
        else:
            print(f"DENIED ({decision.reason.value}): {decision.detail}")

    if args.wal:
        db.auditor.close()
        if replicate_to:
            print(f"write-ahead log synced to {args.wal} and "
                  f"{len(replicate_to)} follower replica(s)")
        else:
            print(f"write-ahead log synced to {args.wal}")
    trail = db.auditor.trail
    print(f"session: {len(trail)} queries, {trail.denial_count()} denied")
    return 0


def _serve_http(args) -> int:
    """The ``serve --listen`` path: one audit worker behind HTTP."""
    import asyncio
    import os
    import re

    from .exceptions import ReproError
    from .io import read_csv
    from .resilience.wal import SINGLE_FILE_LOG
    from .sdb.engine import sensitive_values
    from .serving import AuditServer, DeadlinePolicy, ServerConfig
    from .serving.shards import ShardSpec, ShardSupervisor

    host, _, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print("error: --listen expects HOST:PORT")
        return 2
    host = host or "127.0.0.1"

    try:
        values, low, high = sensitive_values(
            read_csv(args.csv, args.sensitive), args.sensitive)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}")
        return 2

    if os.path.isfile(args.wal):
        # The worker's open_wal_auditor refuses this too, but only after
        # a process is spawned; no worker starts beside a single-file log.
        print(f"error: {SINGLE_FILE_LOG}")
        return 2
    if os.path.isdir(args.wal) and any(
            re.fullmatch(r"shard-\d+", name) for name in os.listdir(args.wal)):
        # The old layout kept one WAL per user shard in DIR/shard-NN/.
        # Serving beside them would start an empty transcript and forget
        # every answer they hold.
        print("error: --wal holds shard-NN/ directories from the old "
              "per-shard layout; refusing to start an empty audit log "
              "beside the answers they hold")
        return 2

    spec = ShardSpec(
        values=tuple(values), low=low, high=high,
        auditor=args.auditor, seed=args.seed, wal_dir=args.wal,
        checkpoint_every=getattr(args, "checkpoint_every", None),
        checkpoint_bytes=getattr(args, "checkpoint_bytes", None),
        replicate_to=tuple(getattr(args, "replicate_to", None) or ()),
        user_rate=getattr(args, "user_rate", None),
    )
    try:
        supervisor = ShardSupervisor(spec)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}")
        return 2

    config = ServerConfig(host=host, port=port, deadline=DeadlinePolicy(
        default_wall_time=args.deadline,
        max_wall_time=getattr(args, "max_deadline", 30.0) or 30.0,
    ))

    async def _run() -> None:
        server = AuditServer(supervisor, config)
        await server.start()
        print(f"audit API listening on http://{host}:{server.port} "
              "(one audit worker); POST /query, GET /healthz, /stats, "
              "/events")
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        supervisor.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
