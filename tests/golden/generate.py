"""Regenerate the golden decision sequences.

Run from the repo root::

    PYTHONPATH=src python -m tests.golden.generate

Only regenerate when a deliberate randomness-stream or decision-logic
change lands; the diff of the golden files *is* the review surface for
"did this refactor change any released bit".
"""

from __future__ import annotations

import json

from .workloads import (
    NUM_QUERIES,
    SERVING_WORKLOADS,
    WORKLOADS,
    golden_path,
    run_workload,
)


def main() -> None:
    for name in [*WORKLOADS, *SERVING_WORKLOADS]:
        decisions = run_workload(name, vectorized=True)
        reference = run_workload(name, vectorized=False)
        if decisions != reference:
            raise SystemExit(
                f"{name}: vectorized and reference decision sequences "
                f"diverge; refusing to write a golden"
            )
        path = golden_path(name)
        with path.open("w") as fh:
            if name in SERVING_WORKLOADS:
                # One decision per line: each lists 250-500 members.
                fh.write(f'{{"workload": "{name}", '
                         f'"queries": {len(decisions)}, "decisions": [\n')
                fh.write(",\n".join(json.dumps(d) for d in decisions))
                fh.write("\n]}\n")
            else:
                json.dump(
                    {
                        "workload": name,
                        "queries": NUM_QUERIES,
                        "decisions": decisions,
                    },
                    fh, indent=1,
                )
                fh.write("\n")
        answered = sum(1 for d in decisions if not d["denied"])
        print(f"{name}: wrote {path.name} "
              f"({answered}/{len(decisions)} answered)")


if __name__ == "__main__":
    main()
