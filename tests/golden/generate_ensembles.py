"""Regenerate the serving-shape hit-and-run ensemble golden.

Run from the repo root::

    PYTHONPATH=src python -m tests.golden.generate_ensembles

Both sampler modes are walked before writing; a workload whose
vectorized and reference histograms disagree is refused.
"""

from __future__ import annotations

import json

from .ensemble_workloads import (
    ENSEMBLE_SEEDS,
    ENSEMBLE_WORKLOADS,
    ensemble_golden_path,
    run_ensemble_workload,
)


def main() -> None:
    workloads = {}
    for name in ENSEMBLE_WORKLOADS:
        records = run_ensemble_workload(name, vectorized=True)
        if records != run_ensemble_workload(name, vectorized=False):
            raise SystemExit(
                f"{name}: vectorized and reference ensembles diverge; "
                f"refusing to write a golden")
        workloads[name] = records
    path = ensemble_golden_path()
    with path.open("w") as fh:
        # One element's histogram per line.
        fh.write(f'{{"seeds": {json.dumps(ENSEMBLE_SEEDS)}, '
                 f'"workloads": {{\n')
        blocks = []
        for name, records in workloads.items():
            entries = []
            for record in records:
                fields = [f'  "seed": {record["seed"]}',
                          f'  "dimension": {record["dimension"]}']
                for key in ("ensemble", "samples"):
                    rows = ",\n   ".join(json.dumps(h, separators=(",", ":"))
                                         for h in record[key])
                    fields.append(f'  "{key}": [\n   {rows}\n  ]')
                entries.append(" {\n" + ",\n".join(fields) + "\n }")
            blocks.append(f'"{name}": [\n' + ",\n".join(entries) + "\n]")
        fh.write(",\n".join(blocks))
        fh.write("\n}}\n")
    print(f"wrote {path.name} ({len(workloads)} workloads x "
          f"{len(ENSEMBLE_SEEDS)} seeds)")


if __name__ == "__main__":
    main()
