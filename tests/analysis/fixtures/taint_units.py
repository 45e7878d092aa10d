"""Fixture: small functions exercising single taint-engine mechanisms.

Injected as ``repro._fixture_taint_units`` for the unit tests in
``test_taintflow.py``; never imported at runtime.  Each function isolates
one propagation rule so a summary regression points at the exact
mechanism that broke.
"""

from repro.sdb.dataset import Dataset
from repro.serving.shards import ShardSpec
from repro.types import AuditDecision


def passthrough(x):
    return x


def pick_cell(dataset: Dataset) -> float:
    return dataset.values[0]


def scrub(dataset: Dataset) -> int:
    return len(dataset.values)


def collect(dataset: Dataset):
    out = []
    out.append(dataset.values[0])
    return out


def release(dataset: Dataset) -> AuditDecision:
    return AuditDecision.answer(float(dataset.values[0]))


def raise_param(detail):
    raise ValueError(f"got {detail}")


def relay(dataset: Dataset) -> None:
    raise_param(pick_cell(dataset))


def branch_taint(dataset: Dataset, flag: bool) -> float:
    if flag:
        value = dataset.values[0]
    else:
        value = 0.0
    return value


def spec_from_cells(dataset: Dataset) -> ShardSpec:
    return ShardSpec(index=0, values=tuple(dataset.values), low=0.0,
                     high=1.0)


def spec_values(spec: ShardSpec):
    return spec.values


def spec_index(spec: ShardSpec) -> int:
    return spec.index
