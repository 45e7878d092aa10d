"""Fixture: true-positive / true-negative pairs for every LEAK rule.

Injected as ``repro._fixture_leak_channels`` and never imported at
runtime — the taint tests feed this file to
``analyze_package(extra_modules=...)`` to prove each sink kind fires on a
genuine flow (sensitive cell -> channel) and stays silent on the scrubbed
twin (constants and ``len()`` projections only).
"""

import threading

from repro.sdb.dataset import Dataset
from repro.types import SAMPLED_BREACH_DETAIL, AuditDecision, DenialReason

POLICY_DETAIL = "policy limit reached"
RETRY_DETAIL = "retry later"


class LeakyExceptions:
    """LEAK001 true positives: tainted raise, tainted/non-constant deny."""

    def raise_with_value(self, dataset: Dataset) -> None:
        peek = dataset.values[0]
        raise ValueError(f"cell is {peek}")  # LEAK001

    def deny_with_value(self, dataset: Dataset) -> AuditDecision:
        peek = max(dataset.values)
        return AuditDecision.deny(DenialReason.FULL_DISCLOSURE,
                                  f"the maximum is {peek}")  # LEAK001

    def deny_nonconstant(self, attempts: int) -> AuditDecision:
        # strict mode: a computed detail fires even when untainted
        return AuditDecision.deny(DenialReason.POLICY,
                                  f"failed after {attempts} tries")

    def deny_shadowed_constant(self, attempts: int) -> AuditDecision:
        # a second binding anywhere in the module disqualifies the name
        RETRY_DETAIL = f"failed after {attempts} tries"
        return AuditDecision.deny(DenialReason.POLICY, RETRY_DETAIL)


class CleanExceptions:
    """LEAK001 true negatives: constant reasons after touching the data."""

    def raise_scrubbed(self, dataset: Dataset) -> None:
        peek = dataset.values[0]
        if peek > 0:
            raise ValueError("cell out of range")

    def deny_scrubbed(self, dataset: Dataset) -> AuditDecision:
        if max(dataset.values) > 0:
            return AuditDecision.deny(DenialReason.POLICY,
                                      "policy threshold exceeded")
        return AuditDecision.answer(0.0)

    def deny_named_constant(self, dataset: Dataset) -> AuditDecision:
        if max(dataset.values) > 0:
            return AuditDecision.deny(DenialReason.POLICY, POLICY_DETAIL)
        return AuditDecision.answer(0.0)

    def deny_imported_constant(self) -> AuditDecision:
        return AuditDecision.deny(DenialReason.PARTIAL_DISCLOSURE,
                                  SAMPLED_BREACH_DETAIL)

    def deny_documented(self, attempts: int) -> AuditDecision:
        # audit: LEAK001 -- attempt counter is operational, not data
        return AuditDecision.deny(DenialReason.POLICY,
                                  f"failed after {attempts} tries")


class LeakyLogging:
    """LEAK002 pair: a cell printed vs. a ``len()`` projection printed."""

    def print_value(self, dataset: Dataset) -> None:
        print("debug cell:", dataset.values[0])  # LEAK002

    def print_size(self, dataset: Dataset) -> None:
        print("rows:", len(dataset.values))  # clean: len() sanitizes


class LeakyReplication:
    """LEAK003 pair: a cell in a replication frame vs. a count."""

    def __init__(self, channel):
        self._channel = channel

    def ship_cell(self, dataset: Dataset) -> None:
        self._channel.encode_frame({"cell": dataset.values[0]})  # LEAK003

    def ship_count(self, dataset: Dataset) -> None:
        self._channel.encode_frame({"rows": len(dataset.values)})


class SharedCache:
    """LEAK004 pair: lock-owning (thread-shared per the escape pass)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.last = None

    def remember(self, dataset: Dataset) -> None:
        with self._lock:
            self.last = dataset.values[0]  # LEAK004

    def remember_size(self, dataset: Dataset) -> None:
        with self._lock:
            self.last = len(dataset.values)  # clean
