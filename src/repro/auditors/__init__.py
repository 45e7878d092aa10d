"""Online simulatable auditors — the paper's core contribution.

Every auditor decides, *before looking at the true answer to the current
query* (simulatability, Section 2.2), whether answering could breach the
configured notion of compromise:

* full disclosure (classical compromise) — some ``x_i`` becomes uniquely
  determined;
* partial disclosure (probabilistic compromise) — the posterior/prior ratio
  for some ``x_i`` and interval leaves ``[1 - lambda, 1/(1 - lambda)]``.

================================  =========  ============================
Auditor                            Section    Compromise notion
================================  =========  ============================
:class:`SumClassicAuditor`         §5         full disclosure
:class:`MaxClassicAuditor`         §6 / [21]  full disclosure
:class:`MaxMinClassicAuditor`      §4         full disclosure
:class:`MaxProbabilisticAuditor`   §3.1       partial disclosure
:class:`MaxMinProbabilisticAuditor` §3.2      partial disclosure
:class:`SumProbabilisticAuditor`   [21]       partial disclosure (baseline)
:class:`NaiveMaxAuditor`           §2.2 ex.   value-based denial (leaks!)
:class:`OverlapRestrictionAuditor` §2.1       size/overlap restriction [11]
:class:`MinimumFrequencyAuditor`   baseline   DPSQL+ small-set refusal
:class:`DenyAllAuditor`            §1         utility floor
================================  =========  ============================
"""

from typing import Any, Callable, Dict, Tuple

from ..exceptions import InvalidQueryError
from ..sdb.dataset import Dataset
from .base import Auditor
from .count_trivial import CountAuditor, DispatchingAuditor
from .deny_all import DenyAllAuditor
from .max_classic import MaxClassicAuditor
from .max_prob import MaxProbabilisticAuditor
from .maxmin_classic import MaxMinClassicAuditor
from .maxmin_prob import MaxMinProbabilisticAuditor
from .min_frequency import MinimumFrequencyAuditor
from .naive import NaiveMaxAuditor, OracleMaxAuditor
from .overlap_restriction import OverlapRestrictionAuditor
from .sum_classic import SumClassicAuditor
from .sum_prob import SumProbabilisticAuditor

#: The auditors ``serve --auditor`` offers: name -> (class, probabilistic).
#: Both serving paths (the stdin loop and the HTTP audit worker) build
#: from this table.
SERVED_AUDITORS: Dict[str, Tuple[Callable[..., Auditor], bool]] = {
    "sum": (SumClassicAuditor, False),
    "max": (MaxClassicAuditor, False),
    "maxmin": (MaxMinClassicAuditor, False),
    "sum-prob": (SumProbabilisticAuditor, True),
    "max-prob": (MaxProbabilisticAuditor, True),
    "maxmin-prob": (MaxMinProbabilisticAuditor, True),
}


def served_auditor_factory(name: str, seed: int = 0,
                           budget: Any = None) -> Callable[[Dataset], Auditor]:
    """The factory of the served auditor ``name``.

    A probabilistic auditor draws from ``seed`` and decides under
    ``budget`` (a :class:`~repro.resilience.budget.Budget` or ``None``);
    the classic ones are closed-form and take neither.
    """
    if name not in SERVED_AUDITORS:
        raise InvalidQueryError(f"unknown auditor name {name!r}")
    cls, probabilistic = SERVED_AUDITORS[name]
    if probabilistic:
        return lambda dataset: cls(dataset, rng=seed, budget=budget)
    return cls


__all__ = [
    "SERVED_AUDITORS",
    "served_auditor_factory",
    "Auditor",
    "CountAuditor",
    "DispatchingAuditor",
    "DenyAllAuditor",
    "MaxClassicAuditor",
    "MaxMinClassicAuditor",
    "MaxProbabilisticAuditor",
    "MaxMinProbabilisticAuditor",
    "MinimumFrequencyAuditor",
    "NaiveMaxAuditor",
    "OracleMaxAuditor",
    "OverlapRestrictionAuditor",
    "SumClassicAuditor",
    "SumProbabilisticAuditor",
]
