"""CSV loading for audited statistical databases.

Real deployments start from a table on disk.  :func:`load_csv_database`
reads a CSV with a header row, splits off the sensitive column, infers
numeric public columns, and wires up an auditor — the shortest path from a
file to an audited statistics endpoint (see the ``serve`` CLI command).
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Optional

from .exceptions import InvalidQueryError
from .sdb.dataset import Dataset
from .sdb.engine import StatisticalDatabase


def _coerce(value: str):
    """Numbers become int/float; everything else stays a string."""
    text = value.strip()
    try:
        number = float(text)
    except ValueError:
        return text
    if number.is_integer() and "." not in text and "e" not in text.lower():
        return int(number)
    return number


def read_records(handle) -> list:
    """Parse CSV rows (header required) into coerced record dicts."""
    reader = csv.DictReader(handle)
    if reader.fieldnames is None:
        raise InvalidQueryError("CSV input has no header row")
    records = []
    for row in reader:
        records.append({key: _coerce(val) for key, val in row.items()
                        if key is not None})
    if not records:
        raise InvalidQueryError("CSV input has no data rows")
    return records


def read_csv(path: str, sensitive_column: str) -> list:
    """The records of a CSV file, which must hold ``sensitive_column``."""
    with open(path, newline="") as handle:
        return _with_column(read_records(handle), sensitive_column)


def _with_column(records: list, sensitive_column: str) -> list:
    if sensitive_column not in records[0]:
        raise InvalidQueryError(
            f"sensitive column {sensitive_column!r} not found; "
            f"columns are {sorted(records[0])}"
        )
    return records


def load_csv_database(path: str, sensitive_column: str,
                      auditor_factory: Callable[[Dataset], object],
                      low: Optional[float] = None,
                      high: Optional[float] = None) -> StatisticalDatabase:
    """Build an audited :class:`StatisticalDatabase` from a CSV file.

    To serve over a durable audit log, see
    :meth:`StatisticalDatabase.from_records`.
    """
    return StatisticalDatabase.from_records(
        read_csv(path, sensitive_column), sensitive_column=sensitive_column,
        auditor_factory=auditor_factory, low=low, high=high,
    )


def load_csv_string(text: str, sensitive_column: str,
                    auditor_factory: Callable[[Dataset], object],
                    low: Optional[float] = None,
                    high: Optional[float] = None) -> StatisticalDatabase:
    """Like :func:`load_csv_database`, from an in-memory CSV string."""
    records = _with_column(read_records(io.StringIO(text)), sensitive_column)
    return StatisticalDatabase.from_records(
        records, sensitive_column=sensitive_column,
        auditor_factory=auditor_factory, low=low, high=high,
    )
