"""The row reader: a record at a time, for cross-checking the column reader.

accesslint.modelio reads a section a column at a time, and at a fault
re-reads it a record at a time through that same reader.  This reads one
record field by field, in the order the schema names a record's faults:
its keys, then its required keys in class order, then its values in
_RECORDS order.  Tests compare the two on the records built and on the
first fault named.
"""

from __future__ import annotations

from dataclasses import MISSING
from typing import Any

from accesslint.model import quote
from accesslint.modelio import _COLUMNS, _RECORD_KEYS, _RECORDS, _Bad, _object_keys


def record(obj: Any, section: str) -> Any:
    """The record obj of a section, or _Bad at its first fault."""
    cls, fields = _RECORDS[section]
    _object_keys(obj, _RECORD_KEYS[section])
    for key, default, _ in _COLUMNS[section]:
        if default is MISSING and key not in obj:
            raise _Bad("", f"missing required key {quote(key)}")
    values = {}
    try:
        for key, attribute, read, _ in fields:
            if key in obj:
                values[attribute] = read([obj[key]])[0]
    except _Bad as bad:
        raise _Bad(f".{key}{bad.suffix}", bad.reason) from None
    return cls(**values)
