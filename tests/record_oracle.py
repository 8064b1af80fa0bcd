"""The row reader: a record at a time, for cross-checking the column reader.

accesslint.modelio reads a section a column at a time, and at a fault
halves it, reading each half with that same reader, down to the first bad
record.  This reads one record field by field, in the order the schema
names a record's faults: its keys, then its required keys in class order,
then its values in _RECORDS order; and a section one record after another,
up to the first fault.  Tests compare the two on the records built and on
the first fault named.
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


def section(items: list, name: str) -> tuple[list, str | None]:
    """The records of section name's items up to the first fault, and that fault as
    parse_model names it, or None.  As parse_model reads overrides into one matrix,
    an override of a cell an earlier one set is a fault too."""
    records, cells = [], set()
    for i, obj in enumerate(items):
        try:
            read = record(obj, name)
        except _Bad as bad:
            return records, f"$.{name}[{i}]{bad.suffix}: {bad.reason}"
        if name == "matrixOverride":
            subject, resource, _ = read
            if (subject, resource) in cells:
                return records, (f"$.{name}[{i}]: duplicate override for "
                                 f"({subject.value}, {resource.value})")
            cells.add((subject, resource))
        records.append(read)
    return records, None
