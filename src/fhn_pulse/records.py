"""The artifact format: report dataclasses to JSON, float columns to CSV.

A report's JSON is its dataclass fields, recursively, minus the bulk
fields its class lists in `_exclude`, plus the computed properties it
lists in `_derived`; tuples become lists. JSON keys are sorted and floats
are written by `repr`, CSV floats at 17 significant digits, so both
round-trip float64 exactly and identical inputs give identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
from typing import ClassVar

import numpy as np


def _plain(value):
    """JSON-ready copy of value: dataclasses become dicts (honouring their
    `_exclude` and `_derived`), tuples become lists."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        exclude = getattr(cls, "_exclude", ())
        out = {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in exclude
        }
        for name in getattr(cls, "_derived", ()):
            out[name] = _plain(getattr(value, name))
        return out
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class Record:
    """Mixin giving a dataclass its JSON summary."""

    _exclude: ClassVar[tuple[str, ...]] = ()
    _derived: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        return _plain(self)


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_text(obj))


_CSV_ROWS = 4096  # rows formatted per write


def write_csv(path, header: str, columns) -> None:
    """Write equal-length float columns under a comma-separated header.
    Rows are formatted from Python floats, which give the bytes of numpy
    float64 scalars faster, a chunk of rows at a time, so no list of the
    whole file is held."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _CSV_ROWS):
            chunk = [col[start : start + _CSV_ROWS].tolist() for col in columns]
            fh.write("".join([row % vals for vals in zip(*chunk)]))
