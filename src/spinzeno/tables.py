"""Deterministic result tables and their CSV/JSON serializations.

CSV output starts with '#'-prefixed header lines echoing every parameter
that affects the numbers, then a column-name row, then data rows with 12
significant digits, a cell with a comma or a double quote (as an error
text may have) quoted.  JSON output carries the same metadata plus full-
precision row values, with NaN written as the string "nan".
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field

COLUMNS = ("mode", "sweep", "tau", "gamma", "s", "validity", "regime", "error")


@dataclass(frozen=True)
class ResultTable:
    meta: tuple                  # ordered (key, value-string) pairs
    rows: tuple = field(default_factory=tuple)
    # each row is a dict with the COLUMNS keys; numeric cells are floats
    # (nan allowed), "mode"/"regime"/"error" are strings, "sweep" may be None


def emit_csv(table):
    out = io.StringIO()
    out.writelines(f"# {key} = {val}\n" for key, val in table.meta)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    # column by column, 12 significant digits for a float: csv.writer
    # writes None as an empty cell; a NaN of either sign is "nan"
    writer.writerows(zip(*[
        ["%.12g" % v if isinstance(v, float) else v
         for v in (row.get(col) for row in table.rows)]
        for col in COLUMNS]))
    return out.getvalue()


def _json_cell(value):
    # NaN is not valid JSON; encode it as a string marker
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def emit_json(table):
    doc = {
        "meta": {key: val for key, val in table.meta},
        "columns": list(COLUMNS),
        "rows": [[_json_cell(row.get(col)) for col in COLUMNS]
                 for row in table.rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def emit(table, format):
    if format == "csv":
        return emit_csv(table)
    if format == "json":
        return emit_json(table)
    raise ValueError(f"unknown output format {format!r}")
