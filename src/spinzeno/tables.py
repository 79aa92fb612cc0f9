"""Deterministic result rows and their CSV/JSON serializations.

A table is its metadata, ordered (key, value-string) pairs, and its rows,
each a `Row`: numeric cells are floats (nan allowed), "mode", "regime"
and "error" are strings, and "sweep" may be None.

CSV output starts with '#'-prefixed header lines echoing every parameter
that affects the numbers, then a column-name row, then data rows with 12
significant digits, a cell with a comma or a double quote (as an error
text may have) quoted.  JSON output carries the same metadata plus full-
precision row values, with NaN written as the string "nan" and +-inf
as "inf" and "-inf".
"""

import csv
import io
import json
import math
from collections import namedtuple

Row = namedtuple("Row", "mode sweep tau gamma s validity regime error",
                 defaults=("", ""))
COLUMNS = Row._fields


def emit_csv(meta, rows):
    out = io.StringIO()
    out.writelines(f"# {key} = {val}\n" for key, val in meta)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    # 12 significant digits in the float columns (sweep may be None, an
    # empty cell); a NaN of either sign is "nan"
    writer.writerows((mode, sweep if sweep is None else "%.12g" % sweep,
                      "%.12g" % tau, "%.12g" % gamma, "%.12g" % s,
                      "%.12g" % validity, regime, error)
                     for mode, sweep, tau, gamma, s, validity, regime, error
                     in rows)
    return out.getvalue()


def _json_cell(value):
    # NaN and +-inf are not valid JSON; encode them as string markers
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    return value


def emit_json(meta, rows):
    doc = {
        "meta": dict(meta),
        "columns": list(COLUMNS),
        "rows": [[_json_cell(v) for v in row] for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def emit(meta, rows, format):
    if format == "csv":
        return emit_csv(meta, rows)
    if format == "json":
        return emit_json(meta, rows)
    raise ValueError(f"unknown output format {format!r}")
