"""Deterministic result rows and their CSV/JSON serializations.

A table is its metadata, ordered (key, value-string) pairs, and its rows,
each a `Row`: numeric cells are floats (nan allowed), "mode", "regime"
and "error" are strings, and "sweep" may be None.

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
from collections import namedtuple

Row = namedtuple("Row", "mode sweep tau gamma s validity regime error",
                 defaults=("", ""))
COLUMNS = Row._fields


def emit_csv(meta, rows):
    out = io.StringIO()
    out.writelines(f"# {key} = {val}\n" for key, val in meta)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    # 12 significant digits for a float: csv.writer writes None as an
    # empty cell; a NaN of either sign is "nan"
    writer.writerows(["%.12g" % v if isinstance(v, float) else v
                      for v in row] for row in rows)
    return out.getvalue()


def _json_cell(value):
    # NaN is not valid JSON; encode it as a string marker
    if isinstance(value, float) and math.isnan(value):
        return "nan"
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
