"""Reader for the JSON tables that spinzeno.tables.emit_json writes."""

import json
import math

from spinzeno.tables import ResultTable


def parse_json(text):
    """Inverse of emit_json; numeric fields round-trip exactly."""
    doc = json.loads(text)
    meta = tuple(sorted(doc["meta"].items()))
    rows = []
    for values in doc["rows"]:
        row = {}
        for col, val in zip(doc["columns"], values):
            if val == "nan" and col in ("tau", "gamma", "s", "validity", "sweep"):
                val = math.nan
            row[col] = val
        rows.append(row)
    return ResultTable(meta=meta, rows=tuple(rows))
