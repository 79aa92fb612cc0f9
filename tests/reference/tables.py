"""Reader for the JSON tables that spinzeno.tables.emit_json writes."""

import json
import math

from spinzeno.tables import Row

NUMERIC = ("sweep", "tau", "gamma", "s", "validity")


def parse_json(text):
    """Inverse of emit_json: (meta, rows) with each row a Row; numeric
    fields round-trip exactly."""
    doc = json.loads(text)
    meta = tuple(sorted(doc["meta"].items()))
    rows = tuple(Row(**{col: math.nan if val == "nan" and col in NUMERIC
                        else val for col, val in zip(doc["columns"], values)})
                 for values in doc["rows"])
    return meta, rows
