"""Reader for the JSON tables that spinzeno.tables.emit_json writes."""

import json

from spinzeno.tables import Row

NUMERIC = ("sweep", "tau", "gamma", "s", "validity")
MARKERS = ("nan", "inf", "-inf")    # the strings emit_json writes for them


def parse_json(text):
    """Inverse of emit_json: (meta, rows) with each row a Row; numeric
    fields round-trip exactly, NaN and +-inf from their string markers."""
    doc = json.loads(text)
    meta = tuple(sorted(doc["meta"].items()))
    rows = tuple(Row(**{col: float(val) if col in NUMERIC and val in MARKERS
                        else val for col, val in zip(doc["columns"], values)})
                 for values in doc["rows"])
    return meta, rows
