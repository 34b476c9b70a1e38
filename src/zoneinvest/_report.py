"""The one writer behind every report, sidecar and checkpoint file."""

from __future__ import annotations

import csv
import json
from pathlib import Path


def write_report(path, doc: dict, table=None, table_path=None) -> Path:
    """Write ``doc`` as sorted-key JSON to ``path`` and, if given, the
    ``table`` rows (header first) as CSV to ``table_path``, by default
    ``path`` with a ``.csv`` suffix.  Missing parent directories are
    created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if table is not None:
        table_path = path.with_suffix(".csv") if table_path is None else table_path
        with open(table_path, "w", newline="") as fh:
            csv.writer(fh).writerows(table)
    return path
