"""Schema-versioned JSON artifacts: one emitter for every result file.

Benchmarks, gate baselines, and campaign summaries used to write ad-hoc
JSON with no provenance; every file this module writes carries a
``schema`` stamp — ``{"name": <kind>, "version": <int>}`` — so readers
can validate what they are loading and migrations can bump versions per
kind instead of guessing from file shape.

``dump_json(path, kind, payload)`` wraps the payload::

    {"schema": {"name": kind, "version": 1}, ...payload...}

``load_json(path, kind=...)`` validates the stamp and returns the full
document.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["SCHEMA_VERSION", "dump_json", "load_json"]

SCHEMA_VERSION = 1


def dump_json(
    path: str | Path,
    kind: str,
    payload: dict,
    *,
    version: int = SCHEMA_VERSION,
    indent: int = 2,
) -> Path:
    """Write ``payload`` under a schema stamp; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": {"name": kind, "version": version}}
    doc.update({k: v for k, v in payload.items() if k != "schema"})
    path.write_text(json.dumps(doc, indent=indent, default=str) + "\n")
    return path


def load_json(
    path: str | Path,
    *,
    kind: str | None = None,
    max_version: int = SCHEMA_VERSION,
) -> dict:
    """Read a schema-stamped document, validating ``kind`` when given.

    ``max_version`` is the newest schema version the caller understands;
    kinds that migrated past the module-wide default pass their own
    ceiling (e.g. the kernel benchmark's per-kernel v2 layout).
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    schema = doc.get("schema")
    if schema is None:
        raise ValueError(f"{path}: missing schema stamp (expected kind {kind!r})")
    if kind is not None and schema.get("name") != kind:
        raise ValueError(
            f"{path}: schema kind {schema.get('name')!r} != expected {kind!r}"
        )
    if schema.get("version", 0) > max_version:
        raise ValueError(
            f"{path}: schema version {schema.get('version')} is newer than "
            f"this reader ({max_version})"
        )
    return doc
