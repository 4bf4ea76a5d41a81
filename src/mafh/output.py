"""Deterministic CSV/JSON writers; ``mafh.cli`` is their only user.

Every file starts with ``# key=value`` metadata lines (config hash, seed,
normalization flag, tool version) so that results are traceable to the run
that produced them.  Floats are rendered with a fixed-width general format,
newlines are LF, encoding UTF-8: identical inputs give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__version__ = "0.1.0"

# The matched peak of the ambiguity surface is normalized to M_t (the raw
# subpulse sum is divided by Q).
NORMALIZATION = "matched-peak=M_t"


def fmt(value) -> str:
    """Render a scalar for CSV output."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def config_hash(doc: dict) -> str:
    """Short stable hash of a flat configuration dictionary."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def meta_lines(doc: dict, seed=None, extra: dict | None = None) -> list[str]:
    """Standard metadata header lines for an output file."""
    lines = [
        f"# tool_version={__version__}",
        f"# config_hash={config_hash(doc)}",
        f"# seed={seed if seed is not None else 'none'}",
        f"# normalization={NORMALIZATION}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}={fmt(value)}")
    return lines


def write_csv(path: str | Path, columns: dict, doc: dict, seed=None,
              extra: dict | None = None) -> None:
    """Write named columns as CSV with a metadata header."""
    names = list(columns)
    rows = zip(*[columns[n] for n in names]) if names else []
    out = meta_lines(doc, seed, extra)
    out.append(",".join(names))
    for row in rows:
        out.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def write_json(path: str | Path, payload: dict, doc: dict, seed=None,
               extra: dict | None = None) -> None:
    """Write a JSON document carrying the same metadata inline."""
    meta = {
        "tool_version": __version__,
        "config_hash": config_hash(doc),
        "seed": seed,
        "normalization": NORMALIZATION,
    }
    meta.update(extra or {})
    body = {"meta": meta, **payload}
    text = json.dumps(body, indent=2, sort_keys=False)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")
