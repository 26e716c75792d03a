"""Deterministic report serialization.

Reports are JSON with sorted keys and repr-exact floats, so a re-run from
the same config and seed is byte-identical.  CSV dumps always use '.' as
the decimal separator and '\\n' line endings regardless of locale.

The config digest takes SHA-256 from CPython's built-in module, not from
`hashlib`: importing `hashlib` loads OpenSSL's libcrypto, about 3.6 MB
resident, into every command for one 16-hex digest.  The digest is the
same SHA-256 either way.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__

# the built-in SHA-256 that hashlib falls back to without OpenSSL: the same
# digest, without mapping libcrypto into the process
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "canonical_json",
    "config_hash",
    "stamp",
    "write_report",
    "write_csv",
]


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and obj != obj:  # NaN has no JSON form
        return None
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_hash(config: dict) -> str:
    payload = json.dumps(_plain(config), sort_keys=True, separators=(",", ":"))
    return _sha256(payload.encode("utf-8")).hexdigest()[:16]


def stamp(report: dict, config: dict) -> dict:
    """Attach version and config hash; the result stays replay-identical
    because no wall-clock data is ever embedded."""
    out = dict(report)
    out["tool_version"] = __version__
    out["config_hash"] = config_hash(config)
    return out


def write_report(path, report: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(report), encoding="utf-8")
    return path


def write_csv(path, columns: dict) -> Path:
    """Write named columns (gnuplot-friendly layout: one header line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    arrays = [np.asarray(columns[n]).ravel() for n in names]
    n = max((len(a) for a in arrays), default=0)
    lines = [",".join(names)]
    for i in range(n):
        row = []
        for a in arrays:
            if i < len(a):
                v = a[i]
                row.append(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v))
            else:
                row.append("")
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path
