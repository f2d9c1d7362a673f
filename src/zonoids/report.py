"""Report serialization shared by the CLI: canonical JSON, CSV tables, manifests.

JSON output is deterministic for a fixed configuration and seed: keys are
sorted and floats use Python's shortest round-trip representation, so a report
parses back to bit-identical numbers; a non-finite float is a quoted string.
The manifest timestamp is the single intentionally non-deterministic field.
"""
from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import platform
import sys

import numpy as np

_escape = json.encoder.encode_basestring_ascii


def _sequence(seq, nl: str) -> str:
    if not seq:
        return "[]"
    inner = nl + "  "
    if all(type(v) is float for v in seq) and all(map(math.isfinite, seq)):
        items = map(float.__repr__, seq)  # a table row or a float array: one join, no recursion
    else:
        items = (_encode(v, inner) for v in seq)
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _encode(obj, nl: str) -> str:
    """JSON text of ``obj``; ``nl`` is a newline plus the indent of the line ``obj`` starts on."""
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return "{" + inner + ("," + inner).join(
            f"{_escape(k)}: {_encode(v, inner)}" for k, v in items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        return _sequence(obj, nl)
    if isinstance(obj, np.ndarray):
        return _sequence(obj.tolist(), nl)
    if isinstance(obj, (np.floating, np.integer)):
        return _encode(obj.item(), nl)
    if isinstance(obj, complex):
        return _encode({"im": obj.imag, "re": obj.real}, nl)
    if isinstance(obj, float):  # a non-finite value is its quoted repr: "inf", "-inf" or "nan"
        return float.__repr__(obj) if math.isfinite(obj) else f'"{float.__repr__(obj)}"'
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_dumps(obj) -> str:
    """Canonical JSON text: keys sorted, two-space indent, ASCII-escaped strings.

    Arrays are written as nested lists, numpy scalars as their Python values and
    complex numbers as ``{"im", "re"}``; every non-finite float, whatever its type,
    is a quoted string, so strict JSON parsers read every report.  Apart from that
    quoting the text is ``json.dumps(obj, sort_keys=True, indent=2)`` of the
    plain-Python document.
    """
    return _encode(obj, "\n")


def _packed(obj):
    """``obj`` with every float array, or nested list of floats, replaced by a digest of its float64 bytes.

    Printing the floats of a law's atoms costs milliseconds per report; their
    bytes hash in microseconds.
    """
    if isinstance(obj, dict):
        return {k: _packed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        try:
            arr = np.asarray(obj)
        except ValueError:  # ragged
            return [_packed(v) for v in obj]
        if arr.dtype.kind != "f":
            return [_packed(v) for v in obj]
        return {"float64": hashlib.sha256(arr.astype("<f8").tobytes()).hexdigest(), "shape": list(arr.shape)}
    return obj


def config_hash(config: dict) -> str:
    return hashlib.sha256(json_dumps(_packed(config)).encode()).hexdigest()[:16]


def manifest(seed, config: dict) -> dict:
    import zonoids

    return {
        "seed": seed,
        "package_version": zonoids.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.system().lower(),
        "config_hash": config_hash(config),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_dumps(report))
        fh.write("\n")


def write_csv(path: str, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` as RFC-4180 CSV; a float is written as its ``repr``, through ``str``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # minimal quoting is RFC-4180 conformant
        writer.writerow(header)
        writer.writerows(rows)


def support_table_rows(grid, estimates):
    for u, e in zip(grid.directions, estimates):
        yield (*u.tolist(), e.value, e.std_error, e.n, e.exact)


def support_table_header(d: int) -> list[str]:
    return [f"u_{i + 1}" for i in range(d)] + ["value", "std_error", "n", "exact"]


def equivalence_report_json(report) -> dict:
    return {
        "verdict": report.verdict,
        "mode": report.mode,
        "tau": report.tau,
        "grid_size": len(report.grid),
        "grid_construction": report.grid.construction,
        "max_standardized_discrepancy": report.max_standardized,
        "max_abs_delta": report.max_abs_delta,
        "worst_direction": report.worst_direction,
        "common_random_numbers": report.crn,
        "extras": report.extras,
    }


def equivalence_rows(report):
    d = report.grid.dim
    header = [f"u_{i + 1}" for i in range(d)] + ["h_a", "h_b", "delta", "pooled_se"]
    return header, list(report.rows())
