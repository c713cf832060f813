"""Reference outputs stored per workload and input set, and the check against them.

An output document (JSON or SVG text) splits into its floating-point
numbers and its skeleton: the text with each float replaced by `#`.
Integers, names and structure stay in the skeleton and must match exactly.
Floats must agree within a stated tolerance:

* JSON: |got - ref| <= 1e-6 * (largest |ref| float in the document). A
  solver change of ~1e-15 passes; a wrong row, seed, grouping or
  coefficient moves values by orders of magnitude more and fails.
* SVG: |got - ref| <= 0.0101, one unit in the last printed place of the
  renderer's two-decimal coordinates. The SVG is drawn from the JSON
  document checked above, so the tight check is on that document.

Byte identity with the reference is reported beside the check, never as a
failure.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DIR = Path(__file__).resolve().parent / "references"
FLOAT = re.compile(r"-?\d+(?:\.\d+)?[eE][-+]?\d+|-?\d+\.\d+")
JSON_RTOL = 1e-6
SVG_ATOL = 0.0101
STORED_DIGITS = 10


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def split(text: str):
    """(skeleton, floats) of a document."""
    return FLOAT.sub("#", text), [float(tok) for tok in FLOAT.findall(text)]


def record(text: str) -> dict:
    skeleton, floats = split(text)
    return {
        "sha": _digest(text),
        "skeleton": _digest(skeleton),
        "floats": [float(f"{v:.{STORED_DIGITS}g}") for v in floats],
    }


def check(kind: str, text: str, ref: dict):
    """(matches within tolerance, byte-identical, reason if not matching)."""
    if _digest(text) == ref["sha"]:
        return True, True, ""
    skeleton, floats = split(text)
    if _digest(skeleton) != ref["skeleton"]:
        return False, False, f"{kind} structure differs from the reference"
    want = ref["floats"]
    if len(floats) != len(want):
        return False, False, f"{kind} has {len(floats)} floats, reference {len(want)}"
    if kind == "json":
        tol = JSON_RTOL * max((abs(v) for v in want), default=0.0)
    else:
        tol = SVG_ATOL
    for i, (got, ref_v) in enumerate(zip(floats, want)):
        if abs(got - ref_v) > tol:
            return False, False, f"{kind} float {i}: {got!r} vs reference {ref_v!r} (tol {tol:.3g})"
    return True, False, ""


def load(workload: str) -> dict:
    with open(DIR / f"{workload}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def save(workload: str, doc: dict) -> None:
    DIR.mkdir(exist_ok=True)
    with open(DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
