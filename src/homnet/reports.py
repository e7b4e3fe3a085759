"""Analysis reports with byte-deterministic serialization.

Identical inputs must produce identical output bytes, so serialization never
relies on dict insertion order or platform float repr: keys are sorted,
floats are printed with 17 significant digits, exact values are printed as
integer or fraction strings.  JSON output writes non-finite floats as the
strings "inf", "-inf" and "nan".
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__


@dataclass
class AnalysisReport:
    command: str
    verdict: str  # "pass" | "fail" | "value" | "error"
    numbers: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict in ("pass", "value")


def provenance_for(digest):
    """Engine and SHA-256 digest of the analysed document's source."""
    return {"engine": f"homnet {__version__}", "input_sha256": digest}


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def jsonable(value):
    """Normalize a value tree to python scalars, lists and dicts."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, int, str, Fraction)) or value is None:
        return value
    # numpy values before the float test, since np.float64 subclasses
    # float; until numpy is imported no value can be one
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.ndarray):
            return [jsonable(v) for v in value.tolist()]
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.integer):
            return int(value)
    if isinstance(value, float):
        return value
    if hasattr(value, "comps"):  # bivectors serialize by components
        return [jsonable(v) for v in value.comps]
    return str(value)


def format_number(x):
    """Fixed number formatting: exact kinds as integer/fraction strings,
    floats with 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        if x == 0.0:
            x = 0.0  # collapse -0.0
        return format(x, ".17g")
    raise TypeError(f"not a number: {x!r}")


def _render(value, out):
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        text = format_number(value)
        out.append(text if math.isfinite(value) else f'"{text}"')
    elif isinstance(value, Fraction):
        out.append(f'"{value}"')
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for k, v in enumerate(value):
            if k:
                out.append(",")
            _render(v, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for k, key in enumerate(sorted(value, key=str)):
            if k:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _render(value[key], out)
        out.append("}")
    else:
        _render(jsonable(value), out)


def canonical_json(value):
    out = []
    _render(jsonable(value), out)
    return "".join(out)


def report_payload(report):
    return {
        "command": report.command,
        "verdict": report.verdict,
        "numbers": report.numbers,
        "residuals": report.residuals,
        "details": report.details,
        "provenance": report.provenance,
    }


def emit(reports, format="text"):
    """Serialize one report or a list of reports to bytes."""
    single = isinstance(reports, AnalysisReport)
    items = [reports] if single else list(reports)
    if format == "json":
        payload = report_payload(items[0]) if single else [
            report_payload(r) for r in items
        ]
        return (canonical_json(payload) + "\n").encode("utf-8")
    if format == "text":
        lines = []
        for r in items:
            lines.extend(_text_lines(r))
            lines.append("")
        return ("\n".join(lines).rstrip("\n") + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


def _fmt_scalar(v):
    if v is None:
        return "null"
    if isinstance(v, (bool, int, float, Fraction)):
        return format_number(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_scalar(x) for x in v) + "]"
    if isinstance(v, dict):
        inner = ", ".join(
            f"{k}: {_fmt_scalar(v[k])}" for k in sorted(v, key=str)
        )
        return "{" + inner + "}"
    return _fmt_scalar(jsonable(v))


def _text_lines(report):
    """The report's text block, formatted straight from its values:
    ``_fmt_scalar`` normalizes what it cannot print itself."""
    lines = [f"== {report.command}: {report.verdict.upper()} =="]
    for section_name, section in (
        ("numbers", report.numbers),
        ("residuals", report.residuals),
        ("details", report.details),
    ):
        if not section:
            continue
        lines.append(f"  {section_name}:")
        for key in sorted(section, key=str):
            lines.append(f"    {key} = {_fmt_scalar(section[key])}")
    prov = report.provenance
    if prov:
        lines.append(
            "  provenance: "
            + ", ".join(f"{k}={prov[k]}" for k in sorted(prov))
        )
    return lines
