"""Report bytes against a reference formatter kept here: the per-value
composition of ``format_number`` and the recursive text and JSON
formatters, written out plainly.  Ints past the interpreter's digit limit
are spelled through ``decimal``, never ``str``."""

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from homnet import reports

HUGE = 10**5000  # past sys.get_int_max_str_digits()


def ref_int(n):
    return str(Decimal(n))


def ref_number(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return ref_int(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return ref_int(x.numerator)
        return f"{ref_int(x.numerator)}/{ref_int(x.denominator)}"
    if x == 0.0:
        x = 0.0  # -0.0 prints as 0
    return format(x, ".17g")


def ref_text(v):
    if v is None:
        return "null"
    if isinstance(v, (bool, int, float, Fraction)):
        return ref_number(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(ref_text(x) for x in v) + "]"
    return "{" + ", ".join(f"{k}: {ref_text(v[k])}" for k in sorted(v, key=str)) + "}"


def ref_jsonable(v):
    if isinstance(v, dict):
        return {str(k): ref_jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [ref_jsonable(x) for x in v]
    return v


def ref_json(v):
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return ref_int(v)
    if isinstance(v, float):
        return ref_number(v) if math.isfinite(v) else f'"{ref_number(v)}"'
    if isinstance(v, Fraction):
        return f'"{ref_number(v)}"'
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, list):
        return "[" + ",".join(ref_json(x) for x in v) + "]"
    return "{" + ",".join(f"{json.dumps(k)}:{ref_json(v[k])}" for k in sorted(v)) + "}"


def ref_emit(report, format):
    if format == "json":
        payload = {
            "command": report.command, "verdict": report.verdict,
            "numbers": report.numbers, "residuals": report.residuals,
            "details": report.details, "provenance": report.provenance,
        }
        return (ref_json(ref_jsonable(payload)) + "\n").encode()
    lines = [f"== {report.command}: {report.verdict.upper()} =="]
    for name in ("numbers", "residuals", "details"):
        section = getattr(report, name)
        if section:
            lines.append(f"  {name}:")
            lines.extend(
                f"    {key} = {ref_text(section[key])}" for key in sorted(section, key=str)
            )
    prov = report.provenance
    if prov:
        lines.append("  provenance: " + ", ".join(f"{k}={prov[k]}" for k in sorted(prov)))
    return ("\n".join(lines).rstrip("\n") + "\n").encode()


@dataclass(frozen=True)
class Huge:
    """Stands for the int k * HUGE + k, or that over ``denominator``, in a
    drawn value: hypothesis prints its examples with repr, which refuses
    such an int, so ``materialize`` puts the number in inside the test."""

    k: int
    denominator: int = 0


def materialize(v):
    if isinstance(v, Huge):
        n = v.k * HUGE + v.k
        return Fraction(n, v.denominator) if v.denominator else n
    if isinstance(v, dict):
        return {k: materialize(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return type(v)(materialize(x) for x in v)
    return v


ks = st.sampled_from([-2, -1, 1, 2])
leaves = st.one_of(
    st.integers(),
    st.builds(Huge, ks),
    st.booleans(),
    st.fractions(),
    st.builds(Huge, ks, st.integers(1, 12)),
    st.floats(),  # nan and +-inf included
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    st.none(),
    st.text(max_size=6),
)
keys = st.one_of(st.text(max_size=3), st.integers(-3, 3))  # "1" and 1 may meet
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=20,
)
sections = st.dictionaries(keys, values, max_size=4)


@settings(deadline=None)
@given(sections, sections, sections)
def test_emit_matches_the_reference_formatter(numbers, residuals, details):
    report = reports.AnalysisReport(
        command="statics", verdict="value", numbers=materialize(numbers),
        residuals=materialize(residuals), details=materialize(details),
        provenance={"engine": "homnet", "input_sha256": "ab"},
    )
    for format in ("text", "json"):
        assert reports.emit(report, format) == ref_emit(report, format)
