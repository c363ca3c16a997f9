"""Deterministic JSON and CSV codecs for the toolkit's value types.

Floats are written with 17 significant digits so every round trip through
text reproduces the binary value exactly.  Documents are emitted with a
fixed key order, making repeated runs byte-for-byte identical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .counterexamples import CounterexamplePair
from .criteria import CriterionReport
from .enumeration import Constraint, SolutionClass, SolutionSet
from .factorization import ZeroPair, ZeroPairSet
from .signals import Autocorrelation, CanonicalForm, Signal


def _format_float(value) -> str:
    return format(float(value), ".17g")


def dumps(value) -> str:
    """Serialize nested dict/list/scalar data to deterministic JSON text."""
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}: {dumps(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in value) + "]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _complex_from(item) -> complex:
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise ValueError(f"expected a [re, im] pair, got {item!r}")
    z = complex(float(item[0]), float(item[1]))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"expected a pair of finite numbers, got {item!r}")
    return z


def signal_to_dict(x: Signal) -> dict:
    return {"offset": int(x.offset), "values": [_pair(v) for v in x.values]}


def signal_from_dict(data: dict) -> Signal:
    try:
        values = [_complex_from(v) for v in data["values"]]
        return Signal(int(data["offset"]), values)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed signal document: {exc}") from exc


def acf_to_dict(acf: Autocorrelation) -> dict:
    return {"n": acf.support_len, "coeffs": [_pair(c) for c in acf.coeffs]}


def acf_from_dict(data: dict) -> Autocorrelation:
    try:
        n = int(data["n"])
        coeffs = [_complex_from(c) for c in data["coeffs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed autocorrelation document: {exc}") from exc
    if len(coeffs) != 2 * n - 1:
        raise ValueError(
            f"autocorrelation for n={n} needs {2 * n - 1} coefficients, got {len(coeffs)}")
    return Autocorrelation(coeffs)


def constraint_to_dict(c: Constraint) -> dict:
    return {"kind": c.kind, "index": c.index, "value": c.value}


def constraint_from_dict(data: dict) -> Constraint:
    try:
        return Constraint(str(data["kind"]), int(data["index"]), float(data["value"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed constraint document: {exc}") from exc


def constraints_from_list(data) -> list:
    if not isinstance(data, list):
        raise ValueError("constraints document must be a JSON list")
    return [constraint_from_dict(d) for d in data]


def zero_pairs_to_dict(pairs: ZeroPairSet) -> dict:
    out = {
        "leading": _pair(pairs.leading),
        "pairs": [{"gamma": _pair(p.zero), "on_circle": bool(p.on_circle),
                   "mult": int(p.multiplicity)} for p in pairs.pairs],
    }
    if pairs.snapped:
        out["snapped"] = int(pairs.snapped)
    return out


def zero_pairs_from_dict(data: dict) -> ZeroPairSet:
    try:
        leading = _complex_from(data["leading"])
        entries = data["pairs"]
        pairs = []
        for entry in entries:
            zero = _complex_from(entry["gamma"])
            circled = bool(entry["on_circle"])
            reflected = zero if circled else 1.0 / zero.conjugate()
            pairs.append(ZeroPair(zero, reflected, circled, int(entry["mult"])))
        return ZeroPairSet(tuple(pairs), leading, int(data.get("snapped", 0)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed zero pair document: {exc}") from exc


def solution_set_to_dict(solutions: SolutionSet) -> dict:
    # class values are trimmed canonical rows, a `Signal` at offset 0 as they stand
    classes = [{"mask": [int(m) for m in cls.mask],
                "signal": {"offset": 0, "values": [_pair(v) for v in cls.values]}}
               for cls in solutions.classes]
    return {"classes": classes, "total_enumerated": int(solutions.total_enumerated)}


def solution_set_from_dict(data: dict, modulo_reflection: bool = False) -> SolutionSet:
    try:
        classes = []
        for entry in data["classes"]:
            sig = signal_from_dict(entry["signal"])
            mask = tuple(int(m) for m in entry["mask"])
            classes.append(SolutionClass(CanonicalForm(sig.values), mask))
        return SolutionSet(tuple(classes), int(data["total_enumerated"]),
                           modulo_reflection)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed solution set document: {exc}") from exc


def report_to_dict(report: CriterionReport) -> dict:
    return {
        "unique": bool(report.unique),
        "equivalence": report.equivalence_kind,
        "violations": [{"mask": [int(i) for i in v.mask], "residual": float(v.residual)}
                       for v in report.violations],
        "borderline": bool(report.borderline),
    }


def counterexample_to_dict(pair: CounterexamplePair) -> dict:
    return {
        "x": signal_to_dict(pair.x),
        "y": signal_to_dict(pair.y),
        "shared": {"intensity": True, "moduli": bool(pair.shared_moduli),
                   "phases": bool(pair.shared_phases)},
    }


def counterexample_from_dict(data: dict) -> CounterexamplePair:
    try:
        shared = data["shared"]
        return CounterexamplePair(signal_from_dict(data["x"]),
                                  signal_from_dict(data["y"]),
                                  bool(shared["moduli"]), bool(shared["phases"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed counterexample document: {exc}") from exc


def signal_to_csv(x: Signal) -> str:
    """Two columns re,im; one line per component in support order."""
    lines = [f"{_format_float(v.real)},{_format_float(v.imag)}" for v in x.values]
    return "\n".join(lines) + "\n"


def signals_to_csv(signals) -> str:
    """Blank-line separated re,im blocks, one block per signal."""
    return "\n".join(signal_to_csv(s) for s in signals)
