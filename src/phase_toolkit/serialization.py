"""Deterministic JSON and CSV codecs for the toolkit's value types.

A document is dicts, lists, strings, booleans, numbers, None and two complex
leaves: a complex scalar, written `[re, im]`, and a 1-D complex array, written
`[[re, im], ...]` in one `%` pass that CSV shares.  Floats get 17 significant
digits, so a round trip through text reproduces the binary value exactly, and
keys keep their order, so repeated runs are byte-for-byte identical.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .counterexamples import CounterexamplePair
from .criteria import CriterionReport
from .enumeration import Constraint, SolutionClass, SolutionSet
from .factorization import ZeroPair, ZeroPairSet
from .signals import Autocorrelation, Signal, acf_from_intensity_samples

_JSON_PAIR = "[%.17g, %.17g]"
_CSV_PAIR = "%.17g,%.17g"


def _format_pairs(values, pair: str, sep: str) -> str:
    """Each entry of a complex vector as `pair % (re, im)`, joined by `sep`, in one pass."""
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    return sep.join([pair] * (flat.size // 2)) % tuple(flat.tolist())


def dumps(value) -> str:
    """Serialize a document to deterministic JSON text."""
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}: {dumps(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, (complex, np.complexfloating)):
        return _JSON_PAIR % (value.real, value.imag)
    if isinstance(value, np.ndarray) and value.ndim == 1 and np.iscomplexobj(value):
        return "[" + _format_pairs(value, _JSON_PAIR, ", ") + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _complex_from(item) -> complex:
    if isinstance(item, (complex, np.complexfloating)):
        z = complex(item)
    elif isinstance(item, (list, tuple)) and len(item) == 2:
        z = complex(float(item[0]), float(item[1]))
    else:
        raise ValueError(f"expected a [re, im] pair, got {item!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"expected a pair of finite numbers, got {item!r}")
    return z


def _integer(value) -> int:
    """An integral number as `int`; a boolean, a fraction or a string is malformed."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise TypeError(f"expected an integer, got {value!r}")


def _flag(value) -> bool:
    """A JSON boolean as `bool`; a number or a string is malformed."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise TypeError(f"expected a boolean, got {value!r}")


@contextlib.contextmanager
def _reading(kind: str):
    """Report a missing key, a wrong type or a bad value as a malformed `kind` document."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from exc


def signal_to_dict(x: Signal) -> dict:
    return {"offset": x.offset, "values": x.values}


def signal_from_dict(data: dict) -> Signal:
    with _reading("signal"):
        values = [_complex_from(v) for v in data["values"]]
        return Signal(_integer(data["offset"]), values)


def acf_to_dict(acf: Autocorrelation) -> dict:
    return {"n": acf.support_len, "coeffs": acf.coeffs}


def acf_from_dict(data: dict) -> Autocorrelation:
    with _reading("autocorrelation"):
        n = _integer(data["n"])
        coeffs = [_complex_from(c) for c in data["coeffs"]]
    if len(coeffs) != 2 * n - 1:
        raise ValueError(
            f"autocorrelation for n={n} needs {2 * n - 1} coefficients, got {len(coeffs)}")
    return Autocorrelation(coeffs)


def acf_from_samples_dict(data: dict, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Autocorrelation:
    """`acf_from_intensity_samples` of a document's (omega, intensity) pairs."""
    with _reading("samples"):
        n, samples = _integer(data["n"]), [(float(w), float(v)) for w, v in data["samples"]]
    return acf_from_intensity_samples(samples, n, cfg)


def constraint_to_dict(c: Constraint) -> dict:
    return {"kind": c.kind, "index": c.index, "value": c.value}


def constraint_from_dict(data: dict) -> Constraint:
    with _reading("constraint"):
        return Constraint(str(data["kind"]), _integer(data["index"]), float(data["value"]))


def constraints_from_list(data) -> list:
    if not isinstance(data, list):
        raise ValueError("constraints document must be a JSON list")
    return [constraint_from_dict(d) for d in data]


def zero_pairs_to_dict(pairs: ZeroPairSet) -> dict:
    out = {"leading": pairs.leading,
           "pairs": [{"gamma": p.zero, "on_circle": p.on_circle, "mult": p.multiplicity}
                     for p in pairs.pairs]}
    if pairs.snapped:
        out["snapped"] = pairs.snapped
    return out


def _zero_pair_from(entry: dict) -> ZeroPair:
    zero, circled = _complex_from(entry["gamma"]), _flag(entry["on_circle"])
    mult = _integer(entry["mult"])
    if zero == 0 or mult < 1:
        raise ValueError(f"need a nonzero gamma and mult >= 1: {entry!r}")
    if circled and abs(abs(zero) - 1.0) > DEFAULT_CONFIG.circle_tol:
        raise ValueError(f"on-circle gamma {zero!r} is off the unit circle")
    return ZeroPair(zero, circled, mult)


def zero_pairs_from_dict(data: dict) -> ZeroPairSet:
    """The written pairs; `snapped`, 0 when absent, must be the count they give."""
    with _reading("zero pair"):
        pairs = ZeroPairSet(tuple(_zero_pair_from(entry) for entry in data["pairs"]),
                            _complex_from(data["leading"]))
        snapped = _integer(data.get("snapped", 0))
        if snapped != pairs.snapped:
            raise ValueError(f"snapped is {snapped}, but the pairs give {pairs.snapped}")
        return pairs


def solution_set_to_dict(solutions: SolutionSet) -> dict:
    # class values are trimmed canonical rows, a `Signal` at offset 0 as they stand
    classes = [{"mask": cls.mask, "signal": {"offset": 0, "values": cls.values}}
               for cls in solutions.classes]
    return {"classes": classes, "total_enumerated": solutions.total_enumerated}


def solution_set_from_dict(data: dict, modulo_reflection: bool = False) -> SolutionSet:
    with _reading("solution set"):
        classes = []
        for entry in data["classes"]:
            sig = signal_from_dict(entry["signal"])
            classes.append(SolutionClass(sig.values, tuple(map(_integer, entry["mask"]))))
        return SolutionSet(tuple(classes), _integer(data["total_enumerated"]),
                           modulo_reflection)


def report_to_dict(report: CriterionReport) -> dict:
    violations = [{"mask": list(v.mask), "residual": v.residual} for v in report.violations]
    return {"unique": report.unique, "equivalence": report.equivalence_kind,
            "violations": violations, "borderline": report.borderline}


def counterexample_to_dict(pair: CounterexamplePair) -> dict:
    shared = {"intensity": True, "moduli": pair.shared_moduli, "phases": pair.shared_phases}
    return {"x": signal_to_dict(pair.x), "y": signal_to_dict(pair.y), "shared": shared}


def counterexample_from_dict(data: dict) -> CounterexamplePair:
    with _reading("counterexample"):
        shared = data["shared"]
        return CounterexamplePair(signal_from_dict(data["x"]),
                                  signal_from_dict(data["y"]),
                                  _flag(shared["moduli"]), _flag(shared["phases"]))


def signal_to_csv(x: Signal) -> str:
    """Two columns re,im; one line per component in support order."""
    return _format_pairs(x.values, _CSV_PAIR, "\n") + "\n"


def signals_to_csv(signals) -> str:
    """Blank-line separated re,im blocks, one block per signal."""
    return "\n".join(signal_to_csv(s) for s in signals)
