import json
from types import SimpleNamespace

import numpy as np
import pytest

from phase_toolkit import (Constraint, Signal, autocorrelation,
                           enumerate_solutions, magnitude_counterexample,
                           check_magnitude_uniqueness, pairs_from_zeros)
from phase_toolkit.serialization import (acf_from_dict, acf_to_dict,
                                         constraint_from_dict,
                                         constraint_to_dict,
                                         constraints_from_list,
                                         counterexample_from_dict,
                                         counterexample_to_dict, dumps,
                                         report_to_dict, signal_from_dict,
                                         signal_to_csv, signal_to_dict,
                                         signals_to_csv,
                                         solution_set_from_dict,
                                         solution_set_to_dict,
                                         zero_pairs_from_dict,
                                         zero_pairs_to_dict)

from phase_toolkit.cli import _solution_text

from helpers import random_signal, random_zero_set


def test_signal_round_trip():
    rng = np.random.default_rng(55)
    x = Signal(-3, random_signal(rng, 6))
    doc = json.loads(dumps(signal_to_dict(x)))
    y = signal_from_dict(doc)
    assert y.offset == x.offset
    np.testing.assert_array_equal(y.values, x.values)  # lossless floats


def test_signal_dict_shape():
    doc = signal_to_dict(Signal(2, [1.0, 1.0j]))
    assert doc == {"offset": 2, "values": [[1.0, 0.0], [0.0, 1.0]]}


def test_signal_from_dict_rejects_garbage():
    with pytest.raises(ValueError, match="malformed"):
        signal_from_dict({"values": "nope"})
    with pytest.raises(ValueError, match="malformed"):
        signal_from_dict({"offset": 0})
    with pytest.raises(ValueError, match="malformed"):
        signal_from_dict({"offset": 0, "values": [[1.0]]})


def test_acf_round_trip():
    rng = np.random.default_rng(56)
    acf = autocorrelation(Signal(0, random_signal(rng, 5)))
    doc = json.loads(dumps(acf_to_dict(acf)))
    assert doc["n"] == 5
    back = acf_from_dict(doc)
    np.testing.assert_array_equal(back.coeffs, acf.coeffs)


def test_acf_from_dict_checks_length():
    with pytest.raises(ValueError):
        acf_from_dict({"n": 3, "coeffs": [[1.0, 0.0]] * 3})


def test_constraint_round_trip():
    c = Constraint("phase", 2, -1.25)
    assert constraint_from_dict(constraint_to_dict(c)) == c
    got = constraints_from_list([{"kind": "magnitude", "index": 0, "value": 2.0}])
    assert got == [Constraint("magnitude", 0, 2.0)]


def test_zero_pairs_round_trip():
    pairs = pairs_from_zeros([-2.0, -2.0, 3.0j], leading=1.5 + 0.5j)
    doc = json.loads(dumps(zero_pairs_to_dict(pairs)))
    assert "snapped" not in doc
    assert all(set(p) == {"gamma", "on_circle", "mult"} for p in doc["pairs"])
    back = zero_pairs_from_dict(doc)
    assert back.leading == pairs.leading
    assert len(back.pairs) == len(pairs.pairs)
    for a, b in zip(back.pairs, pairs.pairs):
        assert a.zero == b.zero
        assert a.multiplicity == b.multiplicity
        assert a.on_circle == b.on_circle
        assert a.reflected == pytest.approx(b.reflected)


def test_zero_pairs_snapped_field_round_trips():
    from phase_toolkit import associated_polynomial, find_roots, pair_roots

    poly = associated_polynomial(autocorrelation(Signal(0, [1.0, 1.0j])))
    pairs = pair_roots(find_roots(poly), leading=poly.leading)
    doc = zero_pairs_to_dict(pairs)
    assert doc["snapped"] == 2
    assert zero_pairs_from_dict(doc).snapped == 2


def test_solution_set_round_trip():
    sols = enumerate_solutions(pairs_from_zeros([-2.0], leading=2.0))
    doc = json.loads(dumps(solution_set_to_dict(sols)))
    assert doc["total_enumerated"] == 2
    assert [c["mask"] for c in doc["classes"]] == [[0], [1]]
    back = solution_set_from_dict(doc)
    assert back.total_enumerated == 2
    for a, b in zip(back.classes, sols.classes):
        assert a.mask == b.mask
        np.testing.assert_array_equal(a.values, b.values)
        assert not a.values.flags.writeable


def test_solution_writers_match_per_class_signals():
    # class values are trimmed rows at offset 0, so writing them as they stand
    # gives the text of one `Signal` per class
    rng = np.random.default_rng(808)
    zero_sets = [random_zero_set(rng, n) for n in range(1, 9)]
    zero_sets += [[1e-7, 1e-7, 2j, -1.5], [3e-5, 3e-5, 2j, -1.5], [2.0, 2.0, 0.5j],
                  [np.exp(0.3j), np.exp(-1.2j), -2.0, 1.5j], [-2.0, -3.0, -0.4]]
    for zeros in zero_sets:
        for modulo_reflection in (False, True):
            sols = enumerate_solutions(pairs_from_zeros(zeros, leading=1.0), modulo_reflection)
            signals = [cls.signal() for cls in sols.classes]
            want = {"classes": [{"mask": list(cls.mask), "signal": signal_to_dict(sig)}
                                for cls, sig in zip(sols.classes, signals)],
                    "total_enumerated": sols.total_enumerated}
            assert dumps(solution_set_to_dict(sols)) == dumps(want)
            csv = _solution_text(sols, SimpleNamespace(format="csv"))
            assert csv == signals_to_csv(signals)


def test_report_to_dict_keys():
    rep = check_magnitude_uniqueness([2.0, -0.5, 2.0j], 1, 4)
    doc = report_to_dict(rep)
    assert doc["unique"] is False
    assert doc["equivalence"] == "rotation"
    assert doc["violations"][0]["mask"] == [0, 1]
    assert doc["violations"][0]["residual"] < 1e-8
    assert doc["borderline"] is False


def test_counterexample_round_trip():
    pair = magnitude_counterexample(4, 2.0, 2.0)
    doc = json.loads(dumps(counterexample_to_dict(pair)))
    assert doc["shared"] == {"intensity": True, "moduli": True, "phases": False}
    back = counterexample_from_dict(doc)
    np.testing.assert_array_equal(back.x.values, pair.x.values)
    np.testing.assert_array_equal(back.y.values, pair.y.values)
    assert back.shared_moduli and not back.shared_phases


def test_dumps_is_deterministic_and_lossless():
    rng = np.random.default_rng(4242)
    x = Signal(0, random_signal(rng, 7))
    first = dumps(signal_to_dict(x))
    second = dumps(signal_to_dict(signal_from_dict(json.loads(first))))
    assert first == second
    # 17 significant digits survive a parse
    tricky = {"v": 0.1 + 0.2}
    assert json.loads(dumps(tricky))["v"] == 0.1 + 0.2


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"v": object()})


def test_signal_to_csv():
    text = signal_to_csv(Signal(0, [1.0, 1.0j]))
    lines = text.strip().splitlines()
    assert lines == ["1,0", "0,1"]


def test_signals_to_csv_blocks():
    a = Signal(0, [1.0, 2.0])
    b = Signal(0, [2.0, 1.0])
    text = signals_to_csv([a, b])
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].splitlines() == ["1,0", "2,0"]
    assert blocks[1].splitlines() == ["2,0", "1,0"]
