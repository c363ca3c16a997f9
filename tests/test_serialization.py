import json
from types import SimpleNamespace

import numpy as np
import pytest

from phase_toolkit import (Constraint, Signal, associated_polynomial, autocorrelation,
                           check_magnitude_uniqueness, check_phase_uniqueness_endpoint,
                           enumerate_solutions, find_roots, magnitude_counterexample,
                           pair_roots, pairs_from_zeros, phase_counterexample)
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

from helpers import random_signal, random_zero_set, reference_csv, reference_dumps


def _writer_zero_sets():
    """Zero sets whose classes fall into several support lengths, and generic ones."""
    rng = np.random.default_rng(808)
    zero_sets = [random_zero_set(rng, n) for n in range(1, 9)]
    return zero_sets + [[1e-7, 1e-7, 2j, -1.5], [3e-5, 3e-5, 2j, -1.5], [2.0, 2.0, 0.5j],
                        [np.exp(0.3j), np.exp(-1.2j), -2.0, 1.5j], [-2.0, -3.0, -0.4]]


def _edge_signal():
    """Interior -0.0, 5e-324, 0.1 + 0.2, 1e16 and integral floats under the largest peak."""
    return Signal(-2, [1.7976931348623157e308, -0.0, 5e-324, 0.1 + 0.2, 1e16, 3.0,
                       complex(-0.0, 2.0), complex(0.1 + 0.2, -0.0), 1.7976931348623157e308])


def test_signal_round_trip():
    rng = np.random.default_rng(55)
    x = Signal(-3, random_signal(rng, 6))
    doc = json.loads(dumps(signal_to_dict(x)))
    y = signal_from_dict(doc)
    assert y.offset == x.offset
    np.testing.assert_array_equal(y.values, x.values)  # lossless floats


def test_signal_dict_shape():
    x = Signal(2, [1.0, 1.0j])
    doc = signal_to_dict(x)
    assert json.loads(dumps(doc)) == {"offset": 2, "values": [[1.0, 0.0], [0.0, 1.0]]}
    np.testing.assert_array_equal(doc["values"], x.values)


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
    for zeros in _writer_zero_sets():
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


def _reference_documents():
    """(name, document, signals written as CSV) for every document type."""
    rng = np.random.default_rng(1818)
    signals = [Signal(-3, random_signal(rng, 6)), Signal(-1, [1.0, -0.0, 5e-324, 0.1 + 0.2, 2.0j]),
               _edge_signal()]
    docs = [(f"signal{i}", signal_to_dict(x), [x]) for i, x in enumerate(signals)]
    docs.append(("scalars", {"v": 0.1 + 0.2, "z": complex(-0.0, 5e-324), "big": 1e16,
                             "peak": complex(1.7976931348623157e308, -0.0), "k": 3.0}, None))
    # the edge signal's autocorrelation would overflow
    docs += [(f"acf{i}", acf_to_dict(autocorrelation(x)), None) for i, x in enumerate(signals[:2])]
    poly = associated_polynomial(autocorrelation(Signal(0, [1.0, 1.0j])))
    zero_sets = {"plain": pairs_from_zeros([-2.0, -2.0, 3.0j], leading=1.5 + 0.5j),
                 "on_circle": pairs_from_zeros([np.exp(0.3j), 2.0 - 1.0j], leading=-0.0 + 2.0j),
                 "snapped": pair_roots(find_roots(poly), leading=poly.leading)}
    docs += [(f"zero_pairs_{k}", zero_pairs_to_dict(p), None) for k, p in zero_sets.items()]
    for i, zeros in enumerate(_writer_zero_sets()):
        for merged in (False, True):
            sols = enumerate_solutions(pairs_from_zeros(zeros, leading=1.0), merged)
            docs.append((f"solutions{i}_{merged}", solution_set_to_dict(sols), sols.classes))
    reports = [check_magnitude_uniqueness([2.0, -0.5, 2.0j], 1, 4),
               check_phase_uniqueness_endpoint([-2.0, -3.0, -0.4], 1, 4)]
    assert all(r.violations for r in reports)
    docs += [(f"report{i}", report_to_dict(r), None) for i, r in enumerate(reports)]
    pair = magnitude_counterexample(5, 2.0, 3.0)
    docs.append(("counterexample", counterexample_to_dict(pair), [pair.x, pair.y]))
    family = phase_counterexample([-2.0, -3.0, -0.4])
    docs.append(("counterexamples", [counterexample_to_dict(p) for p in family],
                 [family[0].x] + [p.y for p in family]))
    return [pytest.param(document, signals, id=name) for name, document, signals in docs]


@pytest.mark.parametrize("document, signals", _reference_documents())
def test_writers_match_the_per_value_reference(document, signals):
    assert dumps(document) == reference_dumps(document)
    if signals is not None:
        assert signals_to_csv(signals) == reference_csv(signals)
        assert all(signal_to_csv(s) == reference_csv([s]) for s in signals)


def test_dumps_writes_complex_leaves_and_refuses_real_arrays():
    assert dumps(complex(-0.0, 5e-324)) == "[-0, 4.9406564584124654e-324]"
    assert dumps(np.array([1.0 + 2.0j, 0.1 + 0.2])) == "[[1, 2], [0.30000000000000004, 0]]"
    assert dumps(np.array([], dtype=complex)) == "[]"
    with pytest.raises(TypeError):
        dumps(np.array([1.0, 2.0]))
    with pytest.raises(TypeError):
        dumps(np.ones((2, 2), dtype=complex))


def _dict_round_trips():
    pairs = pairs_from_zeros([np.exp(0.3j), -2.0, -2.0, 3.0j], leading=1.5 + 0.5j)
    sols = enumerate_solutions(pairs_from_zeros([-2.0, 1.5j, 0.5 - 3.0j], leading=2.0), True)
    acf = autocorrelation(Signal(-1, random_signal(np.random.default_rng(57), 5)))
    return [pytest.param(signal_to_dict, signal_from_dict, _edge_signal(), id="signal"),
            pytest.param(acf_to_dict, acf_from_dict, acf, id="acf"),
            pytest.param(zero_pairs_to_dict, zero_pairs_from_dict, pairs, id="zero_pairs"),
            pytest.param(solution_set_to_dict,
                         lambda doc: solution_set_from_dict(doc, modulo_reflection=True), sols,
                         id="solution_set"),
            pytest.param(counterexample_to_dict, counterexample_from_dict,
                         magnitude_counterexample(5, 2.0, 3.0), id="counterexample")]


@pytest.mark.parametrize("to_dict, from_dict, value", _dict_round_trips())
def test_dict_round_trip_is_bitwise(to_dict, from_dict, value):
    # 17 significant digits name one binary value, so equal text is equal bits
    doc = to_dict(value)
    assert reference_dumps(to_dict(from_dict(doc))) == reference_dumps(doc)


def _zero_pairs_doc(**entry):
    """The written pairs of an on-circle zero and of 2, the latter's entry updated."""
    pairs = pairs_from_zeros([np.exp(0.3j), 2.0], leading=1.0)
    doc = json.loads(dumps(zero_pairs_to_dict(pairs)))
    doc["pairs"][1].update(entry)
    return doc


def test_zero_pairs_reader_keeps_written_on_circle_pairs():
    back = zero_pairs_from_dict(_zero_pairs_doc())
    assert [p.on_circle for p in back.pairs] == [True, False]
    assert len(enumerate_solutions(back)) == 2


@pytest.mark.parametrize("entry", [{"gamma": [0, 0]}, {"mult": 0}, {"mult": -1},
                                   {"on_circle": "no"}, {"gamma": [5, 0], "on_circle": True},
                                   {"mult": 1.5}],
                         ids=["zero_gamma", "mult_0", "mult_negative", "on_circle_string",
                              "on_circle_off_the_circle", "mult_fraction"])
def test_zero_pairs_reader_rejects_malformed_pairs(entry):
    with pytest.raises(ValueError, match="malformed zero pair document"):
        zero_pairs_from_dict(_zero_pairs_doc(**entry))


@pytest.mark.parametrize("reader, doc", [
    (signal_from_dict, {"offset": 2.9, "values": [[1, 0]]}),
    (signal_from_dict, {"offset": True, "values": [[1, 0]]}),
    (signal_from_dict, {"offset": "1", "values": [[1, 0]]}),
    (acf_from_dict, {"n": 2.5, "coeffs": [[6, 0], [13, 0], [6, 0]]}),
    (constraint_from_dict, {"kind": "magnitude", "index": 0.9, "value": 1.0}),
    (constraint_from_dict, {"kind": "magnitude", "index": True, "value": 1.0}),
    (zero_pairs_from_dict, {"leading": [1, 0], "pairs": [], "snapped": 0.5}),
    (solution_set_from_dict, {"classes": [{"mask": [0.5], "signal": {"offset": 0,
                                                                       "values": [[1, 0]]}}],
                              "total_enumerated": 1}),
    (solution_set_from_dict, {"classes": [], "total_enumerated": 1.5}),
], ids=["offset_fraction", "offset_bool", "offset_string", "n_fraction", "index_fraction",
        "index_bool", "snapped_fraction", "mask_fraction", "total_fraction"])
def test_readers_reject_non_integer_integers(reader, doc):
    with pytest.raises(ValueError, match="malformed"):
        reader(doc)


def test_readers_accept_integral_floats():
    assert signal_from_dict({"offset": -2.0, "values": [[1, 0]]}).offset == -2
    assert constraint_from_dict({"kind": "phase", "index": 1.0, "value": 0.5}).index == 1
