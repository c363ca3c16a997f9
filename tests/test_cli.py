import io
import json
import warnings

import numpy as np
import pytest

from phase_toolkit import (Signal, autocorrelation, canonicalize,
                           enumerate_solutions, form_distance, fourier_intensity,
                           magnitude_counterexample, pairs_from_zeros,
                           phase_counterexample, recover, synthesize)
from phase_toolkit.cli import _verification_probes, main
from phase_toolkit.serialization import (constraints_from_list, dumps, signal_from_dict,
                                         signal_to_dict, solution_set_to_dict)

from helpers import probe_grid, reference_verify


def _write_signal(path, values, offset=0):
    path.write_text(dumps(signal_to_dict(Signal(offset, values))))
    return str(path)


def _write_acf(path, values):
    from phase_toolkit.serialization import acf_to_dict

    acf = autocorrelation(Signal(0, values))
    path.write_text(dumps(acf_to_dict(acf)))
    return str(path)


def _write_constraints(path, items):
    path.write_text(json.dumps(items))
    return str(path)


def test_analyze_all_on_circle(tmp_path, capsys):
    rc = main(["analyze", _write_signal(tmp_path / "s.json", [1.0, 1.0])])
    out = capsys.readouterr().out
    assert rc == 0
    assert "support length: 2" in out
    assert "on circle: 1" in out
    assert "1 up to rotation/shift" in out
    assert "ambiguous" not in out


def test_analyze_two_point_counts(tmp_path, capsys):
    rc = main(["analyze", _write_signal(tmp_path / "s.json", [1.0, 2.0])])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solution classes: 2 up to rotation/shift, 1 up to reflection as well" in out


def test_analyze_flags_modulus_ambiguity(tmp_path, capsys):
    pair = magnitude_counterexample(4, 2.0, 2.0)
    rc = main(["analyze", _write_signal(tmp_path / "s.json", pair.x.values)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all moduli: ambiguous" in out


def test_analyze_out_document(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = main(["analyze", _write_signal(tmp_path / "s.json", [1.0, 0.0, 2.0]),
               "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["n"] == 3
    assert {"autocorrelation", "zero_pairs", "class_count",
            "class_count_modulo_reflection", "criteria"} <= set(doc)
    assert all("gamma" in p for p in doc["zero_pairs"]["pairs"])


def _generating_zeros(rng, kind):
    """Four signal zeros whose associated polynomial has double roots."""
    def outside():
        return complex(rng.uniform(1.2, 3.0) * np.exp(1j * rng.uniform(-3.0, 3.0)))

    if kind == "three_on_circle":
        return [complex(np.exp(1j * a)) for a in rng.uniform(-np.pi, np.pi, 3)] + [outside()]
    if kind == "double_off_circle":
        z = outside()
        return [z, z, outside(), outside()]
    z = outside()
    return [z, 1.0 / z.conjugate(), outside(), outside()]


@pytest.mark.parametrize("kind", ["three_on_circle", "double_off_circle",
                                  "internal_reflected_pair"])
def test_analyze_pairs_the_signal_zeros(tmp_path, capsys, kind):
    # the pairs come from the signal's own zeros, so the double roots that
    # these zeros give the associated polynomial never need to be resolved
    rng = np.random.default_rng(15)
    for _ in range(10):
        zeros = _generating_zeros(rng, kind)
        x = synthesize(zeros, 1.0)
        out_path = tmp_path / "report.json"
        rc = main(["analyze", _write_signal(tmp_path / "s.json", x.values),
                   "--out", str(out_path)])
        capsys.readouterr()
        assert rc == 0, zeros
        doc = json.loads(out_path.read_text())
        pairs = pairs_from_zeros(zeros, leading=np.conj(x.values[0]) * x.values[-1])
        assert doc["class_count"] == len(enumerate_solutions(pairs))
        assert doc["class_count_modulo_reflection"] == len(
            enumerate_solutions(pairs, modulo_reflection=True))
        assert doc["zero_pairs"].get("snapped", 0) == pairs.snapped


def test_signal_documents_are_paired_from_their_zeros(tmp_path, capsys):
    # a doubled zero makes P's double roots hard to certify; every command
    # pairs a signal document from its own zeros and counts 12 and 6 classes
    zeros = [1.2763995236171732 + 0.8299610870419515j] * 2 + [
        -1.473354729578871 - 0.6153484178393258j, 1.250949180754609 + 0.47737765297488277j]
    path = _write_signal(tmp_path / "s.json", synthesize(zeros, 1.0).values)
    counts = []
    for flags in ([], ["--modulo-reflection"]):
        assert main(["enumerate", path, *flags]) == 0
        counts.append(len(json.loads(capsys.readouterr().out)["classes"]))
    out_path = tmp_path / "report.json"
    assert main(["analyze", path, "--out", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert counts == [doc["class_count"], doc["class_count_modulo_reflection"]] == [12, 6]


def test_enumerate_constant_intensity(tmp_path, capsys):
    src = tmp_path / "acf.json"
    src.write_text(json.dumps({"n": 1, "coeffs": [[1.0, 0.0]]}))
    rc = main(["enumerate", str(src)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["total_enumerated"] == 1
    assert doc["classes"][0]["signal"]["values"] == [[1.0, 0.0]]


def test_enumerate_classes_share_intensity(tmp_path, capsys):
    x = Signal(0, [1.0, 1.0j, -1.0])
    rc = main(["enumerate", _write_signal(tmp_path / "s.json", x.values)])
    out = capsys.readouterr().out
    assert rc == 0
    w = probe_grid(64)
    ref = fourier_intensity(x, w)
    for cls in json.loads(out)["classes"]:
        sig = signal_from_dict(cls["signal"])
        np.testing.assert_allclose(fourier_intensity(sig, w), ref,
                                   atol=1e-9 * np.max(ref))


def test_enumerate_modulo_reflection_flag(tmp_path, capsys):
    path = _write_signal(tmp_path / "s.json", [1.0, 2.0])
    main(["enumerate", path])
    full = json.loads(capsys.readouterr().out)
    main(["enumerate", path, "--modulo-reflection"])
    merged = json.loads(capsys.readouterr().out)
    assert len(full["classes"]) == 2
    assert len(merged["classes"]) == 1


def test_enumerate_output_is_canonical(tmp_path, capsys):
    rc = main(["enumerate", _write_signal(tmp_path / "s.json",
                                          [1.0, 2.0 - 1.0j, 0.5])])
    out = capsys.readouterr().out
    assert rc == 0
    for cls in json.loads(out)["classes"]:
        sig = signal_from_dict(cls["signal"])
        again = canonicalize(sig)
        assert form_distance(again, canonicalize(again.signal())) < 1e-12
        np.testing.assert_allclose(again.values, sig.values, atol=1e-12)


def test_enumerate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["enumerate", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err
    assert "malformed JSON" in err


def test_recover_exit_codes(tmp_path, capsys):
    acf_path = _write_acf(tmp_path / "acf.json", [1.0, 2.0])
    unique = _write_constraints(tmp_path / "c1.json",
                                [{"kind": "magnitude", "index": 1, "value": 2.0}])
    rc = main(["recover", acf_path, unique])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["classes"]) == 1
    assert doc["classes"][0]["signal"]["values"] == [[1.0, 0.0], [2.0, 0.0]]

    impossible = _write_constraints(tmp_path / "c2.json",
                                    [{"kind": "magnitude", "index": 1, "value": 7.0}])
    assert main(["recover", acf_path, impossible]) == 3
    capsys.readouterr()

    # all-positive family plus zero phases keeps several classes alive
    family = _write_acf(tmp_path / "acf2.json", [6.0, 5.0, 1.0])
    phases = _write_constraints(tmp_path / "c3.json",
                                [{"kind": "phase", "index": i, "value": 0.0}
                                 for i in range(3)])
    assert main(["recover", family, phases]) == 4
    capsys.readouterr()


def test_recover_reads_stdin(tmp_path, capsys, monkeypatch):
    from phase_toolkit.serialization import acf_to_dict

    acf = autocorrelation(Signal(0, [1.0, 2.0]))
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(acf_to_dict(acf))))
    cons = _write_constraints(tmp_path / "c.json",
                              [{"kind": "magnitude", "index": 0, "value": 1.0}])
    rc = main(["recover", "-", cons, "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().splitlines() == ["1,0", "2,0"]


def test_recover_from_intensity_samples(tmp_path, capsys):
    acf = autocorrelation(Signal(0, [1.0, 2.0]))
    w = np.linspace(-np.pi, np.pi, 7, endpoint=False)
    doc = {"n": 2, "samples": [[float(a), float(b)]
                               for a, b in zip(w, acf.intensity(w))]}
    src = tmp_path / "samples.json"
    src.write_text(json.dumps(doc))
    cons = _write_constraints(tmp_path / "c.json", [])
    rc = main(["recover", str(src), cons])
    out = capsys.readouterr().out
    assert rc == 4  # two classes remain without constraints
    assert len(json.loads(out)["classes"]) == 2


def test_counterexample_modulus(tmp_path, capsys):
    out_path = tmp_path / "pair.json"
    rc = main(["counterexample", "modulus", "--support", "4",
               "--split-radius", "2", "--repeated-radius", "2",
               "--out", str(out_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "modulus gap 0.000e+00" in captured.err
    doc = json.loads(out_path.read_text())
    assert doc["shared"] == {"intensity": True, "moduli": True, "phases": False}
    x = signal_from_dict(doc["x"])
    y = signal_from_dict(doc["y"])
    np.testing.assert_allclose(np.abs(x.values), np.abs(y.values), atol=1e-9)


def test_counterexample_phase(tmp_path, capsys):
    rc = main(["counterexample", "phase", "--zeros=-2,-3"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert isinstance(doc, list) and len(doc) == 1
    assert doc[0]["shared"]["phases"] is True


def test_counterexample_phase_rejects_circle_zeros(capsys):
    rc = main(["counterexample", "phase", "--zeros=-1,-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


def test_counterexample_requires_parameters(capsys):
    rc = main(["counterexample", "phase"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


def test_deterministic_output(tmp_path, capsys):
    path = _write_signal(tmp_path / "s.json", [1.0, 2.0 - 1.0j, 0.5j])
    main(["enumerate", path, "--seed", "7"])
    first = capsys.readouterr().out
    main(["enumerate", path, "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_env_tolerance_fallback(tmp_path, capsys, monkeypatch):
    acf_path = _write_acf(tmp_path / "acf.json", [1.0, 2.0])
    cons = _write_constraints(tmp_path / "c.json",
                              [{"kind": "magnitude", "index": 0, "value": 1.0}])
    monkeypatch.setenv("PHASE_TOOLKIT_TOL_ABS", "10.0")
    rc = main(["recover", acf_path, cons])
    capsys.readouterr()
    assert rc == 4  # sloppy tolerance keeps both classes
    # an explicit flag wins over the environment
    rc = main(["recover", acf_path, cons, "--tol-abs", "1e-9"])
    capsys.readouterr()
    assert rc == 0


def test_bad_env_tolerance_is_an_error(tmp_path, capsys, monkeypatch):
    acf_path = _write_acf(tmp_path / "acf.json", [1.0, 2.0])
    cons = _write_constraints(tmp_path / "c.json", [])
    monkeypatch.setenv("PHASE_TOOLKIT_TOL_ABS", "banana")
    rc = main(["recover", acf_path, cons])
    captured = capsys.readouterr()
    assert rc == 2
    assert "PHASE_TOOLKIT_TOL_ABS" in captured.err


def test_circle_tol_flag_snaps_a_near_circle_zero(tmp_path, capsys):
    path = _write_signal(tmp_path / "s.json", synthesize([1.00001j, 2.0, -1.5 + 0.5j], 1.0).values)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "(on circle: 0, snapped roots: 0)" in out
    assert "solution classes: 8 up to rotation/shift, 4 up to reflection as well" in out
    assert main(["analyze", path, "--circle-tol", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "(on circle: 1, snapped roots: 2)" in out
    assert "solution classes: 4 up to rotation/shift, 2 up to reflection as well" in out


def test_criterion_tol_flag_widens_the_equality_band(tmp_path, capsys):
    path = _write_signal(tmp_path / "s.json", synthesize([1.00001j, 2.0, -1.5 + 0.5j], 1.0).values)
    verdicts = {}
    for argv in ([], ["--criterion-tol", "10"]):
        assert main(["analyze", path, *argv]) == 0
        lines = capsys.readouterr().out.splitlines()[3:]
        verdicts[len(argv)] = [line.split(": ")[1].split(" ")[0] for line in lines]
    assert verdicts == {0: ["unique"] * 8, 2: ["ambiguous"] * 8}


def test_tol_rel_flag_widens_the_constraint_band(tmp_path, capsys):
    acf_path = _write_acf(tmp_path / "acf.json", [1.0, 2.0])
    cons = _write_constraints(tmp_path / "c.json",
                              [{"kind": "magnitude", "index": 0, "value": 1.0 + 1e-6}])
    assert main(["recover", acf_path, cons]) == 3
    capsys.readouterr()
    assert main(["recover", acf_path, cons, "--tol-rel", "1e-5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["classes"]) == 1
    assert abs(complex(*doc["classes"][0]["signal"]["values"][0])) == pytest.approx(1.0)


@pytest.mark.parametrize("flag, field", [
    ("--tol-abs", "atol"), ("--tol-rel", "rtol"),
    ("--circle-tol", "circle_tol"), ("--criterion-tol", "criterion_tol"),
])
def test_non_positive_tolerance_is_a_usage_error(tmp_path, capsys, flag, field):
    path = _write_signal(tmp_path / "s.json", [1.0, 2.0])
    rc = main(["analyze", path, flag, "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"{field} must be positive" in captured.err


def test_missing_file_is_usage_error(capsys):
    rc = main(["analyze", "/nonexistent/path.json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "cannot read" in captured.err


def test_csv_format_multiple_blocks(tmp_path, capsys):
    path = _write_signal(tmp_path / "s.json", [1.0, 2.0])
    rc = main(["enumerate", path, "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        assert all("," in line for line in block.splitlines())


@pytest.mark.parametrize("command, document", [
    ("enumerate", {"offset": 0, "values": [[1.0, 0.0], [float("nan"), 0.0]]}),
    ("enumerate", {"offset": 0, "values": [[1.0, 0.0], [2.0, float("inf")]]}),
    ("enumerate", {"n": 2, "coeffs": [[6, 0], [float("nan"), 0], [6, 0]]}),
    ("enumerate", {"n": 2, "samples": [[0.0, 25.0], [2.0, float("nan")], [4.0, 9.0]]}),
    ("recover", [{"kind": "phase", "index": 0, "value": float("nan")}]),
], ids=["signal-nan", "signal-inf", "coeffs-nan", "samples-nan", "constraint-nan"])
def test_non_finite_input_is_rejected(tmp_path, capsys, command, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    if command == "recover":
        argv = ["recover", _write_acf(tmp_path / "acf.json", [1.0, 2.0]), str(path)]
    else:
        argv = ["enumerate", str(path)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert "finite" in captured.err


@pytest.mark.parametrize("command", ["analyze", "enumerate"])
def test_overflowing_autocorrelation_is_rejected(tmp_path, capsys, command):
    # finite values whose autocorrelation overflows to inf
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"offset": 0, "values": [[1e160, 0], [2e160, 0], [1e160, 5e159]]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: autocorrelation coefficients must be finite" in captured.err
    assert caught == []


@pytest.mark.parametrize("values, classes", [
    (None, 2), ([6e153, 3e153, 1e153], 4), ([5e153, 4e153j, 2e153], 4),
], ids=["coeffs-1e308", "real-6e153", "complex-5e153"])
def test_autocorrelations_near_the_float_limit_are_factored(tmp_path, capsys, values, classes):
    # finite intensities whose polynomial values overflow unless P is scaled first
    path = tmp_path / "big.json"
    if values is None:
        path.write_text(json.dumps({"n": 2, "coeffs": [[4e307, 0], [1e308, 0], [4e307, 0]]}))
    else:
        _write_acf(path, values)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["enumerate", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.err, caught) == (0, "", [])
    assert len(json.loads(captured.out)["classes"]) == classes


@pytest.mark.parametrize("modulo_reflection", [False, True])
def test_signal_documents_run_the_library_recover(tmp_path, capsys, modulo_reflection):
    values = np.random.default_rng(4242).normal(size=6) + 1j
    path = _write_signal(tmp_path / "sig.json", values)
    signal = signal_from_dict(json.loads((tmp_path / "sig.json").read_text()))
    flag = ["--modulo-reflection"] if modulo_reflection else []
    items = [{"kind": "phase", "index": 2, "value": float(np.angle(values[2]))}]
    for argv, constraints in ((["enumerate", path], []),
                              (["recover", path, _write_constraints(tmp_path / "c.json", items)],
                               items)):
        rc = main(argv + flag)
        want = recover(signal, constraints_from_list(constraints),
                       modulo_reflection=modulo_reflection)
        assert capsys.readouterr().out == dumps(solution_set_to_dict(want)) + "\n"
        # one interior phase leaves several classes, so `recover` exits 4
        assert len(want) > 1
        assert rc == (0 if argv[0] == "enumerate" else 4)


def test_unparsable_constraint_value_is_malformed(tmp_path, capsys):
    path = _write_constraints(tmp_path / "c.json",
                              [{"kind": "magnitude", "index": 0, "value": "abc"}])
    rc = main(["recover", _write_acf(tmp_path / "acf.json", [1.0, 2.0]), path])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: malformed constraint document:" in captured.err


def _samples_of(values, count=7):
    acf = autocorrelation(Signal(0, values))
    w = np.linspace(-np.pi, np.pi, count, endpoint=False)
    return [[float(a), float(b)] for a, b in zip(w, acf.intensity(w))]


@pytest.mark.parametrize("command, document", [
    ("recover", [{"kind": "magnitude", "index": 0.9, "value": 1.0}]),
    ("recover", [{"kind": "magnitude", "index": True, "value": 2.0}]),
    ("enumerate", {"offset": 2.9, "values": [[1.0, 0.0], [2.0, 0.0]]}),
    ("enumerate", {"n": 2.5, "coeffs": [[2, 0], [5, 0], [2, 0]]}),
    ("enumerate", {"n": 2.5, "samples": _samples_of([1.0, 2.0])}),
], ids=["index-fraction", "index-bool", "offset-fraction", "coeffs-n-fraction",
        "samples-n-fraction"])
def test_non_integer_integers_are_rejected(tmp_path, capsys, command, document):
    # int() used to truncate each of these and run on the truncated value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    if command == "recover":
        argv = ["recover", _write_acf(tmp_path / "acf.json", [1.0, 2.0]), str(path)]
    else:
        argv = ["enumerate", str(path)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "expected an integer" in captured.err


def test_counterexample_phase_rejects_complex_zeros(capsys):
    rc = main(["counterexample", "phase", "--zeros=-2+0j,-3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "bad --zeros list" in captured.err


@pytest.mark.parametrize("argv", [
    ["counterexample", "phase", "--zeros=-2,-3,nan"],
    ["counterexample", "phase", "--zeros=-2,-3,-inf"],
    ["counterexample", "modulus", "--support", "5", "--repeated-radius", "inf"],
    ["counterexample", "modulus", "--support", "5", "--split-radius", "nan"],
], ids=["phase-nan", "phase-inf", "modulus-inf", "modulus-nan"])
def test_counterexample_rejects_non_finite_arguments(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("zeros, seed", [
    ([-2.0, -3.0, -0.4, -5.0, -0.25], 11),
    ([-2.0, -3.0, -0.4], None),
])
def test_counterexample_reports_every_pair(capsys, zeros, seed):
    argv = ["counterexample", "phase", "--zeros=" + ",".join(map(str, zeros))]
    rc = main(argv + ([] if seed is None else ["--seed", str(seed)]))
    lines = capsys.readouterr().err.splitlines()
    assert rc == 0
    pairs = phase_counterexample(zeros)
    assert len(lines) == len(pairs)
    peak = float(np.abs(pairs[0].x.values).max())
    for idx, (line, pair) in enumerate(zip(lines, pairs)):
        want = reference_verify(pair, probes=_verification_probes(seed))
        label, fields = line.split(": ", 1)
        got = dict(field.rsplit(" ", 1) for field in fields.split(", "))
        assert label == f"pair {idx}"
        assert list(got) == ["intensity gap", "modulus gap", "phase gap", "canonical gap"]
        assert abs(float(got.pop("intensity gap")) - want["intensity_gap"]) <= 1e-12 * peak ** 2
        assert got == {key: f"{want[key.replace(' ', '_')]:.3e}" for key in got}
