import numpy as np
import pytest

from phase_toolkit import (CounterexamplePair, Signal, canonicalize,
                           form_distance, magnitude_counterexample,
                           phase_counterexample, verify_counterexample)

from helpers import probe_grid


def test_magnitude_pair_smallest_case():
    pair = magnitude_counterexample(4, 2.0, 2.0)
    # expansion of (w-2)(w+1/2)(w-2i) and (w-1/2)(w+2)(w-2i)
    np.testing.assert_allclose(pair.x.values, [2j, -1 + 3j, -1.5 - 2j, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(pair.y.values, [2j, -1 - 3j, 1.5 - 2j, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(np.abs(pair.x.values),
                               [2.0, np.sqrt(10.0), 2.5, 1.0], atol=1e-12)
    assert pair.shared_moduli and not pair.shared_phases


def test_magnitude_pair_defining_properties():
    for n in (4, 5, 6, 8):
        for r1, r2 in ((1.5, 2.0), (3.0, 1.5), (2.0, 2.0)):
            pair = magnitude_counterexample(n, r1, r2)
            assert pair.x.support_len == n
            assert pair.y.support_len == n
            scale = float(np.max(np.abs(pair.x.values)))
            np.testing.assert_allclose(np.abs(pair.x.values),
                                       np.abs(pair.y.values),
                                       rtol=1e-9, atol=1e-12 * scale)
            report = verify_counterexample(pair)
            assert report["intensity_gap"] < 1e-7 * scale ** 2
            assert report["modulus_gap"] < 1e-9 * scale
            assert report["canonical_gap"] > 1e-3 * scale


def test_magnitude_pair_parameter_domain():
    with pytest.raises(ValueError, match="support length"):
        magnitude_counterexample(3, 2.0, 2.0)
    with pytest.raises(ValueError, match="exceed 1"):
        magnitude_counterexample(4, 1.0, 2.0)
    with pytest.raises(ValueError, match="exceed 1"):
        magnitude_counterexample(4, 2.0, 0.5)


def test_phase_pair_two_real_zeros():
    pairs = phase_counterexample([-2.0, -3.0])
    assert len(pairs) == 1
    pair = pairs[0]
    np.testing.assert_allclose(pair.x.values, [6.0, 5.0, 1.0], atol=1e-9)
    # the partner is the {-1/2, -3} selection, up to conjugate reflection
    got = sorted(np.abs(pair.y.values))
    np.testing.assert_allclose(got, sorted(2.0 * np.array([1.5, 3.5, 1.0])),
                               atol=1e-9)
    assert pair.shared_phases and not pair.shared_moduli
    report = verify_counterexample(pair)
    assert report["intensity_gap"] < 1e-9 * 36.0
    assert report["phase_gap"] < 1e-9
    assert report["canonical_gap"] > 1e-3


def test_phase_pairs_all_nonnegative():
    rng = np.random.default_rng(808)
    for trial in range(5):
        count = int(rng.integers(2, 6))
        zeros = sorted(-np.exp(rng.uniform(-1.2, 1.2, size=count)))
        zeros = [z if abs(abs(z) - 1.0) > 0.05 else z * 1.1 for z in zeros]
        if sum(1 for z in zeros if abs(abs(z) - 1.0) > 1e-8) < 2:
            continue
        pairs = phase_counterexample(zeros)
        assert pairs
        for pair in pairs:
            for sig in (pair.x, pair.y):
                v = sig.values
                scale = float(np.max(np.abs(v)))
                assert np.max(np.abs(v.imag)) <= 1e-9 * scale
                assert np.min(v.real) >= -1e-9 * scale
            assert verify_counterexample(pair)["canonical_gap"] > 1e-6


def test_phase_pair_reflected_zero_pair_still_ambiguous():
    # {-2, -1/2} is a reflected pair, yet the doubled selection {-2, -2}
    # shares the intensity and every phase, a genuine third class
    pairs = phase_counterexample([-2.0, -0.5])
    assert len(pairs) == 1
    report = verify_counterexample(pairs[0])
    assert report["intensity_gap"] < 1e-9
    assert report["phase_gap"] < 1e-9
    assert report["canonical_gap"] > 1e-3


def test_phase_pair_rejects_bad_zero_sets():
    with pytest.raises(ValueError, match="no nontrivial ambiguity"):
        phase_counterexample([-1.0, -1.0])
    with pytest.raises(ValueError, match="negative"):
        phase_counterexample([2.0, -3.0])
    with pytest.raises(ValueError, match="negative"):
        phase_counterexample([-2.0 + 1.0j, -3.0])
    with pytest.raises(ValueError, match="no nontrivial ambiguity"):
        phase_counterexample([-2.0, -1.0])


def test_phase_pair_support_len_must_match():
    with pytest.raises(ValueError):
        phase_counterexample([-2.0, -3.0], support_len=4)
    pairs = phase_counterexample([-2.0, -3.0], support_len=3)
    assert len(pairs) == 1


def test_verify_counterexample_custom_probes():
    pair = magnitude_counterexample(4, 2.0, 2.0)
    report = verify_counterexample(pair, probes=probe_grid(16))
    assert set(report) == {"intensity_gap", "modulus_gap", "phase_gap",
                           "canonical_gap"}
    assert report["intensity_gap"] < 1e-9


def test_verify_flags_a_non_pair():
    x = Signal(0, [1.0, 2.0])
    y = Signal(0, [1.0, 3.0])
    fake = CounterexamplePair(x, y, shared_moduli=False, shared_phases=True)
    report = verify_counterexample(fake)
    assert report["intensity_gap"] > 1.0


def test_counterexamples_are_not_reflections():
    pair = magnitude_counterexample(5, 2.0, 3.0)
    a = canonicalize(pair.x, modulo_reflection=True)
    b = canonicalize(pair.y, modulo_reflection=True)
    assert form_distance(a, b) > 1e-3


def test_verify_counterexample_wraps_phase_gap():
    # -1-0j and -1+0j are the same number with angles -pi and pi
    x = Signal(0, [complex(-1.0, -0.0), 2.0])
    y = Signal(0, [complex(-1.0, 0.0), 2.0])
    report = verify_counterexample(CounterexamplePair(x, y, True, True))
    assert report["phase_gap"] == 0.0
    pair = magnitude_counterexample(4, 2.0, 3.0)
    assert 2.70 < verify_counterexample(pair)["phase_gap"] <= np.pi
