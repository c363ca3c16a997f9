import re

import numpy as np
import pytest

from phase_toolkit import (DEFAULT_CONFIG, CounterexamplePair, Signal,
                           canonicalize, enumerate_solutions, form_distance,
                           magnitude_counterexample, pairs_from_zeros,
                           phase_counterexample, synthesize,
                           verify_counterexample)
from phase_toolkit.counterexamples import _probe_grid, _verify_family

from helpers import (probe_grid, reference_phase_partners, reference_verify,
                     random_signal)

# trimmed zero sets: tiny zeros whose products fall below the trim level
TRIMMED_ZERO_SETS = ([-1e-7, -1e-7, -2.0], [-1e-9, -1e-9, -3.0, -2.0],
                     [-1e-7, -1e-7, -2.0, -5.0], [-1e-7, -2.0, -3.0],
                     [-1e-5, -1e-5, -2.0])


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
    for radii in ((2.0, np.inf), (np.nan, 2.0), (np.inf, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            magnitude_counterexample(5, *radii)


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
    for bad in (np.nan, -np.inf, complex(-2.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            phase_counterexample([-2.0, -3.0, bad])


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


def _assert_family_matches_reference(x, partners, probes):
    """Row kernel against one `reference_verify` per pair: three gaps exact,
    the intensity gap within 1e-12 peak^2, peak the larger modulus in x and y.

    For a pair that shares its intensity the gap measures rounding; for one
    that does not (trimmed zero sets), its rounding scales with the larger peak.
    """
    gaps = _verify_family(x, partners, DEFAULT_CONFIG, probes)
    assert all(gap.shape == (len(partners),) for gap in gaps.values())
    for i, y in enumerate(partners):
        peak = float(max(np.abs(x.values).max(), np.abs(y.values).max()))
        want = reference_verify(CounterexamplePair(x, y, False, False), DEFAULT_CONFIG, probes)
        assert list(gaps) == list(want)
        for key in ("modulus_gap", "phase_gap", "canonical_gap"):
            assert gaps[key][i] == want[key], (key, x.values, y.values)
        assert abs(gaps["intensity_gap"][i] - want["intensity_gap"]) <= 1e-12 * peak ** 2
    return len(partners)


def test_verify_family_matches_per_pair_reference():
    rng = np.random.default_rng(1404)
    extra = np.concatenate([_probe_grid(), rng.uniform(-np.pi, np.pi, 32)])
    pairs_checked = 0
    for n in range(3, 11):
        for _ in range(2):
            family = phase_counterexample(-np.exp(rng.uniform(-1.5, 1.5, size=n - 1)))
            for probes in (_probe_grid(), extra):
                pairs_checked += _assert_family_matches_reference(
                    family[0].x, [p.y for p in family], probes)
    for n in range(4, 10):
        pair = magnitude_counterexample(n, *rng.uniform(1.1, 4.0, size=2))
        for probes in (None, extra):
            got, want = verify_counterexample(pair, probes=probes), reference_verify(pair, probes=probes)
            assert {k: got[k] for k in want if k != "intensity_gap"} == \
                {k: want[k] for k in want if k != "intensity_gap"}
            peak = float(np.abs(pair.x.values).max())
            assert abs(got["intensity_gap"] - want["intensity_gap"]) <= 1e-12 * peak ** 2
    # supports of unequal length and offset
    x = Signal(3, random_signal(rng, 5))
    partners = [Signal(offset, random_signal(rng, size))
                for offset, size in ((-2, 4), (7, 5), (0, 6), (3, 5))]
    pairs_checked += _assert_family_matches_reference(x, partners, extra)
    # no partner of x's length: nothing is canonicalised
    pairs_checked += _assert_family_matches_reference(x, partners[:1], extra)
    # trimmed zero sets: the classes come in two support lengths
    lengths = set()
    for zeros in TRIMMED_ZERO_SETS:
        x = synthesize(zeros, np.prod(np.abs(zeros)))
        top_lag = complex(np.conj(x.values[0]) * x.values[-1])
        classes = enumerate_solutions(pairs_from_zeros(zeros, leading=top_lag),
                                      modulo_reflection=True).classes
        partners = [cls.signal() for cls in classes]
        lengths |= {y.support_len - x.support_len for y in partners}
        pairs_checked += _assert_family_matches_reference(x, partners, extra)
    assert lengths >= {0, 1}
    assert pairs_checked > 1000


def test_phase_counterexample_matches_per_class_reference():
    rng = np.random.default_rng(1405)
    zero_sets = [-np.exp(rng.uniform(-1.5, 1.5, size=n - 1)) for n in range(3, 11) for _ in range(3)]
    zero_sets += [[-2.0, -0.5], [-2.0, -2.0, -3.0], [-0.5, -0.5, -2.0, -4.0]]
    errors = 0
    for zeros in zero_sets + list(TRIMMED_ZERO_SETS):
        try:
            x, partners = reference_phase_partners(zeros)
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                phase_counterexample(zeros)
            errors += 1
            continue
        got = phase_counterexample(zeros)
        assert len(got) == len(partners), zeros
        for pair, y in zip(got, partners):
            assert pair.x.offset == x.offset and pair.x.values.tobytes() == x.values.tobytes()
            assert pair.y.offset == y.offset and pair.y.values.tobytes() == y.values.tobytes()
            assert pair.shared_phases and not pair.shared_moduli
    assert errors == 3
