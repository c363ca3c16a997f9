import numpy as np
import pytest

from phase_toolkit import (Autocorrelation, Signal, acf_from_intensity_samples,
                           autocorrelation, canonicalize, conjugate_reflect,
                           form_distance, fourier_intensity, fourier_transform,
                           rotate, shift)
from phase_toolkit.signals import _probe_intensity

from helpers import probe_grid, random_signal


def test_autocorrelation_small_example():
    acf = autocorrelation(Signal(0, [1.0, 2.0]))
    assert acf.support_len == 2
    np.testing.assert_allclose(acf.coeffs, [2.0, 5.0, 2.0], atol=1e-14)
    assert acf[0] == pytest.approx(5.0)
    assert acf[1] == pytest.approx(2.0)
    assert acf[-1] == pytest.approx(2.0)


def test_autocorrelation_conjugate_symmetric():
    rng = np.random.default_rng(101)
    for n in (1, 2, 5, 9):
        x = Signal(rng.integers(-3, 3), random_signal(rng, n))
        acf = autocorrelation(x)
        c = acf.coeffs
        assert c.size == 2 * n - 1
        center = c[n - 1]
        assert center.imag == 0.0
        assert center.real == pytest.approx(np.sum(np.abs(x.values) ** 2))
        np.testing.assert_allclose(c[::-1], np.conj(c), atol=1e-12)


def test_autocorrelation_ignores_offset():
    rng = np.random.default_rng(7)
    vals = random_signal(rng, 4)
    a = autocorrelation(Signal(0, vals))
    b = autocorrelation(Signal(-11, vals))
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-14)


def test_signal_trims_negligible_boundary():
    x = Signal(2, [1e-18, 1.0, 2.0, 1e-18])
    assert x.support_len == 2
    assert x.offset == 3
    np.testing.assert_allclose(x.values, [1.0, 2.0])


def test_signal_empty_support_rejected():
    with pytest.raises(ValueError):
        Signal(0, [0.0, 0.0])
    with pytest.raises(ValueError):
        Signal(0, [])


def test_autocorrelation_validation():
    with pytest.raises(ValueError):
        Autocorrelation([1.0, 2.0])  # even length
    with pytest.raises(ValueError):
        Autocorrelation([1.0, 1j, 1.0])  # center not real
    with pytest.raises(ValueError):
        Autocorrelation([1.0, 2.0, 3.0])  # not conjugate symmetric
    with pytest.raises(ValueError, match="must be finite"):
        Autocorrelation([np.inf, 1.0, np.inf])  # inf - inf would pass the symmetry test


def test_fourier_transform_respects_offset():
    rng = np.random.default_rng(3)
    vals = random_signal(rng, 5)
    w = probe_grid(32)
    base = fourier_transform(Signal(0, vals), w)
    moved = fourier_transform(Signal(4, vals), w)
    np.testing.assert_allclose(moved, base * np.exp(-1j * w * 4), atol=1e-12)


def test_intensity_equals_acf_transform():
    rng = np.random.default_rng(23)
    w = probe_grid(64)
    for n in range(1, 8):
        x = Signal(0, random_signal(rng, n))
        acf = autocorrelation(x)
        direct = np.abs(fourier_transform(x, w)) ** 2
        via_acf = acf.intensity(w)
        np.testing.assert_allclose(via_acf, direct, atol=1e-10 * acf[0])


def test_trivial_transforms_share_intensity():
    rng = np.random.default_rng(59)
    w = probe_grid(64)
    x = Signal(1, random_signal(rng, 6))
    ref = fourier_intensity(x, w)
    for y in (rotate(x, 1.234), shift(x, -3), conjugate_reflect(x)):
        np.testing.assert_allclose(fourier_intensity(y, w), ref,
                                   atol=1e-9 * np.max(ref))


def test_conjugate_reflect_involution():
    rng = np.random.default_rng(11)
    x = Signal(-2, random_signal(rng, 5))
    y = conjugate_reflect(conjugate_reflect(x))
    assert y.offset == x.offset
    np.testing.assert_allclose(y.values, x.values, atol=1e-14)


def test_canonical_form_strips_trivial_transforms():
    rng = np.random.default_rng(83)
    for trial in range(50):
        n = int(rng.integers(2, 8))
        x = Signal(0, random_signal(rng, n))
        y = shift(rotate(x, rng.uniform(-np.pi, np.pi)), int(rng.integers(-5, 5)))
        a = canonicalize(x)
        b = canonicalize(y)
        assert form_distance(a, b) < 1e-9
        # reflection is only folded in on request
        c = canonicalize(conjugate_reflect(x), modulo_reflection=True)
        d = canonicalize(x, modulo_reflection=True)
        assert form_distance(c, d) < 1e-9


def test_canonicalize_idempotent():
    rng = np.random.default_rng(4)
    x = Signal(0, random_signal(rng, 5))
    a = canonicalize(x)
    b = canonicalize(a.signal())
    assert form_distance(a, b) < 1e-12


def test_canonical_pivot_is_real_positive():
    rng = np.random.default_rng(40)
    x = Signal(0, random_signal(rng, 6))
    v = canonicalize(x).values
    peak = np.argmax(np.abs(v))
    assert v[peak].imag == pytest.approx(0.0, abs=1e-12)
    assert v[peak].real > 0


def test_canonical_pivot_lowest_index_wins_ties():
    v = canonicalize(Signal(0, [1j, -2.0, 2.0, 0.5])).values
    np.testing.assert_allclose(v, [-1j, 2.0, -2.0, -0.5], atol=1e-15)


def _scalar_before(a, b, band):
    for p, q in zip(a, b):
        if abs(p.real - q.real) > band:
            return p.real < q.real
        if abs(p.imag - q.imag) > band:
            return p.imag < q.imag
    return False


def test_reflection_choice_is_first_decisive_component():
    # the row-wise comparison agrees with a component-by-component scan
    from phase_toolkit import DEFAULT_CONFIG

    rng = np.random.default_rng(41)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        x = Signal(0, np.round(random_signal(rng, n), 1))
        base = canonicalize(x).values
        mirror = canonicalize(conjugate_reflect(x)).values
        scale = max(np.abs(base).max(), np.abs(mirror).max())
        want = _scalar_before(mirror, base, DEFAULT_CONFIG.tol(scale))
        form = canonicalize(x, modulo_reflection=True)
        assert form.reflected == want
        assert form.values.tobytes() == (mirror if want else base).tobytes()


def test_form_distance_length_mismatch():
    a = canonicalize(Signal(0, [1.0, 2.0]))
    b = canonicalize(Signal(0, [1.0, 2.0, 3.0]))
    assert form_distance(a, b) == np.inf


def test_acf_from_constant_samples():
    # constant intensity 1 at 2N-1 equispaced points is the delta correlation
    w = np.linspace(-np.pi, np.pi, 5, endpoint=False)
    acf = acf_from_intensity_samples([(wk, 1.0) for wk in w], 3)
    np.testing.assert_allclose(acf.coeffs, [0, 0, 1, 0, 0], atol=1e-12)


def test_acf_from_samples_two_point_signal():
    # |F(1,1)|^2 = 2 + 2cos(w) sampled at three equispaced points
    w = np.linspace(0, 2 * np.pi, 3, endpoint=False)
    vals = 2.0 + 2.0 * np.cos(w)
    acf = acf_from_intensity_samples(list(zip(w, vals)), 2)
    np.testing.assert_allclose(acf.coeffs, [1.0, 2.0, 1.0], atol=1e-12)


def test_acf_from_samples_round_trip():
    rng = np.random.default_rng(1234)
    for n in range(1, 11):
        x = Signal(0, random_signal(rng, n))
        acf = autocorrelation(x)
        # non-equispaced grid with a few extra consistency samples
        w = np.sort(rng.uniform(-np.pi, np.pi, size=2 * n + 2))
        samples = list(zip(w, acf.intensity(w)))
        got = acf_from_intensity_samples(samples, n)
        np.testing.assert_allclose(got.coeffs, acf.coeffs, atol=1e-8 * acf[0])


def test_acf_from_samples_equispaced_fast_path():
    rng = np.random.default_rng(77)
    x = Signal(0, random_signal(rng, 4))
    acf = autocorrelation(x)
    w = np.linspace(-np.pi, np.pi, 7, endpoint=False)
    got = acf_from_intensity_samples(list(zip(w, acf.intensity(w))), 4)
    np.testing.assert_allclose(got.coeffs, acf.coeffs, atol=1e-10 * acf[0])


def test_acf_from_samples_underdetermined():
    w = np.linspace(-np.pi, np.pi, 4, endpoint=False)
    with pytest.raises(ValueError, match="sample"):
        acf_from_intensity_samples([(wk, 1.0) for wk in w], 3)


def test_acf_from_samples_duplicate_nodes_rejected():
    samples = [(0.0, 4.0), (0.0, 4.0), (1.0, 1.0), (2.0, 0.5), (-1.0, 1.0)]
    with pytest.raises(ValueError):
        acf_from_intensity_samples(samples, 3)


def test_acf_from_samples_negative_rejected():
    w = np.linspace(-np.pi, np.pi, 3, endpoint=False)
    samples = [(w[0], 1.0), (w[1], -0.5), (w[2], 1.0)]
    with pytest.raises(ValueError, match="intensity"):
        acf_from_intensity_samples(samples, 2)


def test_acf_from_samples_negative_interpolant_rejected():
    # every sample of 1 + 1.8 cos w is at least 0.41, but the fitted
    # interpolant dips to -0.8 at w = pi
    w = np.array([-1.9, -0.7, 0.4, 1.5])
    samples = list(zip(w, 1.0 + 1.8 * np.cos(w)))
    with pytest.raises(ValueError, match="interpolant takes negative values"):
        acf_from_intensity_samples(samples, 2)


def test_probe_intensity_matches_direct_evaluation():
    # N = 300 has 599 lags, more than the 512 bins they fold into
    rng = np.random.default_rng(512)
    grid = np.linspace(-np.pi, np.pi, 512, endpoint=False) + 0.001
    for n in [*range(1, 41), 300]:
        acf = autocorrelation(Signal(0, random_signal(rng, n)))
        want = acf.intensity(grid)
        got = _probe_intensity(acf.coeffs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(acf.coeffs).sum(), n


def test_acf_from_samples_inconsistent_rejected():
    rng = np.random.default_rng(9)
    x = Signal(0, random_signal(rng, 3))
    acf = autocorrelation(x)
    w = np.linspace(-np.pi, np.pi, 9, endpoint=False)
    vals = acf.intensity(w)
    vals[0] += 0.5 * abs(acf[0])  # spoil one sample
    with pytest.raises(ValueError, match="inconsistent"):
        acf_from_intensity_samples(list(zip(w, vals)), 3)
