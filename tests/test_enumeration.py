import numpy as np
import pytest

from phase_toolkit import (Constraint, Signal, autocorrelation, canonicalize,
                           enumerate_solutions, filter_by_constraints,
                           form_distance, fourier_intensity, pairs_from_zeros,
                           recover, synthesize)

from helpers import (constraints_from_signal, probe_grid, random_signal,
                     random_zero_set)


def _pairs_of(values):
    from phase_toolkit import associated_polynomial, find_roots, pair_roots

    poly = associated_polynomial(autocorrelation(Signal(0, values)))
    return pair_roots(find_roots(poly), leading=poly.leading)


def test_synthesize_single_zero():
    x = synthesize([-0.5], 2.0)
    np.testing.assert_allclose(x.values, [1.0, 2.0], atol=1e-12)
    y = synthesize([-2.0], 2.0)
    np.testing.assert_allclose(y.values, [2.0, 1.0], atol=1e-12)
    z = synthesize([-1.0], 1.0)
    np.testing.assert_allclose(z.values, [1.0, 1.0], atol=1e-12)


def test_synthesize_empty_zero_set():
    x = synthesize([], 4.0)
    assert x.support_len == 1
    assert abs(x.values[0]) == pytest.approx(2.0)


def test_synthesize_rejects_origin_zero():
    with pytest.raises(ValueError):
        synthesize([0.0], 1.0)


def test_synthesize_autocorrelation_has_given_zeros():
    # the synthesized signal's top autocorrelation lag recovers the leading
    rng = np.random.default_rng(12)
    zeros = random_zero_set(rng, 3)
    lead = float(np.prod(np.abs(zeros)))
    x = synthesize(zeros, lead)
    assert x.support_len == 4
    top = np.conj(x.values[0]) * x.values[-1]
    assert abs(abs(top) - lead) < 1e-9 * lead


def test_synthesize_vieta_signs():
    # with rotation 0 the entries are amp * (-1)^l * S_l against the top index
    from phase_toolkit import elementary_symmetric

    rng = np.random.default_rng(42)
    zeros = random_zero_set(rng, 4)
    lead = float(np.prod(np.abs(zeros)))
    x = synthesize(zeros, lead)
    n = x.support_len
    amp = np.sqrt(lead / np.prod(np.abs(zeros)))
    for ell in range(n):
        expected = amp * (-1.0) ** ell * elementary_symmetric(zeros, ell)
        assert abs(x.values[n - 1 - ell] - expected) < 1e-9 * max(1.0, abs(expected))


def test_near_collisions_flag_fragile_class_counts():
    # a zero just off the circle gives two classes whose forms nearly coincide
    def enumerated(delta):
        return enumerate_solutions(pairs_from_zeros([1.0 + delta, 2.5j, -1.7 + 0.4j]))

    fragile = enumerated(3e-7)
    assert len(fragile) == 8
    assert fragile.near_collisions > 0
    separated = enumerated(1e-5)
    assert len(separated) == 8
    assert separated.near_collisions == 0


def test_enumerate_two_point_signal():
    sols = enumerate_solutions(_pairs_of([1.0, 2.0]))
    assert sols.total_enumerated == 2
    assert len(sols) == 2
    flat = sorted(tuple(np.round(c.values.real, 9)) for c in sols.classes)
    assert flat == [(1.0, 2.0), (2.0, 1.0)]
    merged = enumerate_solutions(_pairs_of([1.0, 2.0]), modulo_reflection=True)
    assert len(merged) == 1


def test_enumerate_counts_and_masks():
    rng = np.random.default_rng(90)
    zeros = random_zero_set(rng, 3)
    x = synthesize(zeros, float(np.prod(np.abs(zeros))))
    sols = enumerate_solutions(_pairs_of(x.values))
    assert sols.total_enumerated == 8
    assert len(sols) == 8
    masks = sorted(c.mask for c in sols.classes)
    assert masks == sorted({(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)})


def test_enumerate_class_bound_modulo_reflection():
    rng = np.random.default_rng(901)
    for trial in range(15):
        n = int(rng.integers(2, 8))
        x = Signal(0, random_signal(rng, n))
        sols = enumerate_solutions(_pairs_of(x.values), modulo_reflection=True)
        assert len(sols) <= max(1, 2 ** (n - 2))


def test_enumerated_classes_share_intensity():
    rng = np.random.default_rng(300)
    w = probe_grid(64)
    x = Signal(0, random_signal(rng, 6))
    acf = autocorrelation(x)
    ref = acf.intensity(w)
    sols = enumerate_solutions(_pairs_of(x.values))
    for cls in sols.classes:
        got = fourier_intensity(cls.signal(), w)
        np.testing.assert_allclose(got, ref, atol=1e-7 * acf[0].real)


def test_enumeration_contains_original():
    rng = np.random.default_rng(77)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        x = Signal(0, random_signal(rng, n))
        sols = enumerate_solutions(_pairs_of(x.values))
        target = canonicalize(x)
        gaps = [form_distance(c.canonical, target) for c in sols.classes]
        scale = float(np.max(np.abs(x.values)))
        assert min(gaps) < 1e-6 * scale


def test_all_on_circle_single_class():
    # x = (1, i, -1): P has only on-circle zeros so the class is unique
    sols = enumerate_solutions(_pairs_of([1.0, 1.0j, -1.0]))
    assert len(sols) == 1
    w = probe_grid(32)
    ref = fourier_intensity(Signal(0, [1.0, 1.0j, -1.0]), w)
    got = fourier_intensity(sols.classes[0].signal(), w)
    np.testing.assert_allclose(got, ref, atol=1e-9 * np.max(ref))


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint("modulus", 0, 1.0)  # unknown kind
    with pytest.raises(ValueError):
        Constraint("magnitude", 0, -1.0)  # negative magnitude
    Constraint("phase", 3, -2.0)  # negative phase value is fine


def test_filter_magnitude_keeps_matching_class():
    sols = enumerate_solutions(_pairs_of([1.0, 2.0]))
    kept = filter_by_constraints(sols, [Constraint("magnitude", 0, 1.0)])
    assert len(kept) == 1
    np.testing.assert_allclose(np.abs(kept.classes[0].values), [1.0, 2.0],
                               atol=1e-9)
    empty = filter_by_constraints(sols, [Constraint("magnitude", 0, 7.0)])
    assert len(empty) == 0
    assert empty.total_enumerated == 2


def test_filter_constraint_index_out_of_range():
    sols = enumerate_solutions(_pairs_of([1.0, 2.0]))
    with pytest.raises(ValueError, match="outside the support"):
        filter_by_constraints(sols, [Constraint("magnitude", 5, 1.0)])
    with pytest.raises(ValueError, match="negative"):
        filter_by_constraints(sols, [Constraint("magnitude", -1, 1.0)])


def test_filter_phase_uses_rotation_freedom():
    rng = np.random.default_rng(1001)
    x = Signal(0, random_signal(rng, 5))
    sols = enumerate_solutions(_pairs_of(x.values))
    cons = constraints_from_signal(x, [("phase", 0), ("phase", 4)])
    kept = filter_by_constraints(sols, cons)
    assert len(kept) >= 1
    # the original class must be among the survivors
    target = canonicalize(x)
    gaps = [form_distance(c.canonical, target) for c in kept.classes]
    assert min(gaps) < 1e-6 * float(np.max(np.abs(x.values)))


def test_filter_phase_ignores_negligible_entries():
    # a zero entry carries no phase information, any constraint there passes
    sols = enumerate_solutions(pairs_from_zeros([2.0j, -2.0j], leading=4.0))
    middle = [c for c in sols.classes if abs(c.values[1]) < 1e-12]
    assert middle  # the fully split selection has a vanishing middle entry
    kept = filter_by_constraints(sols, [Constraint("phase", 1, 0.123)])
    masks = {c.mask for c in kept.classes}
    assert {c.mask for c in middle} <= masks


def test_filter_tries_reflection_when_merged():
    rng = np.random.default_rng(64)
    x = Signal(0, random_signal(rng, 4))
    sols = enumerate_solutions(_pairs_of(x.values), modulo_reflection=True)
    cons = constraints_from_signal(x, [("magnitude", 0), ("magnitude", 1),
                                       ("magnitude", 2), ("magnitude", 3)])
    kept = filter_by_constraints(sols, cons)
    assert len(kept) >= 1


def test_recover_round_trip():
    rng = np.random.default_rng(2718)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        x = Signal(0, random_signal(rng, n))
        acf = autocorrelation(x)
        sols = recover(acf)
        target = canonicalize(x)
        gaps = [form_distance(c.canonical, target) for c in sols.classes]
        assert min(gaps) < 1e-6 * float(np.max(np.abs(x.values)))


def test_recover_with_constraints_narrows():
    acf = autocorrelation(Signal(0, [1.0, 2.0]))
    sols = recover(acf, [Constraint("magnitude", 1, 2.0)])
    assert len(sols) == 1
    np.testing.assert_allclose(np.abs(sols.classes[0].values), [1.0, 2.0],
                               atol=1e-9)


def test_solution_class_signal_offset_zero():
    sols = enumerate_solutions(_pairs_of([1.0, 2.0]))
    for cls in sols.classes:
        assert cls.signal().offset == 0
