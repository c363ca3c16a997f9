import cmath
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phase_toolkit import (Constraint, Signal, SolutionSet, autocorrelation,
                           canonicalize, cluster_roots, enumerate_solutions,
                           filter_by_constraints, form_distance,
                           fourier_intensity, pairs_from_zeros, recover,
                           synthesize)
from phase_toolkit.enumeration import _DEDUPE_TOL, _dedupe

from helpers import (assert_same_solutions, constraints_from_signal,
                     probe_grid, random_signal, random_zero_set,
                     reference_dedupe, reference_enumeration, reference_filter)


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


def _dedupe_forms(rng, collapsed):
    """Clusters of forms spread within the near-collision band, in random order.

    With `collapsed` every real part is equal, so one run holds every form.
    """
    width = int(rng.integers(1, 5))
    scale = 10.0 ** rng.uniform(-2, 2)
    sizes = rng.integers(1, 51 if collapsed else 21, int(rng.integers(1, 4)))
    centers = scale * (rng.normal(size=(sizes.size, width))
                       + 1j * rng.normal(size=(sizes.size, width)))
    spread = rng.choice([0.3, 1.1, 3.0, 9.0, 30.0], sizes.size) * _DEDUPE_TOL * scale
    forms = np.concatenate([
        center + s * (rng.uniform(-1, 1, (size, width)) + 1j * rng.uniform(-1, 1, (size, width)))
        for center, s, size in zip(centers, spread, sizes)])
    if collapsed:
        forms = scale + 1j * forms.imag
    return forms[rng.permutation(len(forms))]


def test_dedupe_matches_pairwise_reference():
    rng = np.random.default_rng(2104)
    merged = near = 0
    longest = 0
    for trial in range(240):
        collapsed = trial % 3 == 0
        forms = _dedupe_forms(rng, collapsed)
        kept, collisions = _dedupe(forms)
        reps, expected = reference_dedupe(forms)
        assert kept.tolist() == reps and collisions == expected, trial
        merged += len(reps) < len(forms)
        near += expected > 0
        longest = max(longest, len(forms) if collapsed else 1)
    assert merged > 100 and near > 100 and longest >= 50


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
        gaps = [form_distance(c.values, target) for c in sols.classes]
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
    gaps = [form_distance(c.values, target) for c in kept.classes]
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


def _constraint_sweep_pairs(rng):
    for n in range(3, 10):
        for complex_valued in (True, False):
            yield _pairs_of(random_signal(rng, n, complex_valued))
        angles = rng.uniform(-np.pi, np.pi, size=max(1, (n - 1) // 2))
        zeros = random_zero_set(rng, n - 1 - angles.size) + [cmath.exp(1j * a) for a in angles]
        yield pairs_from_zeros(zeros, leading=1.0)
    # trimmed supports of two lengths, then entries between the trim level and cfg.tol
    for zeros in ([1e-7, 1e-7, 2j, -1.5], [3e-5, 3e-5, 2j, -1.5], [2e-6, 3e-6, 2j, -1.5]):
        yield pairs_from_zeros(zeros, leading=1.0)


def test_filter_by_constraints_matches_reference_filter():
    rng = np.random.default_rng(4321)
    filters = mixed = at_rounding = past_end = 0
    for pairs in _constraint_sweep_pairs(rng):
        for modulo_reflection in (False, True):
            classes = enumerate_solutions(pairs, modulo_reflection).classes
            # the indices stay below the first class's length; when it is not
            # the shortest, an index can lie past the end of a later class
            for ordered in (classes, classes[1:] + classes[:1]):
                sols = SolutionSet(ordered, len(ordered), modulo_reflection)
                size = ordered[0].values.size
                for _ in range(6):
                    # targets read off one class under a random rotation, some of them nudged
                    source = ordered[int(rng.integers(len(ordered)))].values
                    source = source * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
                    picks = rng.choice(size, size=min(size, int(rng.integers(1, 4))),
                                       replace=False)
                    cons = []
                    for idx in picks.tolist():
                        value = source[min(idx, source.size - 1)]
                        nudge = rng.choice([0.0, 0.0, 1e-10, 1e-3])
                        if rng.uniform() < 0.5:
                            cons.append(Constraint("magnitude", idx, abs(value) + nudge))
                        else:
                            cons.append(Constraint("phase", idx, cmath.phase(value) + nudge))
                    got = filter_by_constraints(sols, cons)
                    keep = reference_filter(sols, cons)
                    assert [id(c) for c in got.classes] == \
                        [id(c) for c, k in zip(ordered, keep) if k], (pairs, cons)
                    filters += 1
                    mixed += 0 < sum(keep) < len(keep)
                    for cls, c in itertools.product(ordered, cons):
                        past_end += c.index >= cls.values.size
                        if c.kind == "phase" and c.index < cls.values.size:
                            peak = np.abs(cls.values).max()
                            at_rounding += abs(cls.values[c.index]) <= 1e-9 * (1 + peak)
    assert filters > 500 and mixed > 200 and at_rounding > 20 and past_end > 20


def test_filter_checks_indices_against_the_longest_class():
    # trimmed supports: the first class has length 4, some later ones length 5
    pairs = pairs_from_zeros([1e-7, 1e-7, 2j, -1.5], leading=1.0)
    for modulo_reflection in (False, True):
        sols = enumerate_solutions(pairs, modulo_reflection)
        lengths = [cls.values.size for cls in sols.classes]
        assert lengths[0] == 4 and max(lengths) == 5
        longer = next(cls.values for cls in sols.classes if cls.values.size == 5)
        for cons in ([Constraint("magnitude", 4, abs(longer[4]))],
                     [Constraint("phase", 4, cmath.phase(longer[4]))]):
            got = filter_by_constraints(sols, cons)
            keep = reference_filter(sols, cons)
            assert [id(c) for c in got.classes] == \
                [id(c) for c, k in zip(sols.classes, keep) if k]
            assert 0 < len(got) < len(sols)
        with pytest.raises(ValueError, match="index 5 outside the support of length 5"):
            filter_by_constraints(sols, [Constraint("magnitude", 5, 1.0)])


def test_recover_round_trip():
    rng = np.random.default_rng(2718)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        x = Signal(0, random_signal(rng, n))
        acf = autocorrelation(x)
        sols = recover(acf)
        target = canonicalize(x)
        gaps = [form_distance(c.values, target) for c in sols.classes]
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


def test_solution_class_values_are_read_only_rows():
    zeros = [1e-7, 1e-7, 2j, -1.5]  # two support lengths
    sols = enumerate_solutions(pairs_from_zeros(zeros, leading=1.0), modulo_reflection=True)
    assert {c.values.size for c in sols.classes} == {4, 5}
    for cls in sols.classes:
        assert not cls.values.flags.writeable
        with pytest.raises(ValueError):
            cls.values[0] = 0.0


def test_near_tied_peak_moduli_pick_one_pivot():
    # the two end entries of both mixed selections have moduli that agree to
    # rounding; an exact argmax let ulps pick different pivots for a signal
    # and its mirror, which then never merged
    r = 1.523132880966339
    pairs = pairs_from_zeros([r, -1.0 / r])
    assert len(enumerate_solutions(pairs)) == 4
    assert len(enumerate_solutions(pairs, modulo_reflection=True)) == 2


def test_tiny_signals_keep_their_classes():
    # the canonical order compares relative to the peak; with an absolute
    # floor, rows of peak modulus below about 1e-9 tied everywhere and never
    # merged with their mirrors (16 classes modulo reflection instead of 8)
    rng = np.random.default_rng(1024)
    for _ in range(20):
        zeros = random_zero_set(rng, 4)
        for merged in (False, True):
            unit = enumerate_solutions(pairs_from_zeros(zeros, leading=1.0), merged)
            tiny = enumerate_solutions(pairs_from_zeros(zeros, leading=1e-24), merged)
            assert len(tiny) == len(unit) == (8 if merged else 16)
            assert [c.mask for c in tiny.classes] == [c.mask for c in unit.classes]
            assert [c.reflected for c in tiny.classes] == [c.reflected for c in unit.classes]
            for a, b in zip(tiny.classes, unit.classes):
                assert np.abs(a.values - 1e-12 * b.values).max() <= 1e-24 * np.abs(b.values).max()


def _sweep_zero_sets():
    rng = np.random.default_rng(2024)
    for n in range(2, 10):
        for _ in range(3):
            yield random_zero_set(rng, n - 1)
    for mult in (2, 3, 2, 3):
        zeros = random_zero_set(rng, int(rng.integers(1, 4)))
        yield zeros + [zeros[0]] * (mult - 1)
    for circled in (1, 2, 1, 2):
        angles = rng.uniform(-np.pi, np.pi, size=circled)
        yield random_zero_set(rng, 3) + [cmath.exp(1j * a) for a in angles]
    for negatives in (1, 2, 3):
        reals = -rng.uniform(0.2, 3.0, size=negatives)
        yield random_zero_set(rng, 2) + [complex(r) for r in reals]
    for delta in (3e-7, 1e-6, 3e-6, 1e-5):
        yield [1.0 + delta, 2.5j, -1.7 + 0.4j]
    # several zeros just off the circle: chains of merges and near collisions
    for gaps in ((2e-8, 5e-8, 4e-7), (1e-7, 2e-7, 8e-7), (5e-8, 4e-7, 1.5e-6),
                 (2e-8, 1e-7, 1.5e-7, 2e-7)):
        yield [cmath.rect(1.0 + g, a) for g, a in zip(gaps, (0.0, 0.9, -2.1, 2.6))] + [2.5j]
    # ten such zeros: all 1024 forms fall into one run of the sorted keys
    yield [cmath.rect(1.0 + 3e-8, 0.5 * k + 0.1) for k in range(10)]


@pytest.mark.parametrize("modulo_reflection", [False, True])
def test_enumeration_matches_reference_sweep(modulo_reflection):
    for zeros in _sweep_zero_sets():
        pairs = pairs_from_zeros(zeros, leading=float(np.prod(np.abs(zeros))))
        assert_same_solutions(enumerate_solutions(pairs, modulo_reflection),
                              reference_enumeration(pairs, modulo_reflection), pairs)


def test_trimmed_supports_keep_their_length():
    # (t - 1e-7)^2 leaves a constant term below the trim threshold, so the
    # selections that keep both small zeros lose an entry and never merge
    pairs = pairs_from_zeros([1e-7, 1e-7, 2j, -1.5], leading=1.0)
    for modulo_reflection in (False, True):
        sols = enumerate_solutions(pairs, modulo_reflection)
        assert_same_solutions(sols, reference_enumeration(pairs, modulo_reflection), pairs)
    sols = enumerate_solutions(pairs)
    assert [c.values.size for c in sols.classes] == [4, 5, 4, 4, 5, 4, 4, 5, 4, 4, 5, 4]
    assert sols.near_collisions == 0


def test_enumerate_fourteen_point_signal():
    rng = np.random.default_rng(1414)
    zeros = random_zero_set(rng, 13)
    lead = float(np.prod(np.abs(zeros)))
    pairs = pairs_from_zeros(zeros, leading=lead)
    w = probe_grid(128)
    ref = fourier_intensity(synthesize(zeros, lead), w)
    kernel = np.exp(-1j * np.multiply.outer(np.arange(14), w))
    sols = enumerate_solutions(pairs)
    assert len(sols) == sols.total_enumerated == 8192
    assert [c.mask for c in sols.classes] == list(itertools.product((0, 1), repeat=13))
    got = np.abs(np.stack([c.values for c in sols.classes]) @ kernel) ** 2
    assert float(np.abs(got - ref).max()) <= 1e-7 * float(ref.max())
    assert len(enumerate_solutions(pairs, modulo_reflection=True)) == 4096


@st.composite
def _zero_geometries(draw):
    angle = st.floats(-np.pi, np.pi)

    def generic():
        radius = draw(st.floats(1.3, 3.0))
        z = cmath.rect(radius, draw(angle))
        return 1.0 / z.conjugate() if draw(st.booleans()) else z

    kind = draw(st.sampled_from(("clustered", "near_circle", "repeated")))
    zeros = [generic() for _ in range(draw(st.integers(0, 3)))]
    if kind == "clustered":
        center = generic()
        zeros += [center + cmath.rect(draw(st.floats(1e-3, 1e-1)), draw(angle))
                  for _ in range(draw(st.integers(1, 3)))] + [center]
    elif kind == "near_circle":
        for _ in range(draw(st.integers(1, 3))):
            gap = draw(st.floats(1e-4, 1e-2)) * draw(st.sampled_from((-1.0, 1.0)))
            zeros.append(cmath.rect(1.0 + gap, draw(angle)))
    else:
        zeros += [generic()] * draw(st.integers(2, 3))
    return zeros


@settings(derandomize=True, max_examples=60, deadline=None)
@given(zeros=_zero_geometries(), modulo_reflection=st.booleans())
def test_enumeration_matches_reference_on_hard_geometries(zeros, modulo_reflection):
    pairs = pairs_from_zeros(zeros, leading=1.0)
    assert_same_solutions(enumerate_solutions(pairs, modulo_reflection),
                          reference_enumeration(pairs, modulo_reflection), pairs)


def _route_zero_sets(rng):
    """Seeded generic, repeated and on-circle zero sets, with their expected structure."""
    for n in range(3, 9):
        yield random_zero_set(rng, n - 1), 1, 0
    for mult in (2, 3, 2):
        zeros = random_zero_set(rng, 2)
        yield zeros + [zeros[0]] * (mult - 1), mult, 0
    for circled in (1, 2, 3):
        angles = rng.uniform(-np.pi, np.pi, size=circled)
        yield random_zero_set(rng, 3) + [cmath.exp(1j * a) for a in angles], 1, circled


def test_recover_of_a_signal_pairs_its_own_zeros():
    rng = np.random.default_rng(909)
    for zeros, mult, circled in _route_zero_sets(rng):
        x = synthesize(zeros, rng.uniform(0.5, 2.0), rotation=rng.uniform(-np.pi, np.pi))
        own = [root for root, m in cluster_roots(x.values) for _ in range(m)]
        pairs = pairs_from_zeros(own, autocorrelation(x)[x.support_len - 1])
        assert pairs.support_len == len(zeros) + 1
        assert max(p.multiplicity for p in pairs.pairs) == mult
        assert sum(p.on_circle for p in pairs.pairs) == circled
        targets = [("magnitude", int(rng.integers(x.support_len))),
                   ("phase", int(rng.integers(x.support_len)))]
        for cons in ((), constraints_from_signal(x, targets[:1]),
                     constraints_from_signal(x, targets)):
            for modulo_reflection in (False, True):
                got = recover(x, cons, modulo_reflection=modulo_reflection)
                want = filter_by_constraints(enumerate_solutions(pairs, modulo_reflection), cons)
                assert len(got) >= 1
                assert_same_solutions(got, want, pairs)
