import itertools
import math

import numpy as np
import pytest

from phase_toolkit import (ROTATION, ROTATION_REFLECTION, SubsetFamily,
                           check_all_moduli_uniqueness,
                           check_magnitude_uniqueness,
                           check_phase_uniqueness_endpoint,
                           check_phase_uniqueness_two_points, cluster_roots,
                           elementary_symmetric, elementary_symmetric_all,
                           enumerate_solutions, filter_by_constraints,
                           magnitude_counterexample, modified_zero_set,
                           pairs_from_zeros, synthesize)
from phase_toolkit import criteria
from phase_toolkit.criteria import reflection_table

from helpers import (ReferenceCriteria, classes_matching_constraints,
                     constraints_from_signal, random_zero_set)


def test_elementary_symmetric_small_cases():
    assert elementary_symmetric([2.0, 3.0], 0) == 1
    assert elementary_symmetric([2.0, 3.0], 1) == 5
    assert elementary_symmetric([2.0, 3.0], 2) == 6
    assert elementary_symmetric([-2.0, -3.0, 1.0j], 2) == pytest.approx(6 - 5j)
    assert elementary_symmetric([2.0, 3.0], -1) == 0
    assert elementary_symmetric([2.0, 3.0], 3) == 0
    assert elementary_symmetric([], 0) == 1


def test_elementary_symmetric_matches_subset_sums():
    rng = np.random.default_rng(8)
    for count in range(1, 7):
        zeros = [complex(a, b) for a, b in rng.normal(size=(count, 2))]
        table = elementary_symmetric_all(zeros)
        for order in range(count + 1):
            direct = sum(math.prod(combo) for combo in
                         itertools.combinations(zeros, order))
            scale = max(1.0, abs(direct))
            assert abs(table[order] - direct) < 1e-12 * scale


def _table_zero_sets(rng):
    """Seeded zero sets for N = 2..9: generic, with on-circle zeros, with internal pairs."""
    for n in range(2, 10):
        yield random_zero_set(rng, n - 1)
        if n >= 3:
            on_circle = [complex(np.exp(1j * t)) for t in rng.uniform(-np.pi, np.pi, 2)]
            yield random_zero_set(rng, n - 3) + on_circle
        if n >= 4:
            zeros = random_zero_set(rng, n - 2)
            zeros.insert(1, 1.0 / np.conj(zeros[-1]))
            yield zeros


def _mask_rows(zeros):
    family = SubsetFamily(zeros)
    eligible = family.eligible_positions()
    table = reflection_table(zeros, eligible)
    assert table.shape == (2 ** len(eligible), len(zeros) + 1)
    for mask in family.masks():
        index = sum(1 << (len(eligible) - 1 - eligible.index(p)) for p in mask)
        yield mask, table[index]


def test_reflection_table_matches_scalar_reference():
    # each row is w * S of the reflected zero set, w the product of reflected moduli
    rng = np.random.default_rng(31)
    checked = 0
    for zeros in _table_zero_sets(rng):
        for mask, row in _mask_rows(zeros):
            weight = math.prod(abs(zeros[p]) for p in mask)
            expected = weight * elementary_symmetric_all(modified_zero_set(zeros, mask))
            assert np.abs(row - expected).max() <= 1e-12 * np.abs(expected).max()
            checked += 1
    assert checked > 500


def test_reflection_table_rows_are_reversed_signals():
    # x[N-1-l] = amp0 * (-1)^l * row[l] for the signal of every reflected zero set
    rng = np.random.default_rng(32)
    for zeros in list(_table_zero_sets(rng))[-6:]:
        n = len(zeros) + 1
        lead = 1.7
        amp0 = np.sqrt(lead / np.prod(np.abs(zeros)))
        signs = (-1.0) ** np.arange(n)
        for mask, row in _mask_rows(zeros):
            x = synthesize(modified_zero_set(zeros, mask), lead)
            expected = amp0 * signs * row
            assert np.abs(x.values[::-1] - expected).max() <= 1e-12 * np.abs(expected).max()


def test_reflection_table_rejects_origin():
    with pytest.raises(ValueError, match="origin"):
        reflection_table([2.0, 0.0], [1])
    assert reflection_table([2.0, 0.0]).shape == (1, 3)


def test_modified_zero_set_examples():
    assert modified_zero_set([2.0, 3.0], [0]) == (0.5, 3.0)
    got = modified_zero_set([2.0j], [0])
    assert got[0] == pytest.approx(0.5j)
    assert modified_zero_set([2.0, 3.0], []) == (2.0, 3.0)


def test_modified_zero_set_involution():
    rng = np.random.default_rng(21)
    zeros = random_zero_set(rng, 5)
    mask = [0, 2, 4]
    back = modified_zero_set(modified_zero_set(zeros, mask), mask)
    for a, b in zip(back, zeros):
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_modified_zero_set_rejects_origin():
    with pytest.raises(ValueError, match="origin"):
        modified_zero_set([0.0, 2.0], [0])


def test_subset_family_excludes_circle_and_pairs():
    # position 3 is on the circle, positions 0 and 1 reflect onto each other
    family = SubsetFamily([2.0, 0.5, 3.0j, 1.0j])
    assert family.eligible_positions() == (0, 1, 2)
    assert family.internal_pairs() == ((0, 1),)
    assert family.free_positions() == (2,)
    masks = list(family.masks())
    assert masks == [(0,), (1,), (2,), (0, 2), (1, 2)]


def test_subset_family_optional_exclusions():
    zeros = [2.0, 3.0 - 1.0j]
    full = SubsetFamily(zeros)
    assert (0, 1) in list(full.masks())
    assert (0, 1) not in list(SubsetFamily(zeros, exclude_full_free=True).masks())
    assert (0, 1) not in list(SubsetFamily(zeros, exclude_exact_full=True).masks())


def test_reflected_pair_mask_would_be_identity():
    # reflecting a complete internal pair only permutes the multiset, which
    # is why such masks are inadmissible: the criterion equality holds for
    # them no matter the signal
    zeros = (1.5 + 0.5j, 1.0 / np.conj(1.5 + 0.5j), -3.0)
    swapped = modified_zero_set(zeros, [0, 1])
    assert sorted(swapped, key=lambda z: (z.real, z.imag)) == sorted(
        zeros, key=lambda z: (z.real, z.imag))
    weight = abs(zeros[0]) * abs(zeros[1])
    assert weight == pytest.approx(1.0)


def test_magnitude_criterion_two_real_zeros():
    rep = check_magnitude_uniqueness([2.0, 3.0], 0, 3)
    assert rep.unique and rep.equivalence_kind == ROTATION
    assert rep.violations == ()
    # centered component: the full reflection is excluded and equivalence widens
    rep1 = check_magnitude_uniqueness([2.0, 3.0], 1, 3)
    assert rep1.unique and rep1.equivalence_kind == ROTATION_REFLECTION


def test_magnitude_criterion_centered_exclusion_is_needed():
    # for the excluded full set the equality holds identically:
    # prod |b| * |S_1 of reflected set| = 6 * 5/6 = 5 = |S_1|
    zeros = [2.0, 3.0]
    reflected = modified_zero_set(zeros, [0, 1])
    lhs = abs(elementary_symmetric(zeros, 1))
    rhs = 6.0 * abs(elementary_symmetric(reflected, 1))
    assert lhs == pytest.approx(rhs)


def test_magnitude_criterion_all_on_circle():
    rep = check_magnitude_uniqueness([1.0j, -1.0j], 1, 3)
    assert rep.unique
    assert rep.violations == ()


def test_magnitude_criterion_rejects_bad_offset():
    with pytest.raises(ValueError):
        check_magnitude_uniqueness([2.0, 3.0], 3, 3)
    with pytest.raises(ValueError):
        check_magnitude_uniqueness([2.0, 3.0], 1, 4)


def test_magnitude_criterion_modulus_product_trap():
    # the split construction shares |x[n]| for every n, so each single
    # component modulus fails to decide it either
    zeros = [2.0, -0.5, 2.0j]
    for ell in range(4):
        rep = check_magnitude_uniqueness(zeros, ell, 4)
        assert not rep.unique
        assert (0, 1) in [v.mask for v in rep.violations]


def test_all_moduli_two_point_signal():
    rep = check_all_moduli_uniqueness([-0.5], 2)
    assert rep.unique and rep.equivalence_kind == ROTATION


def test_all_moduli_split_construction():
    rep = check_all_moduli_uniqueness([2.0, -0.5, 2.0j], 4)
    assert not rep.unique
    assert rep.equivalence_kind == ROTATION
    assert [v.mask for v in rep.violations] == [(0, 1)]


def test_all_moduli_all_on_circle():
    rep = check_all_moduli_uniqueness([1.0j, -1.0j, 1.0], 4)
    assert rep.unique
    assert rep.violations == ()


def test_all_moduli_pure_reflection_widens_equivalence():
    # |S| of {2, -1/2} reads the same forwards and backwards, so the
    # conjugate reflection shares every modulus; nothing else does
    rep = check_all_moduli_uniqueness([2.0, -0.5], 3)
    assert rep.unique
    assert rep.equivalence_kind == ROTATION_REFLECTION
    assert rep.violations == ()
    kept, _ = classes_matching_constraints(
        [2.0, -0.5], [("magnitude", i) for i in range(3)], True)
    assert len(kept) == 1


def test_phase_endpoint_real_zeros_ambiguous():
    rep = check_phase_uniqueness_endpoint([-2.0, -3.0], 1, 3)
    assert not rep.unique
    masks = [v.mask for v in rep.violations]
    assert (0,) in masks and (1,) in masks and (0, 1) in masks


def test_phase_endpoint_generic_complex_unique():
    rep = check_phase_uniqueness_endpoint([2.0j, -3.0], 1, 3)
    assert rep.unique and not rep.borderline
    assert rep.equivalence_kind == ROTATION


def test_phase_endpoint_all_on_circle():
    rep = check_phase_uniqueness_endpoint([1.0j, -1.0j], 1, 3)
    assert rep.unique


def test_phase_endpoint_offset_range():
    with pytest.raises(ValueError):
        check_phase_uniqueness_endpoint([-2.0, -3.0], 0, 3)
    with pytest.raises(ValueError):
        check_phase_uniqueness_endpoint([-2.0, -3.0], 2, 3)


def test_phase_two_points_real_zeros_ambiguous():
    rep = check_phase_uniqueness_two_points([-2.0, -3.0, -5.0], 1, 2, 4)
    assert not rep.unique
    assert rep.equivalence_kind == ROTATION_REFLECTION  # offsets sum to N-1


def test_phase_two_points_symmetric_excludes_full_set():
    rng = np.random.default_rng(5150)
    zeros = random_zero_set(rng, 3)
    rep = check_phase_uniqueness_two_points(zeros, 1, 2, 4)
    assert (0, 1, 2) not in [v.mask for v in rep.violations]
    assert rep.equivalence_kind == ROTATION_REFLECTION


def test_phase_two_points_asymmetric_plain_rotation():
    rng = np.random.default_rng(62)
    zeros = random_zero_set(rng, 4)
    rep = check_phase_uniqueness_two_points(zeros, 1, 2, 5)
    assert rep.equivalence_kind == ROTATION


def test_phase_two_points_validation():
    with pytest.raises(ValueError):
        check_phase_uniqueness_two_points([-2.0, -3.0, -5.0], 1, 1, 4)
    with pytest.raises(ValueError):
        check_phase_uniqueness_two_points([-2.0, -3.0, -5.0], 0, 2, 4)
    with pytest.raises(ValueError):
        check_phase_uniqueness_two_points([-2.0, -3.0], 1, 2, 4)


def test_magnitude_verdict_matches_enumeration():
    rng = np.random.default_rng(314)
    checked = 0
    for trial in range(30):
        n = int(rng.integers(3, 8))
        zeros = random_zero_set(rng, n - 1)
        ell = int(rng.integers(0, n))
        rep = check_magnitude_uniqueness(zeros, ell, n)
        if rep.borderline:
            continue
        merged = rep.equivalence_kind == ROTATION_REFLECTION
        kept, _ = classes_matching_constraints(
            zeros, [("magnitude", n - 1 - ell)], merged)
        assert len(kept) >= 1
        assert rep.unique == (len(kept) == 1), (zeros, ell)
        checked += 1
    assert checked >= 25


def test_all_moduli_verdict_matches_enumeration():
    rng = np.random.default_rng(2710)
    all_indices = lambda n: [("magnitude", i) for i in range(n)]
    for trial in range(20):
        n = int(rng.integers(3, 8))
        zeros = random_zero_set(rng, n - 1)
        rep = check_all_moduli_uniqueness(zeros, n)
        if rep.borderline:
            continue
        merged = rep.equivalence_kind == ROTATION_REFLECTION
        kept, _ = classes_matching_constraints(zeros, all_indices(n), merged)
        assert rep.unique == (len(kept) == 1), zeros
    # and the handcrafted ambiguous set really leaves two classes
    kept, _ = classes_matching_constraints([2.0, -0.5, 2.0j], all_indices(4), False)
    assert len(kept) == 2
    # (t + 1e-7)^2 trims the reference to three entries; the oracle must still
    # read the top lag prod|z| and keep the reference's class
    kept, x = classes_matching_constraints([-1e-7, -1e-7, -2.0], all_indices(3), False)
    assert x.values.size == 3
    assert len(kept) == 1


def test_phase_endpoint_verdict_matches_enumeration():
    rng = np.random.default_rng(999)
    for trial in range(20):
        n = int(rng.integers(3, 8))
        zeros = random_zero_set(rng, n - 1)
        ell = int(rng.integers(1, n - 1))
        rep = check_phase_uniqueness_endpoint(zeros, ell, n)
        if rep.borderline:
            continue
        kept, _ = classes_matching_constraints(
            zeros, [("phase", n - 1), ("phase", n - 1 - ell)], False)
        assert rep.unique == (len(kept) == 1), (zeros, ell)
    # ambiguous frozen case: every all-positive class survives
    kept, _ = classes_matching_constraints(
        [-2.0, -3.0], [("phase", 2), ("phase", 1)], False)
    assert len(kept) == 4


def test_phase_two_points_verdict_matches_enumeration():
    rng = np.random.default_rng(1331)
    for trial in range(20):
        n = int(rng.integers(4, 8))
        zeros = random_zero_set(rng, n - 1)
        offsets = rng.choice(np.arange(1, n - 1), size=2, replace=False)
        l1, l2 = int(offsets[0]), int(offsets[1])
        rep = check_phase_uniqueness_two_points(zeros, l1, l2, n)
        if rep.borderline:
            continue
        merged = rep.equivalence_kind == ROTATION_REFLECTION
        kept, _ = classes_matching_constraints(
            zeros, [("phase", n - 1 - l1), ("phase", n - 1 - l2)], merged)
        assert rep.unique == (len(kept) == 1), (zeros, l1, l2)
    kept, _ = classes_matching_constraints(
        [-2.0, -3.0, -5.0], [("phase", 2), ("phase", 1)], True)
    assert len(kept) == 4


def test_magnitude_report_depends_only_on_zeros():
    # the same zero set reached through a rotated synthesized signal gives
    # the same verdict
    from phase_toolkit import (associated_polynomial, autocorrelation,
                               find_roots, pair_roots, rotate, synthesize)

    rng = np.random.default_rng(404)
    zeros = random_zero_set(rng, 3)
    x = rotate(synthesize(zeros, float(np.prod(np.abs(zeros)))), 0.77)
    poly = associated_polynomial(autocorrelation(x))
    pairs = pair_roots(find_roots(poly), leading=poly.leading)
    recovered = []
    for p in pairs.pairs:
        recovered.extend([p.zero] * p.multiplicity)
    direct = check_magnitude_uniqueness(zeros, 2, 4)
    via_signal = check_magnitude_uniqueness(recovered, 2, 4)
    assert direct.unique == via_signal.unique
    assert direct.equivalence_kind == via_signal.equivalence_kind


def _sweep_zero_sets():
    """Seeded zero sets for the criterion sweep, support lengths 3..10."""
    rng = np.random.default_rng(6061)
    for n in range(3, 11):
        yield random_zero_set(rng, n - 1)
    for n in (4, 6, 8):
        on_circle = [complex(np.exp(1j * t)) for t in rng.uniform(-np.pi, np.pi, 2)]
        yield random_zero_set(rng, n - 3) + on_circle
    for n in (4, 6, 9):
        zeros = random_zero_set(rng, n - 2)
        zeros.insert(1, 1.0 / np.conj(zeros[-1]))
        yield zeros
    for n in (4, 7):
        zeros = random_zero_set(rng, n - 3)
        yield zeros + [zeros[0], zeros[-1]]
    yield [-2.0, -3.0, -0.4]
    yield [-2.0, -0.5, -3.0, 1.5]
    yield [-2.0, -3.0, -0.4, -5.0, -1.5, -1.2j]
    for n in (4, 6, 8, 10):
        pair = magnitude_counterexample(n, 2.0, 2.0)
        for x in (pair.x, pair.y):
            yield [root for root, mult in cluster_roots(x.values) for _ in range(mult)]


_CHECKS = {"magnitude": check_magnitude_uniqueness, "all_moduli": check_all_moduli_uniqueness,
           "phase_endpoint": check_phase_uniqueness_endpoint,
           "phase_two_points": check_phase_uniqueness_two_points}


def _criterion_keys(n):
    """(family, *offsets) for every offset and every ordered pair of offsets."""
    yield from (("magnitude", offset) for offset in range(n))
    yield ("all_moduli",)
    yield from (("phase_endpoint", offset) for offset in range(1, n - 1))
    yield from (("phase_two_points", *pair)
                for pair in itertools.permutations(range(1, n - 1), 2))


def test_criteria_match_per_mask_reference_sweep():
    reports = violations = 0
    for zeros in _sweep_zero_sets():
        reference = ReferenceCriteria(zeros)
        n = len(zeros) + 1
        for key in _criterion_keys(n):
            unique, kind, expected, borderline = reference.report(*key)
            got = _CHECKS[key[0]](zeros, *key[1:], n)
            assert (got.unique, got.equivalence_kind, got.borderline) == \
                (unique, kind, borderline), (zeros, key)
            assert [v.mask for v in got.violations] == [m for m, _ in expected], (zeros, key)
            for v, (_, residual) in zip(got.violations, expected):
                assert abs(v.residual - residual) <= 1e-13, (zeros, key, v.mask)
            reports += 1
            violations += len(expected)
    assert reports > 700 and violations > 1000


def test_subset_family_masks_match_reference_filter():
    for zeros in _sweep_zero_sets():
        reference = ReferenceCriteria(zeros)
        for full_free, exact_full in itertools.product((False, True), repeat=2):
            family = SubsetFamily(zeros, exclude_full_free=full_free,
                                  exclude_exact_full=exact_full)
            assert list(family.masks()) == reference.masks(full_free, exact_full), \
                (zeros, full_free, exact_full)
            assert family.eligible_positions() == tuple(reference.eligible), zeros
            assert family.internal_pairs() == tuple(reference.pairs), zeros
            assert family.free_positions() == tuple(sorted(reference.free)), zeros


def test_subset_family_positions_build_no_reflection_table(monkeypatch):
    # 16 off-circle zeros, one internal pair (0, 16), one on-circle zero
    base = random_zero_set(np.random.default_rng(1616), 15)
    zeros = base + [np.exp(0.4j), 1.0 / np.conj(base[0])]
    reference = ReferenceCriteria(zeros)
    assert len(reference.eligible) == 16 and reference.pairs == [(0, 16)]
    calls = []
    table = criteria.reflection_table
    monkeypatch.setattr(criteria, "reflection_table",
                        lambda *args: calls.append(args) or table(*args))
    criteria._selection.cache_clear()
    family = SubsetFamily(zeros)
    assert family.eligible_positions() == tuple(reference.eligible)
    assert family.internal_pairs() == tuple(reference.pairs)
    assert family.free_positions() == tuple(sorted(reference.free))
    assert calls == []


def test_origin_zero_reflected_only_when_admissible():
    zeros = [0.0, complex(np.exp(0.7j))]
    # centred modulus: the only admissible subset, the origin, is the full free set
    rep = check_magnitude_uniqueness(zeros, 1, 3)
    assert rep.unique and rep.equivalence_kind == ROTATION_REFLECTION
    assert rep.violations == ()
    with pytest.raises(ValueError, match="cannot reflect a zero at the origin"):
        check_magnitude_uniqueness(zeros, 0, 3)
    with pytest.raises(ValueError, match="cannot reflect a zero at the origin"):
        check_phase_uniqueness_two_points([0.0, 2.0, 3.0j], 1, 2, 4)


def _paper_zero_sets(n):
    """Two seeded generic and two seeded negative-real zero sets of support length n."""
    for seed in range(2):
        rng = np.random.default_rng([seed, n, 1604])
        yield "generic", random_zero_set(rng, n - 1)
        yield "negative_real", [complex(z) for z in -np.exp(rng.uniform(-1.2, 1.2, n - 1))]


def _paper_constraints(key, n):
    """The (kind, index) pairs a criterion key reads off the signal."""
    family, *offsets = key
    if family == "magnitude":
        return [("magnitude", n - 1 - offsets[0])]
    if family == "all_moduli":
        return [("magnitude", i) for i in range(n)]
    if family == "phase_endpoint":
        return [("phase", n - 1), ("phase", n - 1 - offsets[0])]
    return [("phase", n - 1 - offset) for offset in offsets]


@pytest.mark.parametrize("n", range(10, 14))
def test_paper_statements_at_n10_to_13(n):
    # Beinert & Plonka: a verdict is unique exactly when one class keeps the
    # signal's side information; every verdict on generic zeros is unique,
    # while negative real zeros defeat every phase criterion; the reflection
    # is identified away exactly at the centred modulus of odd N and at two
    # phases with l1 + l2 = N - 1
    keys = [key for key in _criterion_keys(n)
            if key[0] != "phase_two_points" or key[1] < key[2]]
    compared = 0
    for kind, zeros in _paper_zero_sets(n):
        top_lag = float(np.prod(np.abs(zeros)))
        x = synthesize(zeros, top_lag)
        pairs = pairs_from_zeros(zeros, leading=top_lag)
        solutions = {merged: enumerate_solutions(pairs, modulo_reflection=merged)
                     for merged in (False, True)}
        for key in keys:
            report = _CHECKS[key[0]](zeros, *key[1:], n)
            merged = report.equivalence_kind == ROTATION_REFLECTION
            assert report.unique == (kind == "generic" or not key[0].startswith("phase")), \
                (kind, key)
            centred = n % 2 == 1 and key == ("magnitude", (n - 1) // 2)
            symmetric = key[0] == "phase_two_points" and key[1] + key[2] == n - 1
            assert merged == (centred or symmetric), (kind, key)
            if report.borderline:
                continue
            kept = filter_by_constraints(solutions[merged],
                                         constraints_from_signal(x, _paper_constraints(key, n)))
            assert len(kept) >= 1, (kind, key)
            assert report.unique == (len(kept) == 1), (kind, key, len(kept))
            compared += 1
    assert compared >= 3 * len(keys)
