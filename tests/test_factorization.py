import numpy as np
import pytest

import phase_toolkit.factorization as factorization
from phase_toolkit import (AssociatedPolynomial, RootFindingError,
                           Signal, associated_polynomial, autocorrelation,
                           cluster_roots, find_roots, pair_roots,
                           pairs_from_zeros, synthesize)

from helpers import random_signal, random_zero_set, reference_cluster_top_down


def _poly_of(values):
    return associated_polynomial(autocorrelation(Signal(0, values)))


def test_associated_polynomial_two_point():
    poly = _poly_of([1.0, 2.0])
    np.testing.assert_allclose(poly.coeffs, [2.0, 5.0, 2.0], atol=1e-14)
    assert poly.degree == 2
    assert poly.leading == pytest.approx(2.0)
    assert abs(poly(-2.0)) < 1e-12
    assert abs(poly(-0.5)) < 1e-12


def test_associated_polynomial_is_conjugate_palindrome():
    rng = np.random.default_rng(17)
    for n in (2, 4, 7):
        poly = _poly_of(random_signal(rng, n))
        c = poly.coeffs
        np.testing.assert_allclose(c, np.conj(c[::-1]), atol=1e-10)


def test_degenerate_leading_coefficient_rejected():
    from phase_toolkit import Autocorrelation

    acf = Autocorrelation([0.0, 1.0, 0.0])  # delta correlation, N = 1 really
    with pytest.raises(ValueError, match="degenerate leading"):
        associated_polynomial(acf)


def test_associated_polynomial_validates_shape():
    with pytest.raises(ValueError):
        AssociatedPolynomial([1.0, 2.0, 3.0, 4.0])  # even count
    with pytest.raises(ValueError):
        AssociatedPolynomial([1.0, 2.0, 3.0])  # not a conjugate palindrome


def test_intensity_on_circle_matches_polynomial():
    # |P(e^{iw})| equals the intensity at -w, a defining property
    rng = np.random.default_rng(31)
    x = Signal(0, random_signal(rng, 5))
    acf = autocorrelation(x)
    poly = associated_polynomial(acf)
    for w in np.linspace(-np.pi, np.pi, 11):
        z = np.exp(1j * w)
        lhs = abs(poly(z))
        rhs = acf.intensity(np.array([-w]))[0]
        assert lhs == pytest.approx(rhs, abs=1e-9 * acf[0].real)


def test_find_roots_simple_pair():
    roots = find_roots(_poly_of([1.0, 2.0]))
    roots.sort(key=lambda rm: abs(rm[0]))
    assert len(roots) == 2
    assert roots[0][1] == 1 and roots[1][1] == 1
    assert roots[0][0] == pytest.approx(-0.5, abs=1e-12)
    assert roots[1][0] == pytest.approx(-2.0, abs=1e-12)


def test_cluster_roots_double_on_circle():
    # x = (1, i) has associated polynomial i z^2 + 2 z - i with double root at i
    roots = find_roots(_poly_of([1.0, 1.0j]))
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 2
    assert root == pytest.approx(1.0j, abs=1e-7)


def test_cluster_roots_high_multiplicity():
    # (z - 0.7)^5: companion eigenvalues scatter by ~1e-3 but the cluster
    # must still be certified as a single 5-fold root
    coeffs_desc = np.poly([0.7] * 5)
    roots = cluster_roots(coeffs_desc[::-1])
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 5
    assert root == pytest.approx(0.7, abs=1e-9)


def test_cluster_roots_mixed_multiplicities():
    target = [(0.5 + 0.5j, 3), (-1.25, 2), (2.0j, 1)]
    coeffs_desc = np.array([1.0 + 0j])
    for z, m in target:
        for _ in range(m):
            coeffs_desc = np.convolve(coeffs_desc, [1.0, -z])
    found = cluster_roots(coeffs_desc[::-1])
    assert sorted(m for _, m in found) == [1, 2, 3]
    for z, m in target:
        match = [r for r, mm in found if mm == m]
        assert len(match) == 1
        assert abs(match[0] - z) < 1e-8 * max(1.0, abs(z))


def test_cluster_roots_multiple_roots_go_through_fallback(monkeypatch):
    # the simple-root pass must leave every member of the triple and the
    # double root to the top-down clustering, which certifies them whole
    target = [(0.5 + 0.5j, 3), (-1.25, 2), (2.0j, 1)]
    coeffs_desc = np.poly([complex(z) for z, m in target for _ in range(m)])
    clustered = []
    top_down = factorization._cluster_top_down

    def recording(leftover, *args):
        found = args[-1]
        before = len(found)
        top_down(leftover, *args)
        clustered.extend(found[before:])

    monkeypatch.setattr(factorization, "_cluster_top_down", recording)
    cluster_roots(coeffs_desc[::-1])
    assert sorted(m for _, m in clustered) == [2, 3]
    for z, m in target[:2]:
        match = [r for r, mm in clustered if mm == m]
        assert abs(match[0] - z) < 1e-8 * max(1.0, abs(z))


def _stratified_zeros(rng, count):
    """One zero per angular sector, radius 1.15-3, each on a random side of the circle."""
    angles = -np.pi + 2.0 * np.pi * (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    zeros = rng.uniform(1.15, 3.0, count) * np.exp(1j * angles)
    inside = rng.uniform(size=count) < 0.5
    zeros[inside] = 1.0 / np.conj(zeros[inside])
    return [complex(z) for z in zeros]


@pytest.fixture
def no_top_down(monkeypatch):
    """Fail the test if any root reaches the top-down multiplicity search."""
    def refuse(*args):
        raise AssertionError("a simple root reached the top-down clustering")

    monkeypatch.setattr(factorization, "_cluster_top_down", refuse)


def test_find_roots_generic_n24_certifies_simple_roots_only(no_top_down):
    # a degree-46 associated polynomial from known zeros
    rng = np.random.default_rng(24)
    for trial in range(3):
        zeros = _stratified_zeros(rng, 23)
        poly = _poly_of(synthesize(zeros, 1.0).values)
        assert poly.degree == 46
        pairs = pair_roots(find_roots(poly), leading=poly.leading)
        assert len(pairs.pairs) == 23
        for z in zeros:
            rep = z if abs(z) > 1.0 else 1.0 / z.conjugate()
            best = min(pairs.pairs, key=lambda p: abs(p.zero - rep))
            assert best.multiplicity == 1 and not best.on_circle
            assert abs(best.zero - rep) < 1e-6 * abs(rep)


def _assert_matches_high_precision(coeffs_desc, found):
    """Every certified root lies within its certified radius of a 50-digit root."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in coeffs_desc],
                                 maxsteps=200, extraprec=60)
    exact = [complex(z) for z in exact]
    assert sum(m for _, m in found) == len(exact)
    for root, mult in found:
        assert mult == 1
        nearest = min(exact, key=lambda z: abs(z - root))
        assert abs(nearest - root) <= factorization._CLUSTER_RADIUS * max(1.0, abs(root))
        exact.remove(nearest)


@pytest.mark.parametrize("degree", [14, 22, 30])
def test_cluster_roots_matches_mpmath_generic(degree):
    rng = np.random.default_rng(degree)
    coeffs_desc = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    _assert_matches_high_precision(coeffs_desc, cluster_roots(coeffs_desc[::-1]))
    poly = _poly_of(synthesize(_stratified_zeros(rng, degree // 2), 1.0).values)
    _assert_matches_high_precision(poly.coeffs[::-1], find_roots(poly))


@pytest.mark.parametrize("gap", [1e-5, 1e-4, 1e-3, 1e-2])
def test_find_roots_matches_mpmath_near_circle(gap, no_top_down):
    # Newton stops at the evaluation-noise floor, so even the closest pair
    # is certified by the simple-root pass
    rng = np.random.default_rng(int(-np.log10(gap)))
    near = complex((1.0 + gap) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
    zeros = [near] + [z for z in _stratified_zeros(rng, 8)
                      if min(abs(z - near), abs(1.0 / z.conjugate() - near)) > 0.2]
    poly = _poly_of(synthesize(zeros, 1.0).values)
    roots = find_roots(poly)
    _assert_matches_high_precision(poly.coeffs[::-1], roots)
    pairs = pair_roots(roots, leading=poly.leading)
    closest = min(pairs.pairs, key=lambda p: abs(p.zero - near))
    assert not closest.on_circle
    assert abs(closest.zero - near) < 1e-6


_HARD_KINDS = ("on_circle", "repeated", "doubled", "clustered", "negative_real")


def _hard_zeros(rng, kind, n):
    """N-1 signal zeros of one geometry that leaves eigenvalues to the fallback."""
    def outside(count):
        return list(rng.uniform(1.15, 3.0, count) * np.exp(1j * rng.uniform(-np.pi, np.pi, count)))

    if kind == "on_circle":
        return list(np.exp(1j * rng.uniform(-np.pi, np.pi, 2))) + outside(n - 3)
    if kind == "repeated":
        r, s = rng.uniform(1.5, 3.0, 2)
        return [r, -1.0 / r] + [1j * s] * (n - 3)
    if kind == "doubled":
        return 2 * outside(1) + outside(n - 3)
    if kind == "clustered":
        centre = 1.4 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        mirrored = outside(1)[0]
        return ([centre + 0.05 * np.exp(2j * np.pi * k / 3) for k in range(3)]
                + [mirrored, 1.0 / np.conj(mirrored)] + outside(n - 6))
    return list(-np.exp(rng.uniform(-1.2, 1.2, n - 1)))


def _top_down_outcome(top_down, leftover, derivatives, abs_derivatives):
    """The placed (root bytes, multiplicity) list in placing order, or the error and its partial."""
    found = []
    try:
        top_down(leftover, derivatives, abs_derivatives, found)
    except RootFindingError as exc:
        return "raised", str(exc), [(complex(z).real.hex(), complex(z).imag.hex(), m)
                                    for z, m in exc.partial]
    return "placed", [(complex(z).real.hex(), complex(z).imag.hex(), m) for z, m in found]


@pytest.mark.parametrize("kind", _HARD_KINDS)
def test_cluster_top_down_matches_seed_by_seed_reference(kind):
    # eigenvalues rejected by the simple-root pass, of the signal polynomial
    # and of its associated polynomial: every group is placed as the scalar
    # seed-by-seed search places it, in the same order and to the last bit
    rng = np.random.default_rng(_HARD_KINDS.index(kind) + 1500)
    outcomes = []
    for n in range(4 if kind != "clustered" else 6, 15):
        for _ in range(2):
            signal = synthesize(_hard_zeros(rng, kind, n), 1.0)
            for coeffs in (signal.values, autocorrelation(signal).coeffs):
                desc = np.asarray(coeffs)[::-1]
                eigenvalues = np.roots(desc)
                _, certified = factorization._certify_simple(
                    eigenvalues, *factorization._derivatives(desc, 1))
                leftover = eigenvalues[~certified]
                if leftover.size == 0:
                    continue
                derivatives = factorization._derivatives(desc, leftover.size)
                got = _top_down_outcome(factorization._cluster_top_down, leftover, *derivatives)
                want = _top_down_outcome(reference_cluster_top_down, leftover, *derivatives)
                assert got == want, (kind, n)
                outcomes.append(got[0])
    assert len(outcomes) >= 10 and set(outcomes) == {"placed", "raised"}


def test_cluster_top_down_breaks_distance_ties_in_leftover_order():
    # exact ties in distance on a lattice: a group must take its tied members
    # in leftover order, or its mean, and so the placed roots, change bits
    base, step = 1.2345678901234567, 2.0 ** -18
    leftover = base + step * np.array([1j, -1 - 2j, -2 + 2j, -1 - 1j, -2 + 3j, 3j])
    desc = np.poly([base + step * 1j] * 2 + [base + step * (-2 + 2j)])
    derivatives = factorization._derivatives(desc, leftover.size)
    got = _top_down_outcome(factorization._cluster_top_down, leftover, *derivatives)
    assert got == _top_down_outcome(reference_cluster_top_down, leftover, *derivatives)
    assert got[0] == "placed" and len(got[1]) == 2


def test_cluster_roots_zero_polynomial():
    with pytest.raises(ValueError):
        cluster_roots([0.0, 0.0])
    assert cluster_roots([3.0]) == []


def test_find_roots_random_signals():
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        poly = _poly_of(random_signal(rng, n))
        roots = find_roots(poly)
        assert sum(m for _, m in roots) == poly.degree
        for z, _ in roots:
            bound = max(np.abs(np.polyval(np.abs(poly.coeffs[::-1]), abs(z))), 1.0)
            assert abs(poly(z)) < 1e-6 * bound


def test_pair_roots_basic():
    poly = _poly_of([1.0, 2.0])
    pairs = pair_roots(find_roots(poly), leading=poly.leading)
    assert pairs.support_len == 2
    assert pairs.leading == pytest.approx(2.0)
    assert len(pairs.pairs) == 1
    p = pairs.pairs[0]
    assert not p.on_circle
    assert p.multiplicity == 1
    assert p.zero == pytest.approx(-2.0, abs=1e-10)
    assert p.reflected == pytest.approx(-0.5, abs=1e-10)


def test_pair_roots_snaps_circle_zeros():
    poly = _poly_of([1.0, 1.0j])
    pairs = pair_roots(find_roots(poly), leading=poly.leading)
    assert len(pairs.pairs) == 1
    p = pairs.pairs[0]
    assert p.on_circle
    assert p.multiplicity == 1
    assert abs(abs(p.zero) - 1.0) == 0.0
    assert pairs.snapped == 2


def test_pairs_from_zeros_counts_snapped_roots_as_pair_roots_does():
    # an on-circle signal zero is a double root of the associated polynomial
    assert pairs_from_zeros([1j, 1j]).snapped == 4
    assert pairs_from_zeros([1j, 2.0]).snapped == 2
    assert pairs_from_zeros([-2.0, 0.5]).snapped == 0
    poly = _poly_of(synthesize([1j, 2.0], 1.0).values)
    assert pair_roots(find_roots(poly), leading=poly.leading).snapped == 2


def test_pair_roots_rejects_odd_circle_multiplicity():
    with pytest.raises(ValueError, match="odd multiplicity"):
        pair_roots([(1.0j, 1), (-1.0j, 1)])


def test_pair_roots_rejects_unmatched_zero():
    with pytest.raises(ValueError, match="no reflected partner"):
        pair_roots([(2.0 + 0j, 1), (3.0 + 0j, 1)])


def test_pair_roots_failures_are_root_finding_errors():
    for roots, message in (([(2.0 + 0j, 1), (3.0 + 0j, 1)], "no reflected partner"),
                           ([(0.5 + 0j, 1), (0.25 + 0j, 1)], "no reflected partner"),
                           ([(2.0 + 0j, 1), (0.5 + 0j, 3)], "multiplicity mismatch")):
        with pytest.raises(RootFindingError, match=message) as info:
            pair_roots(iter(roots))
        assert info.value.partial == roots


def test_pair_roots_rejects_odd_count():
    with pytest.raises(ValueError, match="odd number"):
        pair_roots([(2.0 + 0j, 1), (0.5 + 0j, 1), (3.0 + 0j, 1)])


def test_pair_roots_multiplicity_mismatch():
    with pytest.raises(ValueError):
        pair_roots([(2.0 + 0j, 2), (0.5 + 0j, 1), (3.0 + 0j, 1), (1 / 3 + 0j, 2)])


def test_pair_roots_random_round_trip():
    rng = np.random.default_rng(555)
    for trial in range(10):
        count = int(rng.integers(1, 5))
        zeros = random_zero_set(rng, count)
        x = synthesize(zeros, float(np.prod(np.abs(zeros))))
        poly = _poly_of(x.values)
        pairs = pair_roots(find_roots(poly), leading=poly.leading)
        assert pairs.support_len == count + 1
        got = sorted((p.zero for p in pairs.pairs), key=lambda z: (z.real, z.imag))
        want = sorted(zeros, key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-6 * max(1.0, abs(w))


def test_pairs_from_zeros_groups_multiset():
    pairs = pairs_from_zeros([-2.0, -2.0, -0.5, 3.0j], leading=4.0)
    assert pairs.support_len == 5
    assert pairs.leading == pytest.approx(4.0)
    by_zero = {complex(round(p.zero.real, 6), round(p.zero.imag, 6)):
               p.multiplicity for p in pairs.pairs}
    assert by_zero == {complex(-2.0, 0.0): 3, complex(0.0, 3.0): 1}


def test_pairs_from_zeros_on_circle():
    pairs = pairs_from_zeros([1.0j, 1.0j])
    assert len(pairs.pairs) == 1
    assert pairs.pairs[0].on_circle
    assert pairs.pairs[0].multiplicity == 2


def test_root_finding_error_keeps_partial():
    err = RootFindingError("nope", partial=[(1.0 + 0j, 1)])
    assert err.partial == [(1.0 + 0j, 1)]
