"""Associated polynomial of an autocorrelation and its reflected zero pairs.

The intensity of a signal with support length N is, up to a phase factor,
a polynomial of degree 2N-2 whose zeros occur in pairs reflected across
the unit circle.  This module builds that polynomial, finds its zeros with
multiplicities, and groups them into pairs (`zero_pairs`, from a signal or
an autocorrelation); every later stage works with the pairs only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .signals import (_TRIM_THRESHOLD, Autocorrelation, Signal, _as_complex_vector,
                      _readonly, autocorrelation)

_EPS = float(np.finfo(float).eps)
_CLUSTER_RADIUS = 1e-7  # base gathering radius of multiple roots, relative to max(1, |z|)
_RESIDUAL_TOL = 1e-6  # P or a derivative vanishes below this fraction of its evaluation bound
_MAX_NEWTON_ITER = 60  # iteration cap of every Newton polish
_PAIR_TOL = 1e-8  # reflected-pair matching band, |z1 * conj(z2) - 1|
_NONZERO = 1e4 * _EPS  # P or a derivative is nonzero above this fraction of its evaluation bound


class RootFindingError(ValueError):
    """Root certification failed; `partial` holds the roots found so far."""

    def __init__(self, message: str, partial=()):
        super().__init__(message)
        self.partial = list(partial)


@dataclass(frozen=True, eq=False)
class AssociatedPolynomial:
    """P(z) = sum_k a[k-N+1] z^k with coefficients in ascending degree order.

    The coefficient sequence is conjugate palindromic because the
    autocorrelation is conjugate symmetric, so the zeros of P come in
    pairs (z, 1/conj(z)).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.coeffs)
        if arr.size % 2 == 0:
            raise ValueError("associated polynomial needs odd coefficient count")
        scale = float(np.abs(arr).max())
        if scale == 0.0 or abs(arr[-1]) <= _TRIM_THRESHOLD * scale:
            raise ValueError("degenerate leading coefficient; trim support first")
        band = DEFAULT_CONFIG.tol(scale)
        if float(np.abs(arr - np.conj(arr[::-1])).max()) > band:
            raise ValueError("coefficients are not conjugate palindromic")
        object.__setattr__(self, "coeffs", _readonly(arr))

    @property
    def degree(self) -> int:
        return int(self.coeffs.size) - 1

    @property
    def leading(self) -> complex:
        return complex(self.coeffs[-1])

    def __call__(self, z):
        return np.polyval(self.coeffs[::-1], z)


def associated_polynomial(acf: Autocorrelation,
                          cfg: ToleranceConfig = DEFAULT_CONFIG) -> AssociatedPolynomial:
    """Polynomial whose coefficient of z^k is the autocorrelation at lag k-N+1."""
    del cfg  # validation thresholds live on the type itself
    return AssociatedPolynomial(np.array(acf.coeffs))


def _evaluation_bound(desc_abs: np.ndarray, magnitude):
    """Scale of rounding noise when evaluating the polynomial at |z| = magnitude.

    `magnitude` may be a scalar or an array of moduli.
    """
    return np.maximum(np.polyval(desc_abs, magnitude), desc_abs.max())


def _newton(desc: np.ndarray, deriv: np.ndarray, starts, desc_abs: np.ndarray | None = None):
    """Newton iteration from every start at once; returns (points, converged).

    An iterate stops once its step is at most 4 eps |z|, or where its slope
    vanishes (unconverged).  Given the coefficient moduli `desc_abs`, it
    also stops once the step is no larger than the evaluation noise
    eps * B(|z|) / |P'(z)|: below that floor the step is rounding noise, and
    without this rule iterates near clustered or near-circle zeros wander
    until `_MAX_NEWTON_ITER`.  B is taken at the start, which Newton's method leaves
    only by a tiny step on the iterates that converge.
    """
    z = np.array(starts, dtype=complex)
    noise = (np.zeros(z.shape) if desc_abs is None
             else _EPS * _evaluation_bound(desc_abs, np.abs(z)))
    converged = np.zeros(z.shape, dtype=bool)
    active = np.arange(z.size)
    for _ in range(_MAX_NEWTON_ITER):
        if active.size == 0:
            break
        w = z[active]
        slope = np.polyval(deriv, w)
        value = np.polyval(desc, w)
        moving = slope != 0
        step = np.zeros_like(w)
        step[moving] = value[moving] / slope[moving]
        w = w - step
        z[active] = w
        done = (np.abs(step) <= 4.0 * _EPS * np.maximum(1.0, np.abs(w))) | (
            np.abs(value) <= noise[active])
        done &= moving & np.isfinite(w)
        converged[active[done]] = True
        active = active[moving & ~done & np.isfinite(w)]
    return z, converged


def _multiplicity_consistent(derivatives, abs_derivatives, z, mult: int):
    """True when P and its first mult-1 derivatives vanish at z but the next does not.

    Vanishing is judged against `_RESIDUAL_TOL`, while "does not vanish"
    only has to clear the rounding noise of the evaluation (a few orders
    above machine epsilon): genuine high-order derivative values can sit far
    below any fixed fraction of the coefficient-sum bound.  `z` may be an
    array of points, in which case the verdict is elementwise.
    """
    mag = np.abs(z)
    consistent = np.ones(np.shape(z), dtype=bool)
    for k in range(mult):
        bound = _evaluation_bound(abs_derivatives[k], mag)
        consistent &= np.abs(np.polyval(derivatives[k], z)) <= _RESIDUAL_TOL * bound
        if not consistent.any():
            return consistent
    if mult < len(derivatives):
        bound = _evaluation_bound(abs_derivatives[mult], mag)
        consistent &= np.abs(np.polyval(derivatives[mult], z)) > _NONZERO * bound
    return consistent


def _derivatives(desc: np.ndarray, order: int):
    """P and its first `order` derivatives (descending coefficients), and their moduli."""
    derivatives = [desc]
    for _ in range(order):
        derivatives.append(np.polyder(derivatives[-1]))
    return derivatives, [np.abs(d) for d in derivatives]


def _gather_radius(mult: int) -> float:
    # Eigenvalues of a multiplicity-m root scatter like eps**(1/m), so the
    # gathering radius must grow with the candidate multiplicity.
    if mult <= 1:
        return _CLUSTER_RADIUS
    return max(_CLUSTER_RADIUS, 10.0 * _EPS ** (1.0 / mult))


def _isolated(points: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the points with no other point within radius * max(1, |point|)."""
    gaps = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(gaps, np.inf)
    return gaps.min(axis=1, initial=np.inf) > radius * np.maximum(1.0, np.abs(points))


def _certify_simple(eigenvalues: np.ndarray, derivatives, abs_derivatives):
    """Polished simple roots and the mask of eigenvalues they came from.

    An eigenvalue is certified as a simple root when no other eigenvalue
    lies within the multiplicity-2 gathering radius, Newton's method
    converges from it, the forward-error estimate eps * B(|z|) / |P'(z)| is
    within `_CLUSTER_RADIUS`, P vanishes while P' does not, and the
    polished points stay apart.  The error estimate is what rejects the
    members of a root of multiplicity three or more: their eigenvalues
    scatter far beyond the radius, and P is at rounding level there.
    The last two tests are `_multiplicity_consistent` at multiplicity 1;
    B(|z|), B'(|z|), P(z) and P'(z) are each evaluated once for all three.
    """
    radius = _gather_radius(2)
    candidates = np.flatnonzero(_isolated(eigenvalues, radius))
    roots, converged = _newton(derivatives[0], derivatives[1], eigenvalues[candidates],
                               abs_derivatives[0])
    candidates, roots = candidates[converged], roots[converged]
    mag = np.abs(roots)
    bound = _evaluation_bound(abs_derivatives[0], mag)
    slope = np.abs(np.polyval(derivatives[1], roots))
    keep = _EPS * bound <= _CLUSTER_RADIUS * np.maximum(1.0, mag) * slope
    keep &= np.abs(np.polyval(derivatives[0], roots)) <= _RESIDUAL_TOL * bound
    keep &= slope > _NONZERO * _evaluation_bound(abs_derivatives[1], mag)
    candidates, roots = candidates[keep], roots[keep]
    apart = _isolated(roots, radius)
    certified = np.zeros(eigenvalues.size, dtype=bool)
    certified[candidates[apart]] = True
    return roots[apart], certified


def _cluster_top_down(leftover, derivatives, abs_derivatives, found: list) -> None:
    """Place the leftover eigenvalues as (root, multiplicity) pairs appended to `found`.

    The leftovers are kept in (real, imag) order.  For each candidate
    multiplicity m, from the number of leftovers down to 1, every leftover
    whose m nearest leftovers (itself included, ties in leftover order) lie
    within `_gather_radius(m)` seeds a group of them.  The group means are
    polished together by Newton's method on the (m-1)-th derivative, which
    has a simple zero at an m-fold root.  The plain step rule is kept: with
    the noise floor, verdicts on repeated and clustered zeros shift between
    wrong pairs and typed errors.  A group passes when P and its first m-1
    derivatives are at rounding level at the polished point while the m-th
    derivative is decisively nonzero.  The first passing group in leftover
    order is placed, and the search restarts on the rest.
    """
    remaining = leftover[np.lexsort((leftover.imag, leftover.real))]
    while remaining.size:
        gaps = np.abs(remaining[None, :] - remaining[:, None])
        nearest = np.argsort(gaps, axis=1, kind="stable")
        scale = np.maximum(1.0, np.abs(remaining))
        for mult in range(remaining.size, 0, -1):
            seeds = np.flatnonzero(gaps[np.arange(remaining.size), nearest[:, mult - 1]]
                                   <= _gather_radius(mult) * scale)
            groups = nearest[seeds, :mult]
            # polishing from a poor group mean may overflow; such roots are not finite
            with np.errstate(over="ignore", invalid="ignore"):
                roots, _ = _newton(derivatives[mult - 1], derivatives[mult],
                                   remaining[groups].mean(axis=1))
            passing = np.flatnonzero(np.isfinite(roots))
            passing = passing[_multiplicity_consistent(derivatives, abs_derivatives,
                                                       roots[passing], mult)]
            if passing.size:
                found.append((complex(roots[passing[0]]), mult))
                remaining = np.delete(remaining, groups[passing[0]])
                break
        else:
            raise RootFindingError(
                "root polishing did not converge to a certified multiplicity split",
                partial=found)


def cluster_roots(coeffs_ascending):
    """All zeros of a polynomial as (root, multiplicity) pairs.

    Simple roots, the generic case, are certified first: every isolated
    companion-matrix eigenvalue is Newton-polished in one vectorised pass
    and accepted when Newton converges, the forward-error estimate
    eps * B(|z|) / |P'(z)| is within `_CLUSTER_RADIUS`, and P vanishes
    while P' clearly does not (see `_certify_simple`).

    Only the eigenvalues this pass rejects, which happens at multiple roots
    and at roots too close together or too ill-conditioned to certify one
    by one, are clustered top-down by `_cluster_top_down`, with candidate
    multiplicities bounded by the number of leftovers.
    """
    asc = _as_complex_vector(coeffs_ascending)
    nonzero = np.nonzero(np.abs(asc) > 0)[0]
    if nonzero.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    asc = asc[: nonzero[-1] + 1]
    if asc.size == 1:
        return []
    # an exact power-of-two scale to max|a| in [0.5, 1) keeps P and its bounds finite
    asc = np.ldexp(np.ascontiguousarray(asc).view(float),
                   -np.frexp(np.abs(asc).max())[1]).view(complex)

    desc = asc[::-1]
    eigenvalues = np.roots(desc)
    simple, certified = _certify_simple(eigenvalues, *_derivatives(desc, 1))
    found = [(complex(z), 1) for z in simple]
    leftover = eigenvalues[~certified]
    if leftover.size:
        # an m-fold cluster needs derivatives up to order m <= len(leftover)
        _cluster_top_down(leftover, *_derivatives(desc, leftover.size), found)
    found.sort(key=lambda item: (item[0].real, item[0].imag))
    return found


def find_roots(poly: AssociatedPolynomial):
    """Zeros of the associated polynomial as (root, multiplicity) pairs."""
    return cluster_roots(poly.coeffs)


@dataclass(frozen=True)
class ZeroPair:
    """A zero and its reflection across the unit circle.

    `zero` stores the representative outside the circle (or on it, in which
    case the reflection coincides with it).  `multiplicity` counts how many
    times the pair divides the associated polynomial, which equals the
    number of selection slots it contributes during enumeration.
    """

    zero: complex
    on_circle: bool
    multiplicity: int

    @property
    def reflected(self) -> complex:
        """The other member of the pair, 1 / conj(zero); the zero itself on the circle."""
        return self.zero if self.on_circle else 1.0 / self.zero.conjugate()


@dataclass(frozen=True, eq=False)
class ZeroPairSet:
    """Grouped zero pairs of an associated polynomial plus its leading coefficient."""

    pairs: tuple
    leading: complex

    @property
    def support_len(self) -> int:
        """Support length N of the matching signals."""
        return 1 + sum(p.multiplicity for p in self.pairs)

    @property
    def snapped(self) -> int:
        """Roots of P on the unit circle: an on-circle zero is a double root of P."""
        return 2 * sum(p.multiplicity for p in self.pairs if p.on_circle)


def _sort_key(z: complex):
    return (z.real, z.imag)


def pair_roots(roots, cfg: ToleranceConfig = DEFAULT_CONFIG, *,
               leading: complex = 1.0 + 0.0j) -> ZeroPairSet:
    """Group (root, multiplicity) pairs into reflected zero pairs.

    Roots within `circle_tol` of the unit circle are snapped onto it and
    must carry even total multiplicity; every remaining root outside the
    circle must be matched by its reflection inside.  Anything else means
    the polynomial did not come from an autocorrelation.  A root without a
    reflected partner, or one whose partner has another multiplicity,
    raises `RootFindingError` carrying the input roots as `partial`.
    `pairs_from_zeros` then builds the pairs from one member of each.
    """
    roots = list(roots)
    on_circle, inside, outside = [], [], []
    total = 0
    for raw, mult in roots:
        z = complex(raw)
        mult = int(mult)
        if mult <= 0:
            raise ValueError("multiplicities must be positive")
        total += mult
        modulus = abs(z)
        if abs(modulus - 1.0) <= cfg.circle_tol:
            on_circle.append((z / modulus, z, mult))
        elif modulus > 1.0:
            outside.append((z, mult))
        else:
            inside.append((z, mult))
    if total % 2:
        raise ValueError(
            "input is not a valid autocorrelation spectrum: odd number of zeros")

    # runs of on-circle roots within 2 circle_tol of a run's first root merge
    merged = []
    for unit, z, mult in sorted(on_circle, key=lambda item: _sort_key(item[0])):
        if merged and abs(merged[-1][0] - unit) <= 2.0 * cfg.circle_tol:
            merged[-1][2] += mult
        else:
            merged.append([unit, z, mult])
    members = []
    for _, z, mult in merged:
        if mult % 2:
            raise ValueError(
                "input is not a valid autocorrelation spectrum: "
                "on-circle zero with odd multiplicity")
        members += [z] * (mult // 2)  # the raw root, which `pairs_from_zeros` normalises

    for z, mult in sorted(outside, key=lambda item: _sort_key(item[0])):
        target = 1.0 / z.conjugate()
        best, gap = None, np.inf  # the nearest remaining inside root, the first on ties
        for idx, (candidate, _) in enumerate(inside):
            distance = abs(candidate - target)
            if distance < gap:
                best, gap = idx, distance
        if gap > _PAIR_TOL * max(1.0, abs(target)):
            raise RootFindingError(
                "input is not a valid autocorrelation spectrum: "
                f"zero {z!r} has no reflected partner", roots)
        if inside.pop(best)[1] != mult:
            raise RootFindingError(
                "input is not a valid autocorrelation spectrum: "
                f"multiplicity mismatch at zero {z!r}", roots)
        members += [z] * mult
    if inside:
        raise RootFindingError(
            "input is not a valid autocorrelation spectrum: "
            f"zero {inside[0][0]!r} has no reflected partner", roots)
    return pairs_from_zeros(members, leading, cfg)


def pairs_from_zeros(zeros, leading: complex = 1.0 + 0.0j,
                     cfg: ToleranceConfig = DEFAULT_CONFIG) -> ZeroPairSet:
    """Zero pairs generated by an explicit zero multiset of one signal.

    Each given zero contributes one selection slot; zeros that are mutual
    reflections (or repeats) accumulate multiplicity in a single pair.  A
    zero within `circle_tol` of the unit circle is snapped onto it.
    """
    groups = []
    for raw in zeros:
        z = complex(raw)
        if z == 0:
            raise ValueError("zero selections must avoid the origin")
        modulus = abs(z)
        circled = abs(modulus - 1.0) <= cfg.circle_tol
        if circled:
            representative = z / modulus
        else:
            representative = z if modulus > 1.0 else 1.0 / z.conjugate()
        reach = _CLUSTER_RADIUS * max(1.0, abs(representative))
        for group in groups:
            if group[1] == circled and abs(group[0] - representative) <= reach:
                group[2] += 1
                break
        else:
            groups.append([representative, circled, 1])
    pairs = sorted((ZeroPair(*group) for group in groups), key=lambda p: _sort_key(p.zero))
    return ZeroPairSet(tuple(pairs), complex(leading))


def zero_pairs(source, cfg: ToleranceConfig = DEFAULT_CONFIG) -> ZeroPairSet:
    """Reflected zero pairs of a `Signal`, from its own N-1 zeros, or of an
    `Autocorrelation`, from the 2N-2 roots of its associated polynomial.
    A signal's autocorrelation gives the leading coefficient, and its
    finiteness check rejects a signal whose intensity overflows."""
    if isinstance(source, Signal):
        zeros = [root for root, mult in cluster_roots(source.values) for _ in range(mult)]
        leading = autocorrelation(source)[source.support_len - 1]
        return pairs_from_zeros(zeros, leading, cfg)
    poly = associated_polynomial(source, cfg)
    return pair_roots(find_roots(poly), cfg, leading=poly.leading)
