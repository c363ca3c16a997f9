"""Shared helpers for the test suite."""

import itertools
import json
import math

import numpy as np

from phase_toolkit import (DEFAULT_CONFIG, Constraint, SolutionClass,
                           SolutionSet, autocorrelation,
                           canonicalize, enumerate_solutions,
                           filter_by_constraints, form_distance,
                           fourier_intensity, pairs_from_zeros, synthesize)
from phase_toolkit.counterexamples import _probe_grid
from phase_toolkit.enumeration import _DEDUPE_TOL
from phase_toolkit.factorization import (_EPS, _MAX_NEWTON_ITER, _PAIR_TOL, RootFindingError,
                                         _gather_radius, _multiplicity_consistent)
from phase_toolkit.signals import _wrap_angle


def random_signal(rng, n, complex_valued=True):
    """Random length-n signal whose boundary entries stay away from zero."""
    if complex_valued:
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    else:
        vals = rng.normal(size=n) + 0j
    for j in (0, n - 1):
        while abs(vals[j]) < 0.2:
            bump = rng.normal() + (1j * rng.normal() if complex_valued else 0.0)
            vals[j] += bump
    return vals


def random_zero_set(rng, count, min_gap=0.15):
    """Random off-circle zeros, no reflected pairs, pairwise separated."""
    zeros = []
    while len(zeros) < count:
        z = rng.normal(scale=1.2) + 1j * rng.normal(scale=1.2)
        r = abs(z)
        if r < 1e-2 or abs(r - 1.0) < min_gap:
            continue
        if r < 1.0:
            z = 1.0 / np.conj(z)
        if any(abs(z - w) < min_gap or abs(z * np.conj(w) - 1.0) < min_gap
               for w in zeros):
            continue
        zeros.append(complex(z))
    return zeros


def reference_dumps(value) -> str:
    """The per-value JSON writer the one-pass `dumps` replaced: each complex leaf
    expanded into `[re, im]` lists, each float formatted by its own call."""
    if isinstance(value, (complex, np.complexfloating)):
        value = [value.real, value.imag]
    elif isinstance(value, np.ndarray) and value.ndim == 1 and np.iscomplexobj(value):
        value = [[z.real, z.imag] for z in value.tolist()]
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}: {reference_dumps(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(reference_dumps(v) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_csv(signals) -> str:
    """The per-value CSV writer: one `re,im` line per entry, a blank line between signals."""
    def line(z):
        return f"{format(float(z.real), '.17g')},{format(float(z.imag), '.17g')}\n"

    return "\n".join("".join(map(line, s.values)) for s in signals)


def probe_grid(count=128):
    return np.linspace(-np.pi, np.pi, count, endpoint=False)


def intensity_gap(sig_a, sig_b, omegas):
    """Largest pointwise Fourier-intensity difference over the given grid."""
    from phase_toolkit import fourier_intensity

    ia = fourier_intensity(sig_a, omegas)
    ib = fourier_intensity(sig_b, omegas)
    return float(np.max(np.abs(ia - ib)))


def classes_matching_constraints(zeros, targets, modulo_reflection, cfg=None):
    """Brute-force oracle: surviving ambiguity classes for a synthesized signal.

    A reference signal is synthesized from ``zeros`` with a positive real
    scale, every competitor sharing its intensity is enumerated, and the
    classes are filtered by constraints read off the reference at the
    (kind, index) pairs in ``targets``.  Returns the filtered SolutionSet.
    """
    from phase_toolkit import DEFAULT_CONFIG

    cfg = cfg or DEFAULT_CONFIG
    # the top lag a[N-1] is prod |z|; trimming the reference's values can lose it
    top_lag = float(np.prod(np.abs(zeros)))
    x = synthesize(zeros, top_lag)
    pairs = pairs_from_zeros(zeros, leading=top_lag, cfg=cfg)
    classes = enumerate_solutions(pairs, modulo_reflection=modulo_reflection,
                                  cfg=cfg)
    constraints = constraints_from_signal(x, targets)
    return filter_by_constraints(classes, constraints, cfg), x


def constraints_from_signal(x, targets):
    """Build constraints reading off the signal as (kind, index) pairs."""
    out = []
    for kind, idx in targets:
        v = x.values[idx]
        if kind == "magnitude":
            out.append(Constraint("magnitude", idx, float(abs(v))))
        else:
            out.append(Constraint("phase", idx, float(np.angle(v))))
    return out


def acf_of(values, offset=0):
    from phase_toolkit import Signal

    return autocorrelation(Signal(offset, values))


def reference_enumeration(pairs, modulo_reflection=False, cfg=DEFAULT_CONFIG):
    """Per-selection enumeration with a greedy pairwise dedupe.

    Every choice in `itertools.product` order is synthesized and
    canonicalized on its own, then compared with each class kept so far by
    `form_distance`: it merges into the first one within dedupe_tol * scale,
    and every class checked before that within ten times the tolerance counts
    as a near collision.  `enumerate_solutions` must return the same set.
    """
    options = [(0,) if p.on_circle else tuple(range(p.multiplicity + 1))
               for p in pairs.pairs]
    classes = []
    total = 0
    near = 0
    for counts in itertools.product(*options):
        form = canonicalize(synthesize(masked_zeros(pairs, counts), pairs.leading),
                            modulo_reflection=modulo_reflection, cfg=cfg)
        total += 1
        matched = False
        for existing in classes:
            gap = form_distance(existing.values, form)
            scale = float(max(np.abs(form.values).max(),
                              np.abs(existing.values).max()))
            if gap <= _DEDUPE_TOL * scale:
                matched = True
                break
            if gap <= 10.0 * _DEDUPE_TOL * scale:
                near += 1
        if not matched:
            classes.append(SolutionClass(form.values, tuple(counts), form.reflected))
    return SolutionSet(tuple(classes), total, modulo_reflection, near)


def reference_dedupe(forms):
    """Pairwise greedy dedupe of the rows of a forms array, in index order.

    Each form is compared with every earlier representative in turn: it
    merges into the first one within dedupe_tol * scale (scale the larger
    peak modulus of the two), and every representative checked before that
    within ten times the tolerance counts as a near collision.  Returns the
    indices of the representatives and the near-collision count.
    """
    peaks = [float(np.abs(row).max()) for row in forms]
    reps = []
    near = 0
    for i, row in enumerate(forms):
        for r in reps:
            gap = float(np.abs(forms[r] - row).max())
            scale = max(peaks[i], peaks[r])
            if gap <= _DEDUPE_TOL * scale:
                break
            if gap <= 10.0 * _DEDUPE_TOL * scale:
                near += 1
        else:
            reps.append(i)
    return reps, near


def masked_zeros(pairs, mask):
    """The zeros a mask picks: per pair, `mask` reflected members, then the kept ones."""
    zeros = []
    for pair, flipped in zip(pairs.pairs, mask):
        zeros.extend([pair.reflected] * flipped)
        zeros.extend([pair.zero] * (pair.multiplicity - flipped))
    return zeros


def assert_same_solutions(got, want, pairs, cfg=DEFAULT_CONFIG):
    """Equal solution sets: counts, order, masks, flags, bitwise values.

    Each mask must also mean its class: the zeros it picks from `pairs`,
    synthesized and canonicalised, give the class's values within dedupe_tol.
    """
    assert got.total_enumerated == want.total_enumerated
    assert got.modulo_reflection == want.modulo_reflection
    assert got.near_collisions == want.near_collisions
    assert [c.mask for c in got.classes] == [c.mask for c in want.classes]
    for a, b in zip(got.classes, want.classes):
        assert a.reflected == b.reflected
        assert a.values.tobytes() == b.values.tobytes()
        form = canonicalize(synthesize(masked_zeros(pairs, a.mask), pairs.leading),
                            modulo_reflection=got.modulo_reflection, cfg=cfg)
        assert form_distance(form, a.values) <= _DEDUPE_TOL * float(np.abs(a.values).max())


class ReferenceCriteria:
    """The four uniqueness criteria of one zero set, decided mask by mask.

    An independent reference for `phase_toolkit.criteria`: the admissible
    subsets come from `itertools.combinations` over the off-circle
    positions, minus those holding both members of an internal reflected
    pair and the optional full-free and exact-full exclusions; S of each
    reflected zero set comes from `np.poly`.  The residual and band
    formulas are those of the criteria.  `report` returns (unique,
    equivalence_kind, [(mask, residual), ...], borderline), or raises
    ValueError when an admissible subset would reflect a zero at the origin.
    """

    def __init__(self, zeros, cfg=DEFAULT_CONFIG):
        self.zeros = [complex(z) for z in zeros]
        self.n = len(self.zeros) + 1
        self.cfg = cfg
        self.eligible = [i for i, z in enumerate(self.zeros)
                         if abs(abs(z) - 1.0) > cfg.circle_tol]
        self.pairs = [(a, b) for a, b in itertools.combinations(self.eligible, 2)
                      if abs(self.zeros[a] * self.zeros[b].conjugate() - 1.0) <= _PAIR_TOL]
        paired = {i for pair in self.pairs for i in pair}
        self.free = {i for i in self.eligible if i not in paired}
        self.reference = self._weighted_s(())
        self._rows = {}

    def masks(self, exclude_full_free=False, exclude_exact_full=False):
        out = []
        for take in range(1, len(self.eligible) + 1):
            for combo in itertools.combinations(self.eligible, take):
                chosen = set(combo)
                if any(a in chosen and b in chosen for a, b in self.pairs):
                    continue
                if exclude_full_free and chosen == self.free:
                    continue
                if exclude_exact_full and chosen == set(range(len(self.zeros))):
                    continue
                out.append(combo)
        return out

    def _reflected(self, mask):
        if any(self.zeros[p] == 0 for p in mask):
            raise ValueError("cannot reflect a zero at the origin")
        return [1.0 / z.conjugate() if i in mask else z for i, z in enumerate(self.zeros)]

    def _weighted_s(self, mask):
        """w * S_0..S_k of the zero set with `mask` reflected, w = prod |z| over the mask."""
        weight = math.prod(abs(self.zeros[p]) for p in mask)
        coeffs = np.atleast_1d(np.poly(self._reflected(mask))).astype(complex)
        return weight * coeffs * (-1.0) ** np.arange(coeffs.size)

    def _row(self, mask):
        if mask not in self._rows:
            self._rows[mask] = self._weighted_s(mask)
        return self._rows[mask]

    def _in_band(self, residual):
        return 0.1 * self.cfg.criterion_tol < residual <= 10.0 * self.cfg.criterion_tol

    def _modulus_residual(self, mask, offset):
        target, candidate = abs(self.reference[offset]), abs(self._row(mask)[offset])
        return abs(target - candidate) / max(target, candidate, 1.0)

    def _balance(self, pivot, partner):
        tol = self.cfg.criterion_tol
        aligned = pivot.conjugate() * partner
        scale = max(abs(pivot) * abs(partner), 1.0)
        cross = abs(aligned.imag) / scale
        meets = cross <= tol and aligned.real >= -tol * scale
        borderline = self._in_band(cross) or abs(aligned.real) / scale <= 10.0 * tol
        return cross, meets, borderline

    def report(self, family, *offsets):
        tol = self.cfg.criterion_tol
        kind = "rotation"
        violations = []
        borderline = False
        if family == "magnitude":
            (offset,) = offsets
            centered = self.n % 2 == 1 and offset == (self.n - 1) // 2
            if centered:
                kind = "rotation_reflection"
            for mask in self.masks(exclude_full_free=centered):
                residual = self._modulus_residual(mask, offset)
                borderline |= self._in_band(residual)
                if residual <= tol:
                    violations.append((mask, residual))
        elif family == "all_moduli":
            for mask in self.masks():
                residuals = [self._modulus_residual(mask, l) for l in range(self.n)]
                borderline |= any(self._in_band(r) for r in residuals)
                if max(residuals) <= tol:
                    violations.append((mask, max(residuals)))
            key = lambda z: (z.real, z.imag)
            if violations:
                full = sorted(self._reflected(range(len(self.zeros))), key=key)
                limit = self.cfg.tol(max(abs(z) for z in self.zeros))
                if all(max((abs(a - b) for a, b in
                            zip(sorted(self._reflected(mask), key=key), full)),
                           default=0.0) <= limit
                       for mask, _ in violations):
                    return True, "rotation_reflection", [], borderline
        elif family == "phase_endpoint":
            (offset,) = offsets
            for mask in self.masks():
                row = self._row(mask)
                cross, meets, near = self._balance(self.reference[offset],
                                                   row[offset] / row[0].real)
                borderline |= near
                if meets:
                    violations.append((mask, cross))
        else:
            first, second = offsets
            symmetric = first + second == self.n - 1
            if symmetric:
                kind = "rotation_reflection"
            for mask in self.masks(exclude_exact_full=symmetric):
                row = self._row(mask)
                weight = row[0].real
                partner = ((row[second] / weight).conjugate() * self.reference[second]
                           * (row[first] / weight))
                cross, meets, near = self._balance(self.reference[first], partner)
                borderline |= near
                if meets:
                    violations.append((mask, cross))
        return not violations, kind, violations, bool(borderline)


def reference_filter(solutions, constraints, cfg=DEFAULT_CONFIG):
    """Kept flag of each class under `filter_by_constraints`, decided class by class.

    A class is tested on its canonical values and, when the set was
    enumerated modulo reflection, also on their conjugate reflection.  A
    modulus passes within cfg.tol of the larger of the two moduli.  Phase
    targets at entries of rounding level (cfg.tol of the peak) pass; the
    remaining mismatches are fitted with one global rotation, their circular
    mean, and the largest wrapped residual must be at most cfg.tol(pi).  An
    index outside the support fails.
    """

    def phases_satisfied(values, targets):
        scale = float(np.abs(values).max())
        active = [(idx, want) for idx, want in targets if abs(values[idx]) > cfg.tol(scale)]
        if not active:
            return True
        gaps = np.array([want - np.angle(values[idx]) for idx, want in active])
        rotation = float(np.angle(np.exp(1j * gaps).sum()))
        wrapped = np.mod(gaps - rotation + np.pi, 2.0 * np.pi) - np.pi
        return float(np.abs(wrapped).max()) <= cfg.tol(np.pi)

    def satisfies(values):
        phase_targets = []
        for c in constraints:
            if c.index >= values.size:
                return False
            if c.kind == "magnitude":
                have = abs(values[c.index])
                if abs(have - c.value) > cfg.tol(max(have, c.value)):
                    return False
            else:
                phase_targets.append((c.index, c.value))
        return phases_satisfied(values, phase_targets)

    keep = []
    for cls in solutions.classes:
        candidates = [cls.values]
        if solutions.modulo_reflection:
            candidates.append(np.conj(cls.values[::-1]))
        keep.append(any(satisfies(v) for v in candidates))
    return keep


def reference_verify(pair, cfg=DEFAULT_CONFIG, probes=None):
    """`verify_counterexample` decided for one pair on its own.

    Both signals are transformed over their actual support indices and
    canonicalised separately; unequal support lengths give infinite modulus,
    phase and canonical gaps.
    """
    if probes is None:
        probes = _probe_grid()
    intensity_gap = float(np.abs(fourier_intensity(pair.x, probes)
                                 - fourier_intensity(pair.y, probes)).max())
    vx, vy = pair.x.values, pair.y.values
    if vx.size == vy.size:
        modulus_gap = float(np.abs(np.abs(vx) - np.abs(vy)).max())
        phase_gap = float(np.abs(_wrap_angle(np.angle(vx) - np.angle(vy))).max())
    else:
        modulus_gap = phase_gap = float("inf")
    canonical_gap = form_distance(
        canonicalize(pair.x, modulo_reflection=True, cfg=cfg),
        canonicalize(pair.y, modulo_reflection=True, cfg=cfg))
    return {
        "intensity_gap": intensity_gap,
        "modulus_gap": modulus_gap,
        "phase_gap": phase_gap,
        "canonical_gap": canonical_gap,
    }


def reference_phase_partners(zeros, cfg=DEFAULT_CONFIG):
    """Reference signal and partners of `phase_counterexample`, class by class.

    The zeros must already be valid negative reals.  The reference signal's
    own class is the one whose canonical form is nearest to the reference's,
    by `form_distance`; every other class must be non-negative, checked one
    by one.  Raises ArithmeticError as `phase_counterexample` does.
    """
    items = [complex(z) for z in zeros]
    top_lag = np.prod([abs(z) for z in items])
    reference = synthesize(items, top_lag)
    pairs = pairs_from_zeros(items, leading=top_lag, cfg=cfg)
    solutions = enumerate_solutions(pairs, modulo_reflection=True, cfg=cfg)
    reference_form = canonicalize(reference, modulo_reflection=True, cfg=cfg)
    gaps = [form_distance(cls.values, reference_form) for cls in solutions.classes]
    own = int(np.argmin(gaps))
    if gaps[own] > _DEDUPE_TOL * float(np.abs(reference.values).max()):
        raise ArithmeticError("enumeration lost the reference signal's class")
    partners = []
    for idx, cls in enumerate(solutions.classes):
        if idx == own:
            continue
        partner = cls.signal()
        if float(np.abs(np.angle(partner.values)).max()) > cfg.tol(np.pi) * 100.0:
            raise ArithmeticError("enumerated class is not non-negative")
        partners.append(partner)
    return reference, partners


def reference_polish(desc, deriv, start, max_iter):
    """Scalar Newton iteration with the plain step rule: stop once the step is
    at most 4 eps max(1, |z|), or where the slope vanishes."""
    z = complex(start)
    for _ in range(max_iter):
        slope = np.polyval(deriv, z)
        if slope == 0:
            break
        step = np.polyval(desc, z) / slope
        z -= step
        if abs(step) <= 4.0 * _EPS * max(1.0, abs(z)):
            break
    return z


def reference_cluster_top_down(leftover, derivatives, abs_derivatives, found):
    """`factorization._cluster_top_down` decided seed by seed.

    For each multiplicity m from the number of remaining leftovers down to 1,
    each leftover in (real, imag) order gathers the leftovers within
    `_gather_radius(m)`, sorts them stably by distance and, given at least m,
    polishes the mean of the nearest m on the (m-1)-th derivative.  The first
    finite, multiplicity-consistent root is appended to `found` and its group
    removed; RootFindingError when no multiplicity places any group.
    """
    remaining = sorted(leftover, key=lambda z: (z.real, z.imag))
    while remaining:
        placed = False
        for mult in range(len(remaining), 0, -1):
            radius = _gather_radius(mult)
            for seed in remaining:
                span = radius * max(1.0, abs(seed))
                near = [w for w in remaining if abs(w - seed) <= span]
                if len(near) < mult:
                    continue
                near.sort(key=lambda w: abs(w - seed))
                group = near[:mult]
                root = reference_polish(derivatives[mult - 1], derivatives[mult],
                                        complex(np.mean(group)), _MAX_NEWTON_ITER)
                if not np.isfinite(root.real) or not np.isfinite(root.imag):
                    continue
                if not _multiplicity_consistent(derivatives, abs_derivatives, root, mult):
                    continue
                found.append((root, mult))
                for w in group:
                    remaining.remove(w)
                placed = True
                break
            if placed:
                break
        if not placed:
            raise RootFindingError(
                "root polishing did not converge to a certified multiplicity split",
                partial=found)
