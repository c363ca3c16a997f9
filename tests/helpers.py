"""Shared helpers for the test suite."""

import itertools

import numpy as np

from phase_toolkit import (DEFAULT_CONFIG, Constraint, SolutionClass,
                           SolutionSet, ZeroSelection, autocorrelation,
                           canonicalize, enumerate_solutions,
                           filter_by_constraints, form_distance,
                           pairs_from_zeros, synthesize)


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
    x = synthesize(zeros, float(np.prod(np.abs(zeros))))
    top_lag = complex(np.conj(x.values[0]) * x.values[-1])
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
        zeros = []
        for pair, flipped in zip(pairs.pairs, counts):
            zeros.extend([pair.reflected] * flipped)
            zeros.extend([pair.zero] * (pair.multiplicity - flipped))
        selection = ZeroSelection(tuple(zeros))
        form = canonicalize(synthesize(selection, pairs.leading),
                            modulo_reflection=modulo_reflection, cfg=cfg)
        total += 1
        matched = False
        for existing in classes:
            gap = form_distance(existing.canonical, form)
            scale = float(max(np.abs(form.values).max(),
                              np.abs(existing.canonical.values).max()))
            if gap <= cfg.dedupe_tol * scale:
                matched = True
                break
            if gap <= 10.0 * cfg.dedupe_tol * scale:
                near += 1
        if not matched:
            classes.append(SolutionClass(form, tuple(counts), selection))
    return SolutionSet(tuple(classes), total, modulo_reflection, near)


def assert_same_solutions(got, want):
    """Equal solution sets: counts, order, masks, flags, selections, bitwise values."""
    assert got.total_enumerated == want.total_enumerated
    assert got.modulo_reflection == want.modulo_reflection
    assert got.near_collisions == want.near_collisions
    assert [c.mask for c in got.classes] == [c.mask for c in want.classes]
    for a, b in zip(got.classes, want.classes):
        assert a.canonical.reflected == b.canonical.reflected
        assert a.selection.zeros == b.selection.zeros
        assert a.values.tobytes() == b.values.tobytes()
