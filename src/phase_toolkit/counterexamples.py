"""Constructive ambiguity families defeating common side information.

Knowing all component moduli, or all component phases, on top of the
Fourier intensity still fails to pin down a signal in general.  The two
factories here build explicit witnesses: a pair with identical moduli
everywhere, and families of distinct non-negative signals sharing one
intensity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .enumeration import _DEDUPE_TOL, enumerate_solutions, synthesize
from .factorization import pairs_from_zeros
from .signals import Signal, _canonical_rows, _wrap_angle


@dataclass(frozen=True, eq=False)
class CounterexamplePair:
    """Two signals sharing an intensity without being trivially equivalent.

    `shared_moduli` / `shared_phases` record which additional data the pair
    has in common (the intensity always matches).
    """

    x: Signal
    y: Signal
    shared_moduli: bool
    shared_phases: bool


def _probe_grid(count: int = 128) -> np.ndarray:
    # Fixed irrational offset keeps the probes away from symmetry points.
    return np.linspace(-np.pi, np.pi, count, endpoint=False) + 0.0123456789


def _verify_family(x: Signal, partners, probes) -> dict:
    """The gaps of `verify_counterexample` for x against each partner, as arrays.

    x and the partners are zero-padded rows, transformed in one product; the
    intensity depends on neither the padding nor the offsets.  x is
    canonicalised once, partners of its length together; a partner of another
    length is infinitely far in modulus, phase and canonical form.
    """
    signals = [x, *partners]
    lengths = np.array([s.support_len for s in signals])
    rows = np.zeros((lengths.size, lengths.max()), dtype=complex)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.concatenate([s.values for s in signals])
    waves = np.exp(-1j * np.multiply.outer(np.atleast_1d(probes), np.arange(rows.shape[1])))
    intensity = np.abs(waves @ rows.T) ** 2
    gaps = {"intensity_gap": np.abs(intensity[:, :1] - intensity[:, 1:]).max(axis=0)}
    # only rows of x's length are compared: a padded row can be all zero there
    vx, same = x.values, lengths[1:] == x.support_len
    vy = rows[1:][same, :vx.size]
    form_x = _canonical_rows(vx[None, :], True)[0]
    for key, gap in (("modulus_gap", np.abs(np.abs(vx) - np.abs(vy))),
                     ("phase_gap", np.abs(_wrap_angle(np.angle(vx) - np.angle(vy)))),
                     ("canonical_gap", np.abs(form_x - _canonical_rows(vy, True)[0]))):
        gaps[key] = np.full(len(partners), np.inf)
        gaps[key][same] = gap.max(axis=1)
    return gaps


def verify_counterexample(pair: CounterexamplePair, probes=None) -> dict:
    """Measured deviations of the pair's shared and differing properties.

    Returns a dict with the worst intensity gap over the probe grid, the
    worst componentwise modulus gap and wrapped phase gap, and the
    canonical-form distance modulo all trivial transforms.
    """
    return {key: float(gap[0]) for key, gap in _verify_family(
        pair.x, [pair.y], _probe_grid() if probes is None else probes).items()}


def magnitude_counterexample(support_len: int, split_radius: float,
                             repeated_radius: float,
                             cfg: ToleranceConfig = DEFAULT_CONFIG) -> CounterexamplePair:
    """A pair with equal intensity and equal componentwise moduli.

    The first signal's zeros are {r, -1/r} plus a repeated imaginary zero
    i*s of multiplicity N-3; swapping the real zeros for their reflections
    {1/r, -r} preserves every modulus but changes the signal.

    Args:
        support_len: support length N, at least 4.
        split_radius: radius r > 1 of the reciprocal real zero pair.
        repeated_radius: radius s > 1 of the repeated imaginary zero.
    """
    n = int(support_len)
    if n <= 3:
        raise ValueError("support length must exceed 3")
    r, s = float(split_radius), float(repeated_radius)
    if not np.isfinite([r, s]).all():
        raise ValueError("zero radii must be finite")
    if not (r > 1.0 and s > 1.0):
        raise ValueError("zero radii must exceed 1")
    zeros_x = [r, -1.0 / r] + [1j * s] * (n - 3)
    zeros_y = [1.0 / r, -r] + [1j * s] * (n - 3)
    # Common normalization: both zero multisets have the same modulus product.
    leading = s ** (n - 3)
    x = synthesize(zeros_x, leading)
    y = synthesize(zeros_y, leading)
    pair = CounterexamplePair(x, y, shared_moduli=True, shared_phases=False)
    report = verify_counterexample(pair)
    scale = float(np.abs(x.values).max())
    if report["modulus_gap"] > cfg.tol(scale) * 100.0:
        raise ArithmeticError("construction lost the shared moduli")
    if report["intensity_gap"] > cfg.tol(scale ** 2) * 100.0:
        raise ArithmeticError("construction lost the shared intensity")
    return pair


def phase_counterexample(zeros, support_len: int | None = None,
                         cfg: ToleranceConfig = DEFAULT_CONFIG) -> list:
    """All nontrivial ambiguities of a signal with negative real zeros.

    Every zero selection then has non-negative real components, so each
    enumerated class shares the full phase information arg x[n] = 0.  The
    input zeros give the reference signal; one pair per remaining class
    (modulo rotations, shifts and reflections) is returned.

    Args:
        zeros: N-1 negative real zeros; at least two must differ from -1,
            otherwise no nontrivial ambiguity exists.
        support_len: optional support length N for cross-validation.
    """
    items = [complex(z) for z in zeros]
    if not np.isfinite(items).all():
        raise ValueError("zeros must be finite")
    if support_len is not None and len(items) != int(support_len) - 1:
        raise ValueError(
            f"expected {int(support_len) - 1} zeros for support length {support_len}")
    if not items:
        raise ValueError("at least two zeros are required")
    for z in items:
        if abs(z.imag) > cfg.tol(abs(z)) or z.real >= 0:
            raise ValueError(f"zero {z!r} is not a negative real")
    off_circle = [z for z in items if abs(abs(z) - 1.0) > cfg.circle_tol]
    if len(off_circle) < 2:
        raise ValueError("no nontrivial ambiguity exists")

    # the top lag a[N-1] of the reference, which trimming its values can lose
    top_lag = np.prod([abs(z) for z in items])
    reference = synthesize(items, top_lag)
    pairs = pairs_from_zeros(items, leading=top_lag, cfg=cfg)
    classes = list(enumerate_solutions(pairs, modulo_reflection=True).classes)
    # class values are canonical modulo reflection: the nearest holds the reference
    form = _canonical_rows(reference.values[None, :], True)[0][0]
    gaps = [np.abs(cls.values - form).max() if cls.values.size == form.size else np.inf
            for cls in classes]
    own = int(np.argmin(gaps))
    if gaps[own] > _DEDUPE_TOL * float(np.abs(reference.values).max()):
        raise ArithmeticError("enumeration lost the reference signal's class")
    del classes[own]
    if classes and np.abs(np.angle(np.concatenate([cls.values for cls in classes]))).max() \
            > cfg.tol(np.pi) * 100.0:
        raise ArithmeticError("enumerated class is not non-negative")
    return [CounterexamplePair(reference, cls.signal(), shared_moduli=False, shared_phases=True)
            for cls in classes]
