"""Enumeration of all signals sharing a Fourier intensity.

Every solution picks one member from each zero pair occurrence; a pair of
multiplicity m therefore contributes m+1 distinct multiset choices.  The
enumerated signals are reduced to canonical forms, deduplicated, and can
be filtered by known moduli or phases of individual components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .factorization import (ZeroPairSet, associated_polynomial, find_roots,
                            pair_roots)
from .signals import (Autocorrelation, CanonicalForm, Signal, canonicalize,
                      form_distance, _wrap_angle)


@dataclass(frozen=True)
class ZeroSelection:
    """One chosen zero per pair occurrence, identifying a solution class.

    How many occurrences of each pair picked the reflected member is kept
    once, as the `mask` of the `SolutionClass` this selection produced.
    """

    zeros: tuple


@dataclass(frozen=True)
class Constraint:
    """Known modulus or phase of the component at `index` (support at zero)."""

    kind: str
    index: int
    value: float

    def __post_init__(self):
        if self.kind not in ("magnitude", "phase"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        value = float(self.value)
        if not np.isfinite(value):
            raise ValueError("constraint value must be finite")
        if self.kind == "magnitude" and value < 0:
            raise ValueError("magnitude constraints must be non-negative")
        object.__setattr__(self, "index", int(self.index))
        object.__setattr__(self, "value", value)


@dataclass(frozen=True, eq=False)
class SolutionClass:
    """A deduplicated solution: canonical form plus the selection that produced it."""

    canonical: CanonicalForm
    mask: tuple
    selection: ZeroSelection | None = None

    @property
    def values(self) -> np.ndarray:
        return self.canonical.values

    def signal(self) -> Signal:
        return Signal(0, self.canonical.values)


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """Solution classes of one intensity, in deterministic enumeration order.

    `near_collisions` counts encounters between forms that were distinct
    yet within ten times the dedupe tolerance; a nonzero value flags that
    the class count is numerically fragile.
    """

    classes: tuple
    total_enumerated: int
    modulo_reflection: bool = False
    near_collisions: int = 0

    def __len__(self) -> int:
        return len(self.classes)


def synthesize(selection, leading: complex, rotation: float = 0.0,
               offset: int = 0) -> Signal:
    """Signal with the given zero multiset and intensity normalization.

    Args:
        selection: ZeroSelection or plain iterable of zeros (none may be 0).
        leading: top autocorrelation coefficient a[N-1]; only its modulus
            enters the amplitude.
        rotation: global phase angle.
        offset: first support index.
    """
    if isinstance(selection, ZeroSelection):
        zeros = selection.zeros
    else:
        zeros = tuple(complex(z) for z in selection)
    if any(z == 0 for z in zeros):
        raise ValueError("zero selections must avoid the origin")
    moduli = np.array([abs(z) for z in zeros], dtype=float)
    amplitude = np.sqrt(abs(leading) / moduli.prod()) if zeros else np.sqrt(abs(leading))
    coeffs = np.ones(1, dtype=complex)
    for z in zeros:
        coeffs = np.convolve(coeffs, np.array([-z, 1.0], dtype=complex))
    return Signal(offset, np.exp(1j * float(rotation)) * amplitude * coeffs)


def enumerate_solutions(pairs: ZeroPairSet, modulo_reflection: bool = False,
                        cfg: ToleranceConfig = DEFAULT_CONFIG) -> SolutionSet:
    """All solution classes generated by a zero pair set.

    On-circle pairs admit a single choice; off-circle pairs of multiplicity
    m admit m+1.  Classes are deduplicated by canonical form, keeping the
    first selection encountered as representative.
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


def _phases_satisfied(values: np.ndarray, targets, cfg: ToleranceConfig) -> bool:
    """Check phase constraints after fitting the free global rotation.

    Components at rounding level carry no phase information and satisfy any
    target; the rotation is the circular mean of the remaining mismatches.
    """
    scale = float(np.abs(values).max())
    active = [(idx, want) for idx, want in targets
              if abs(values[idx]) > cfg.tol(scale)]
    if not active:
        return True
    gaps = np.array([want - np.angle(values[idx]) for idx, want in active])
    rotation = float(np.angle(np.exp(1j * gaps).sum()))
    worst = float(np.abs(_wrap_angle(gaps - rotation)).max())
    return worst <= cfg.tol(np.pi)


def _representative_satisfies(values: np.ndarray, constraints,
                              cfg: ToleranceConfig) -> bool:
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
    return _phases_satisfied(values, phase_targets, cfg)


def filter_by_constraints(solutions: SolutionSet, constraints,
                          cfg: ToleranceConfig = DEFAULT_CONFIG) -> SolutionSet:
    """Keep classes with a trivially-equivalent representative meeting all constraints.

    Rotation freedom is handled by a closed-form circular-mean fit over the
    phase constraints; when the set was enumerated modulo reflection, the
    reflected orientation of each class is tried as well.
    """
    wanted = list(constraints)
    for c in wanted:
        if c.index < 0:
            raise ValueError(f"constraint index {c.index} is negative")
        if solutions.classes and c.index >= solutions.classes[0].values.size:
            raise ValueError(
                f"constraint index {c.index} outside the support of length "
                f"{solutions.classes[0].values.size}")
    kept = []
    for cls in solutions.classes:
        candidates = [cls.canonical.values]
        if solutions.modulo_reflection:
            candidates.append(np.conj(cls.canonical.values[::-1]))
        if any(_representative_satisfies(v, wanted, cfg) for v in candidates):
            kept.append(cls)
    return SolutionSet(tuple(kept), solutions.total_enumerated,
                       solutions.modulo_reflection, solutions.near_collisions)


def recover(acf: Autocorrelation, constraints=(),
            cfg: ToleranceConfig = DEFAULT_CONFIG,
            modulo_reflection: bool = False) -> SolutionSet:
    """Every solution class of an autocorrelation, filtered by constraints."""
    poly = associated_polynomial(acf, cfg)
    roots = find_roots(poly, cfg)
    pairs = pair_roots(roots, cfg, leading=poly.leading)
    solutions = enumerate_solutions(pairs, modulo_reflection=modulo_reflection, cfg=cfg)
    return filter_by_constraints(solutions, constraints, cfg)
