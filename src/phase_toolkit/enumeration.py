"""Enumeration of all signals sharing a Fourier intensity.

Every solution picks one member from each zero pair occurrence; a pair of
multiplicity m therefore contributes m+1 distinct multiset choices.  The
enumerated signals are reduced to canonical forms, deduplicated, and can
be filtered by known moduli or phases of individual components.

Enumeration works on arrays.  One selection kernel, `_selection_table`,
multiplies out every choice of one branch per slot, one row of coefficients
per choice: every row splits into one branch per choice of the next slot,
multiplied out by the linear factors of that branch.  `enumerate_solutions`
passes one slot per zero pair, `synthesize` one single-branch slot per zero,
and `criteria.reflection_table` one slot per zero with a reflected branch.
The rows are canonicalised together (`signals` applies the phase pivot and
the reflection choice row-wise).  The dedupe sorts the forms by one column
and cuts them into runs wherever neighbouring keys differ by more than ten
times the dedupe tolerance; only forms in the same run are ever compared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .factorization import (ZeroPairSet, associated_polynomial, find_roots,
                            pair_roots)
from .signals import (Autocorrelation, Signal, _canonical_rows,
                      _support_bounds, _wrap_angle)

_DEDUPE_TOL = 1e-7  # canonical-form distance, relative to the larger peak, of one class


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
    """A deduplicated solution: its canonical row and the choice that produced it.

    `values` is a read-only canonical row (support at zero), a view into the
    rows kept for its support length.  `mask` holds, per zero pair, how many
    occurrences picked the reflected member; with the pairs it fixes the
    zeros.  `reflected` records whether the mirrored orientation was chosen.
    """

    values: np.ndarray
    mask: tuple
    reflected: bool = False

    def signal(self) -> Signal:
        return Signal(0, self.values)


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


def _times_linear(rows: np.ndarray, norms: np.ndarray, z: complex):
    """Multiply every row of ascending coefficients by (t - z); norms gain |z| (1 at 0)."""
    out = np.empty((rows.shape[0], rows.shape[1] + 1), dtype=complex)
    np.multiply(rows, -z, out=out[:, :-1])
    out[:, -1] = 0.0
    out[:, 1:] += rows
    return out, norms * (abs(z) or 1.0)


def _scaled(rows: np.ndarray, norms: np.ndarray, leading: complex,
            rotation: float = 0.0) -> np.ndarray:
    """Apply the intensity amplitude sqrt(|leading| / prod |z|) and a rotation per row."""
    amplitude = np.sqrt(abs(leading) / norms)
    return (np.exp(1j * float(rotation)) * amplitude)[:, None] * rows


def _checked(zeros) -> tuple:
    zeros = tuple(complex(z) for z in zeros)
    if any(z == 0 for z in zeros):
        raise ValueError("zero selections must avoid the origin")
    return zeros


def synthesize(selection, leading: complex, rotation: float = 0.0,
               offset: int = 0) -> Signal:
    """Signal with the given zero multiset and intensity normalization.

    Args:
        selection: iterable of zeros (none may be 0).
        leading: top autocorrelation coefficient a[N-1]; only its modulus
            enters the amplitude.
        rotation: global phase angle.
        offset: first support index.

    This is the one-row case of the selection table in `enumerate_solutions`.
    """
    rows, norms = _selection_table([((z,),) for z in _checked(selection)])
    return Signal(offset, _scaled(rows, norms, leading, rotation)[0])


def _selection_table(slots):
    """Monic coefficients and `_times_linear` norms of every choice of one branch per slot.

    Each slot is a tuple of branches of equal length, each a sequence of
    zeros.  Branches of the last slot vary fastest, so row i is the i-th
    choice in `itertools.product` order.
    """
    rows, norms = np.ones((1, 1), dtype=complex), np.ones(1)
    for branches in slots:
        grown = []
        for zeros in branches:
            branch = rows, norms
            for z in zeros:
                branch = _times_linear(*branch, z)
            grown.append(branch)
        width = grown[0][0].shape[1]
        rows = np.stack([r for r, _ in grown], axis=1).reshape(-1, width)
        norms = np.stack([n for _, n in grown], axis=1).reshape(-1)
    return rows, norms


def _replay(forms: np.ndarray, peaks: np.ndarray, rows: np.ndarray, kept: np.ndarray) -> int:
    """Greedy dedupe pass over `rows`, given in first-seen order.

    Each row is compared with the representatives before it.  Clears `kept`
    for merged rows and returns the near-collision count.
    """
    reps = rows[:1]
    near = 0
    for i in rows[1:].tolist():
        gap = np.abs(forms[reps] - forms[i]).max(axis=1)
        scale = np.maximum(peaks[i], peaks[reps])
        merges = np.flatnonzero(gap <= _DEDUPE_TOL * scale)
        checked = merges[0] if merges.size else reps.size
        near += int(np.count_nonzero(gap[:checked] <= 10.0 * _DEDUPE_TOL * scale[:checked]))
        if merges.size:
            kept[i] = False
        else:
            reps = np.append(reps, i)
    return near


def _dedupe(forms: np.ndarray):
    """First-seen greedy dedupe of equal-length canonical forms.

    A form merges into the first earlier representative within
    `_DEDUPE_TOL` * scale (scale the larger peak modulus of the two); every
    representative checked before that within ten times the tolerance is a
    near collision.  The forms are sorted by the real part of one column (the
    one that spreads widest) and cut into runs wherever neighbouring keys
    differ by more than ten times the tolerance at the largest peak.  Forms
    in different runs differ by more than that in this column, so they can
    neither merge nor count, and the greedy pass replays within each run.
    Returns the indices of the representatives and the near-collision count.
    """
    peaks = np.abs(forms).max(axis=1)
    near_tol = 10.0 * _DEDUPE_TOL
    keys = forms[:, int(np.argmax(np.ptp(forms.real, axis=0)))].real
    order = np.argsort(keys, kind="stable")
    # widened by a relative 1e-9 so that rounding in the keys cannot split a close pair
    reach = near_tol * float(peaks.max()) * (1.0 + 1e-9)
    starts = np.flatnonzero(np.diff(keys[order], prepend=-np.inf) > reach)
    sizes = np.diff(starts, append=forms.shape[0])
    kept = np.ones(forms.shape[0], dtype=bool)
    near = 0
    # a run of two, such as a form and its mirror image: the later one only
    # checks the earlier one, so all such runs are settled at once
    twos = np.sort(order[starts[sizes == 2, None] + np.arange(2)], axis=1)
    earlier, later = twos[:, 0], twos[:, 1]
    gap = np.abs(forms[earlier] - forms[later]).max(axis=1)
    scale = np.maximum(peaks[later], peaks[earlier])
    merges = gap <= _DEDUPE_TOL * scale
    kept[later[merges]] = False
    near += int(np.count_nonzero(~merges & (gap <= near_tol * scale)))
    for start, size in zip(starts[sizes > 2].tolist(), sizes[sizes > 2].tolist()):
        near += _replay(forms, peaks, np.sort(order[start:start + size]), kept)
    return np.flatnonzero(kept), near


def enumerate_solutions(pairs: ZeroPairSet, modulo_reflection: bool = False,
                        cfg: ToleranceConfig = DEFAULT_CONFIG) -> SolutionSet:
    """All solution classes generated by a zero pair set.

    On-circle pairs admit a single choice; off-circle pairs of multiplicity
    m admit m+1.  Classes are deduplicated by canonical form, keeping the
    first selection encountered as representative.

    The work runs in three array stages: the selection table builds every
    selection signal at once (row i is the i-th choice in `itertools.product`
    order); rows are trimmed as `Signal` trims them and canonicalised
    together; and the dedupe sorts the forms of each support length by one
    column and replays the greedy pass only within runs of near-equal keys.
    The result equals a per-selection `canonicalize(synthesize(...))` loop
    with a pairwise `form_distance` dedupe, including `near_collisions`.
    """
    sizes = tuple(1 if p.on_circle else p.multiplicity + 1 for p in pairs.pairs)
    # choice f of a pair: f reflected members first, then the kept ones
    choices = [[_checked([p.reflected] * f + [p.zero] * (p.multiplicity - f)) for f in range(size)]
               for p, size in zip(pairs.pairs, sizes)]
    table = _scaled(*_selection_table(choices), pairs.leading)
    live, first, last = _support_bounds(table)
    if not live.all():
        raise ValueError("empty support")
    lengths = last - first + 1
    found = []
    near = 0
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        values = table[rows[:, None], first[rows, None] + np.arange(length)]
        forms, reflected = _canonical_rows(values, modulo_reflection, cfg)
        kept, collisions = _dedupe(forms)
        near += collisions
        # the classes of this length take their rows as views of one read-only block
        block = forms[kept]
        block.setflags(write=False)
        found.extend(zip(rows[kept].tolist(), block, reflected[kept].tolist()))
    found.sort(key=lambda item: item[0])
    kept_rows = np.array([row for row, _, _ in found], dtype=np.intp)
    masks = (np.column_stack(np.unravel_index(kept_rows, sizes)) if sizes
             else np.zeros((kept_rows.size, 0), dtype=np.intp))
    classes = tuple(SolutionClass(values, mask, reflected) for mask, (_, values, reflected)
                    in zip(map(tuple, masks.tolist()), found))
    return SolutionSet(classes, int(table.shape[0]), modulo_reflection, near)


def _rows_satisfy(rows: np.ndarray, constraints, cfg: ToleranceConfig) -> np.ndarray:
    """Which rows of a (K, L) array meet every constraint, up to a global rotation.

    A modulus passes within cfg.tol of the larger of the two moduli.  Phase
    targets at components of rounding level (cfg.tol of the row's peak)
    carry no phase information and pass; the rotation is the circular mean
    of the remaining mismatches.  An index outside the row fails it.
    """
    if any(c.index >= rows.shape[1] for c in constraints):
        return np.zeros(rows.shape[0], dtype=bool)
    mags = np.abs(rows)
    moduli = [c for c in constraints if c.kind == "magnitude"]
    phases = [c for c in constraints if c.kind == "phase"]
    have, want = mags[:, [c.index for c in moduli]], np.array([c.value for c in moduli])
    ok = (np.abs(have - want) <= cfg.atol + cfg.rtol * np.maximum(have, want)).all(axis=1)
    if phases:
        at, want = [c.index for c in phases], np.array([c.value for c in phases])
        active = mags[:, at] > cfg.atol + cfg.rtol * mags.max(axis=1, keepdims=True)
        gaps = want - np.angle(rows[:, at])
        rotation = np.angle(np.where(active, np.exp(1j * gaps), 0).sum(axis=1, keepdims=True))
        worst = np.where(active, np.abs(_wrap_angle(gaps - rotation)), 0.0).max(axis=1)
        ok &= worst <= cfg.tol(np.pi)
    return ok


def filter_by_constraints(solutions: SolutionSet, constraints,
                          cfg: ToleranceConfig = DEFAULT_CONFIG) -> SolutionSet:
    """Keep classes with a trivially-equivalent representative meeting all constraints.

    Rotation freedom is handled by a closed-form circular-mean fit over the
    phase constraints; when the set was enumerated modulo reflection, the
    reflected orientation of each class is tried as well.
    """
    wanted = list(constraints)
    lengths = np.array([cls.values.size for cls in solutions.classes], dtype=np.intp)
    for c in wanted:
        if c.index < 0:
            raise ValueError(f"constraint index {c.index} is negative")
        # checked against the longest class; a shorter class fails the index
        if lengths.size and c.index >= lengths.max():
            raise ValueError(
                f"constraint index {c.index} outside the support of length {lengths.max()}")
    keep = np.zeros(lengths.size, dtype=bool)
    for length in np.unique(lengths):
        at = np.flatnonzero(lengths == length)
        rows = np.stack([solutions.classes[i].values for i in at])
        keep[at] = _rows_satisfy(rows, wanted, cfg)
        if solutions.modulo_reflection:
            keep[at] |= _rows_satisfy(np.conj(rows[:, ::-1]), wanted, cfg)
    return SolutionSet(tuple(itertools.compress(solutions.classes, keep)),
                       solutions.total_enumerated, solutions.modulo_reflection,
                       solutions.near_collisions)


def recover(acf: Autocorrelation, constraints=(),
            cfg: ToleranceConfig = DEFAULT_CONFIG,
            modulo_reflection: bool = False) -> SolutionSet:
    """Every solution class of an autocorrelation, filtered by constraints."""
    poly = associated_polynomial(acf, cfg)
    roots = find_roots(poly)
    pairs = pair_roots(roots, cfg, leading=poly.leading)
    solutions = enumerate_solutions(pairs, modulo_reflection=modulo_reflection, cfg=cfg)
    return filter_by_constraints(solutions, constraints, cfg)
