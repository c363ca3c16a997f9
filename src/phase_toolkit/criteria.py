"""Uniqueness criteria decided from the zero set of one solution.

Each criterion asks whether some admissible subset of the zeros can be
reflected across the unit circle without breaking the side information
(known moduli or phases of individual components).  The tests are exact
algebraic identities in the elementary symmetric polynomials S_l of the
zero set, evaluated within a tolerance band.  Up to sign and amplitude,
S_l is the coefficient x[N-1-l] of the signal with those zeros, so every
criterion compares columns of one `reflection_table` with its first row.
The table is a view of the selection kernel in `enumeration`; admissibility
is a boolean over its row indices, and both are built once per zero set.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .enumeration import _selection_table
from .factorization import _PAIR_TOL

ROTATION = "rotation"
ROTATION_REFLECTION = "rotation_reflection"


def _zeros_of(zeros) -> tuple:
    return tuple(complex(z) for z in zeros)


def reflection_table(zeros, reflectable=()) -> np.ndarray:
    """Rows w * S_0..S_k for every choice of reflected `reflectable` positions.

    Bit j of the row index, counted from the most significant, reflects the
    zero z at the j-th smallest reflectable position to 1/conj(z); w is the
    product of |z| over the reflected zeros, so row 0 is S of the zeros
    themselves.  The selection kernel's monic coefficient of t^(k-l) is
    (-1)^l S_l, and w = sqrt(prod |z| / prod of the chosen |z|).
    """
    items = _zeros_of(zeros)
    reflectable = set(reflectable)
    if any(items[p] == 0 for p in reflectable):
        raise ValueError("cannot reflect a zero at the origin")
    rows, norms = _selection_table(((z,), (1.0 / z.conjugate(),)) if p in reflectable
                                   else ((z,),) for p, z in enumerate(items))
    signs = (-1.0) ** np.arange(len(items) + 1)
    return np.sqrt(norms[0] / norms)[:, None] * signs * rows[:, ::-1]


def elementary_symmetric_all(zeros) -> np.ndarray:
    """All elementary symmetric polynomials S_0..S_k of a zero multiset."""
    return reflection_table(zeros)[0]


def elementary_symmetric(zeros, order: int) -> complex:
    """S_order of the multiset; zero outside 0..len(zeros)."""
    items = _zeros_of(zeros)
    if order < 0 or order > len(items):
        return 0j
    return complex(elementary_symmetric_all(items)[order])


def modified_zero_set(zeros, subset) -> tuple:
    """Reflect the zeros at the given positions across the unit circle."""
    out = list(_zeros_of(zeros))
    for position in subset:
        z = out[position]
        if z == 0:
            raise ValueError("cannot reflect a zero at the origin")
        out[position] = 1.0 / z.conjugate()
    return tuple(out)


@dataclass(frozen=True)
class SubsetFamily:
    """Admissible reflection subsets over the positions of a zero multiset.

    Positions holding on-circle zeros are fixed points of the reflection
    and never enter a subset.  When two positions hold zeros that are
    mutual reflections, reflecting both merely permutes the multiset, so
    such complete pairs are excluded as well.  The optional flags drop the
    subset of all free (unpaired, off-circle) positions or the exact full
    set; those reflections reproduce a conjugate-reflected signal rather
    than a new one.
    """

    zeros: tuple
    exclude_full_free: bool = False
    exclude_exact_full: bool = False
    cfg: ToleranceConfig = field(default=DEFAULT_CONFIG)

    def __post_init__(self):
        object.__setattr__(self, "zeros", _zeros_of(self.zeros))

    def eligible_positions(self) -> tuple:
        return _positions(self.zeros, self.cfg)[0]

    def internal_pairs(self) -> tuple:
        return _positions(self.zeros, self.cfg)[1]

    def free_positions(self) -> tuple:
        eligible, _, _, free = _positions(self.zeros, self.cfg)
        return tuple(p for j, p in enumerate(eligible) if free >> (len(eligible) - 1 - j) & 1)

    def _admitted(self):
        """Admissible rows of the shared `_selection`, in `masks()` order."""
        eligible, _, bits, rows, free, _ = _selection(self.zeros, self.cfg)
        if self.exclude_full_free:
            rows = rows[rows != free]
        if self.exclude_exact_full and len(eligible) == len(self.zeros):
            rows = rows[rows != len(bits) - 1]
        return rows

    def _masks(self, rows) -> list:
        eligible, _, bits, *_ = _selection(self.zeros, self.cfg)
        return [tuple(itertools.compress(eligible, b)) for b in bits[rows].tolist()]

    def masks(self):
        """Yield admissible subsets as sorted position tuples."""
        yield from self._masks(self._admitted())


@functools.lru_cache(maxsize=1)
def _positions(zeros: tuple, cfg: ToleranceConfig):
    """Eligible positions, internal pairs, the row bits of each pair, and the free-set row.

    Internal pairs come from the upper triangle in `itertools.combinations`
    order.  Row r reflects the eligible positions whose bits are set, the
    first the most significant.  One entry serves one zero set.
    """
    items = np.array(zeros, dtype=complex)
    eligible = np.flatnonzero(np.abs(np.abs(items) - 1.0) > cfg.circle_tol)
    moved = items[eligible]
    first, second = np.nonzero(np.triu(
        np.abs(np.multiply.outer(moved, moved.conj()) - 1.0) <= _PAIR_TOL, 1))
    weight = 1 << np.arange(eligible.size)[::-1]
    both = weight[first] | weight[second]
    free = ((1 << eligible.size) - 1) & ~int(np.bitwise_or.reduce(both, initial=0))
    pairs = tuple(zip(eligible[first].tolist(), eligible[second].tolist()))
    return tuple(eligible.tolist()), pairs, both, free


@functools.lru_cache(maxsize=1)
def _selection(zeros: tuple, cfg: ToleranceConfig):
    """Eligible positions, internal pairs, bits per row, admissible rows, free-set row, table.

    Positions, pairs and the free row are those of `_positions`.  Admissible
    rows reflect something but no complete internal pair, by popcount, then
    by descending index: within a popcount, the lexicographic order of
    position tuples.  One entry serves one zero set.
    """
    eligible, pairs, both, free = _positions(zeros, cfg)
    index = np.arange(1 << len(eligible))
    bits = (index[:, None] & (1 << np.arange(len(eligible))[::-1])) != 0
    rows = np.flatnonzero((index != 0) & ~((index[:, None] & both) == both).any(axis=1))[::-1]
    rows = rows[np.argsort(bits[rows].sum(axis=1), kind="stable")]
    table = reflection_table(zeros, [p for p in eligible if zeros[p] != 0])
    table.flags.writeable = False
    return eligible, pairs, bits, rows, free, table


@dataclass(frozen=True)
class Violation:
    """An admissible subset meeting the ambiguity condition, with its residual."""

    mask: tuple
    residual: float


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Outcome of a uniqueness criterion.

    `equivalence_kind` names the quotient under which uniqueness is
    claimed.  `borderline` is set when some subset lands within a decade of
    the decision band, meaning the verdict deserves a cross-check against
    brute-force enumeration.
    """

    unique: bool
    equivalence_kind: str
    violations: tuple
    borderline: bool = False


def _in_band(residual, cfg: ToleranceConfig):
    return (0.1 * cfg.criterion_tol < residual) & (residual <= 10.0 * cfg.criterion_tol)


def _checked_zeros(zeros, support_len: int):
    items = _zeros_of(zeros)
    n = int(support_len)
    if len(items) != n - 1:
        raise ValueError(f"expected {n - 1} zeros, got {len(items)}")
    return items, n


def _family_rows(family: SubsetFamily):
    """Admissible rows, the reflection table, and its reference row (column 0 is w)."""
    rows = family._admitted()
    eligible, *_, table = _selection(family.zeros, family.cfg)
    # exactly when an admitted row reflects the origin: it pairs with nothing, so
    # {origin} and each {origin, p} are admissible and a flag drops one row; an
    # origin eligible alone has one row, the free row
    if rows.size and any(family.zeros[p] == 0 for p in eligible):
        raise ValueError("cannot reflect a zero at the origin")
    return rows, table, table[0]


def _report(family, rows, residuals, meets, borderline, kind: str = ROTATION) -> CriterionReport:
    hit = np.flatnonzero(meets)
    violations = tuple(map(Violation, family._masks(rows[hit]), residuals[hit].tolist()))
    return CriterionReport(not violations, kind, violations, bool(np.any(borderline)))


def check_magnitude_uniqueness(zeros, end_offset: int, support_len: int,
                               cfg: ToleranceConfig = DEFAULT_CONFIG) -> CriterionReport:
    """Is a signal determined by its intensity plus |x[N-1-end_offset]|?

    For odd support length and the centered component the claim is modulo
    rotations and conjugate reflections (the reflection always preserves
    the centered modulus), otherwise modulo rotations alone.
    """
    items, n = _checked_zeros(zeros, support_len)
    if not 0 <= end_offset <= n - 1:
        raise ValueError(f"component offset {end_offset} outside 0..{n - 1}")
    centered = (n % 2 == 1) and (end_offset == (n - 1) // 2)
    family = SubsetFamily(items, exclude_full_free=centered, cfg=cfg)
    rows, table, reference = _family_rows(family)
    target, candidate = abs(reference[end_offset]), np.abs(table[rows, end_offset])
    residuals = np.abs(target - candidate) / np.maximum(np.maximum(target, candidate), 1.0)
    kind = ROTATION_REFLECTION if centered else ROTATION
    return _report(family, rows, residuals, residuals <= cfg.criterion_tol,
                   _in_band(residuals, cfg), kind)


def check_all_moduli_uniqueness(zeros, support_len: int,
                                cfg: ToleranceConfig = DEFAULT_CONFIG) -> CriterionReport:
    """Is a signal determined by its intensity plus all component moduli?

    Non-uniqueness requires one admissible reflection subset to preserve
    every componentwise modulus at once.  If every such subset produces the
    fully reflected zero multiset, the only ambiguity is the conjugate
    reflection itself and the equivalence is widened accordingly.
    """
    items, _ = _checked_zeros(zeros, support_len)
    family = SubsetFamily(items, cfg=cfg)
    rows, table, reference = _family_rows(family)
    target, candidate = np.abs(reference), np.abs(table[rows])
    residuals = np.abs(target - candidate) / np.maximum(np.maximum(target, candidate), 1.0)
    worst = residuals.max(axis=1)
    report = _report(family, rows, worst, worst <= cfg.criterion_tol, _in_band(residuals, cfg))
    if not report.violations:
        return report
    full_reflection = sorted(modified_zero_set(items, range(len(items))),
                             key=lambda z: (z.real, z.imag))
    limit = cfg.tol(max(abs(z) for z in items))
    for violation in report.violations:
        ordered = sorted(modified_zero_set(items, violation.mask),
                         key=lambda z: (z.real, z.imag))
        gaps = [abs(a - b) for a, b in zip(ordered, full_reflection)]
        if max(gaps, default=0.0) > limit:
            return report
    # every modulus-preserving subset is the conjugate reflection itself,
    # so the signal is determined once that reflection is identified away
    return CriterionReport(True, ROTATION_REFLECTION, (), report.borderline)


def _balance_report(pivot: complex, partner, cfg: ToleranceConfig):
    """Evaluate the alignment conditions Im(conj(pivot) * partner) = 0, Re >= 0."""
    aligned = np.conj(pivot) * partner
    scale = np.maximum(abs(pivot) * np.abs(partner), 1.0)
    cross = np.abs(aligned.imag) / scale
    meets = (cross <= cfg.criterion_tol) & (aligned.real >= -cfg.criterion_tol * scale)
    borderline = _in_band(cross, cfg) | (np.abs(aligned.real) / scale <= 10.0 * cfg.criterion_tol)
    return cross, meets, borderline


def check_phase_uniqueness_endpoint(zeros, end_offset: int, support_len: int,
                                    cfg: ToleranceConfig = DEFAULT_CONFIG) -> CriterionReport:
    """Is a signal determined by its intensity plus arg x[N-1] and arg x[N-1-end_offset]?

    The signal is ambiguous exactly when some admissible reflection subset
    keeps S_end_offset of the zero set aligned (zero cross term, non-negative
    dot term) with its reflected counterpart.
    """
    items, n = _checked_zeros(zeros, support_len)
    if not 1 <= end_offset <= n - 2:
        raise ValueError(f"component offset {end_offset} outside 1..{n - 2}")
    family = SubsetFamily(items, cfg=cfg)
    rows, table, reference = _family_rows(family)
    partner = table[rows, end_offset] / table[rows, 0].real
    return _report(family, rows, *_balance_report(reference[end_offset], partner, cfg))


def check_phase_uniqueness_two_points(zeros, first_offset: int, second_offset: int,
                                      support_len: int,
                                      cfg: ToleranceConfig = DEFAULT_CONFIG) -> CriterionReport:
    """Is a signal determined by its intensity plus two interior phases?

    The phases of x[N-1-first_offset] and x[N-1-second_offset] are known.
    When the two offsets sum to N-1 the conjugate reflection always
    survives, so the full reflection subset is excluded and uniqueness is
    claimed modulo rotations and reflections.
    """
    items, n = _checked_zeros(zeros, support_len)
    for offset in (first_offset, second_offset):
        if not 1 <= offset <= n - 2:
            raise ValueError(f"component offset {offset} outside 1..{n - 2}")
    if first_offset == second_offset:
        raise ValueError("the two component offsets must differ")
    symmetric = (first_offset + second_offset == n - 1)
    family = SubsetFamily(items, exclude_exact_full=symmetric, cfg=cfg)
    rows, table, reference = _family_rows(family)
    weight = table[rows, 0].real
    partner = (np.conj(table[rows, second_offset] / weight) * reference[second_offset]
               * (table[rows, first_offset] / weight))
    kind = ROTATION_REFLECTION if symmetric else ROTATION
    return _report(family, rows, *_balance_report(reference[first_offset], partner, cfg), kind)
