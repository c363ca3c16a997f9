"""Shared numerical tolerances.

Comparisons follow the pattern ``|delta| <= atol + rtol * scale`` where
``scale`` is the largest magnitude relevant to the comparison, so the
defaults below act as both absolute floors and relative bands.  The
canonical order of signals is purely relative: ``cfg.tol(1)`` times the
peak modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerance knobs used across the pipeline, one per CLI flag.

    atol, rtol        general closeness band
    circle_tol        radial band inside which a zero is snapped onto the
                      unit circle
    criterion_tol     equality band for the uniqueness criteria

    The other thresholds are constants beside the code that reads them, not
    knobs: support trimming (`signals._TRIM_THRESHOLD`), root certification
    (`factorization._CLUSTER_RADIUS`, `_RESIDUAL_TOL`, `_MAX_NEWTON_ITER`),
    reflected-pair matching (`factorization._PAIR_TOL`) and the class dedupe
    (`enumeration._DEDUPE_TOL`).
    """

    atol: float = 1e-9
    rtol: float = 1e-9
    circle_tol: float = 1e-8
    criterion_tol: float = 1e-8

    def __post_init__(self):
        for entry in fields(self):
            value = getattr(self, entry.name)
            if not value > 0:
                raise ValueError(f"{entry.name} must be positive, got {value!r}")

    def tol(self, scale: float = 1.0) -> float:
        """Closeness band for quantities of the given magnitude."""
        return self.atol + self.rtol * float(scale)


DEFAULT_CONFIG = ToleranceConfig()
