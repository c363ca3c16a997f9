"""Shared numerical tolerances.

Every comparison in the toolkit follows the pattern
``|delta| <= atol + rtol * scale`` where ``scale`` is the largest magnitude
relevant to the comparison, so the defaults below act as both absolute
floors and relative bands.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerance knobs used across the pipeline.

    atol, rtol        general closeness band
    circle_tol        radial band inside which a zero is snapped onto the
                      unit circle
    cluster_radius    base gathering radius for root multiplicity detection
                      (grows automatically with the candidate multiplicity)
    residual_tol      polynomial residual accepted when certifying a root
    pair_tol          reflected-pair matching band, |z1 * conj(z2) - 1|
    criterion_tol     equality band for the uniqueness criteria
    dedupe_tol        canonical-form distance below which two enumerated
                      solutions are merged into one class
    max_newton_iter   iteration cap of every Newton polish in root finding

    Support trimming is not a knob: `signals` trims boundary entries below a
    fixed 1e-12 times the peak modulus, for signals and enumerated rows alike.
    """

    atol: float = 1e-9
    rtol: float = 1e-9
    circle_tol: float = 1e-8
    cluster_radius: float = 1e-7
    residual_tol: float = 1e-6
    pair_tol: float = 1e-8
    criterion_tol: float = 1e-8
    dedupe_tol: float = 1e-7
    max_newton_iter: int = 60

    def __post_init__(self):
        for entry in fields(self):
            value = getattr(self, entry.name)
            if not value > 0:
                raise ValueError(f"{entry.name} must be positive, got {value!r}")

    def tol(self, scale: float = 1.0) -> float:
        """Closeness band for quantities of the given magnitude."""
        return self.atol + self.rtol * float(scale)


DEFAULT_CONFIG = ToleranceConfig()
