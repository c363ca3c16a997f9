"""Ambiguity analysis for one-dimensional discrete phase retrieval.

The Fourier intensity of a finite complex signal determines only its
autocorrelation, whose associated polynomial factors into zero pairs
reflected across the unit circle.  This package enumerates every signal
compatible with an intensity, decides when extra moduli or phases single
one out, and constructs explicit counterexamples when they cannot.
"""

from .config import DEFAULT_CONFIG, ToleranceConfig
from .counterexamples import (CounterexamplePair, magnitude_counterexample,
                              phase_counterexample, verify_counterexample)
from .criteria import (ROTATION, ROTATION_REFLECTION, CriterionReport,
                       SubsetFamily, Violation, check_all_moduli_uniqueness,
                       check_magnitude_uniqueness,
                       check_phase_uniqueness_endpoint,
                       check_phase_uniqueness_two_points, elementary_symmetric,
                       elementary_symmetric_all, modified_zero_set)
from .enumeration import (Constraint, SolutionClass, SolutionSet,
                          enumerate_solutions, filter_by_constraints, recover,
                          synthesize)
from .factorization import (AssociatedPolynomial, RootFindingError, ZeroPair,
                            ZeroPairSet, associated_polynomial, cluster_roots,
                            find_roots, pair_roots, pairs_from_zeros,
                            zero_pairs)
from .signals import (Autocorrelation, CanonicalForm, Signal,
                      acf_from_intensity_samples, autocorrelation, canonicalize,
                      conjugate_reflect, form_distance, fourier_intensity,
                      fourier_transform, rotate, shift)

__version__ = "0.1.0"

__all__ = [
    "Autocorrelation", "AssociatedPolynomial", "CanonicalForm", "Constraint",
    "CounterexamplePair", "CriterionReport", "DEFAULT_CONFIG", "ROTATION",
    "ROTATION_REFLECTION", "RootFindingError", "Signal", "SolutionClass",
    "SolutionSet", "SubsetFamily", "ToleranceConfig", "Violation", "ZeroPair",
    "ZeroPairSet", "acf_from_intensity_samples",
    "associated_polynomial", "autocorrelation", "canonicalize",
    "check_all_moduli_uniqueness", "check_magnitude_uniqueness",
    "check_phase_uniqueness_endpoint", "check_phase_uniqueness_two_points",
    "cluster_roots", "conjugate_reflect", "elementary_symmetric",
    "elementary_symmetric_all", "enumerate_solutions", "filter_by_constraints",
    "find_roots", "form_distance", "fourier_intensity", "fourier_transform",
    "magnitude_counterexample", "modified_zero_set", "pair_roots",
    "pairs_from_zeros", "phase_counterexample", "recover", "rotate", "shift",
    "synthesize", "verify_counterexample", "zero_pairs",
]
