"""Finite-support complex signals and their second-order data.

A signal lives on the integer line with a finite contiguous support.  Its
Fourier intensity only determines the autocorrelation, so everything
downstream (factorization, enumeration, criteria) consumes the types
defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig

_TRIM_THRESHOLD = 1e-12
"""Boundary entries below this times the peak modulus are trimmed from a support."""
_PROBE_COUNT = 512
_PROBE_START = 0.001
"""A fitted intensity must be non-negative on the `_PROBE_COUNT` equispaced
frequencies -pi + `_PROBE_START` + 2 pi j / `_PROBE_COUNT`."""


def _as_complex_vector(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sequence of values")
    return arr


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Signal:
    """Complex signal with support {offset, ..., offset + len(values) - 1}.

    Boundary components whose modulus falls below the trim threshold
    (relative to the peak modulus) are removed on construction, so the
    first and last stored values are always meaningfully nonzero.  An
    all-negligible input has no support and is rejected.
    """

    offset: int
    values: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.values)
        live, first, last = _support_bounds(arr[None, :]) if arr.size else ((False,), (), ())
        if not live[0]:
            raise ValueError("empty support")
        lo, hi = int(first[0]), int(last[0])
        object.__setattr__(self, "values", _readonly(arr[lo:hi + 1]))
        object.__setattr__(self, "offset", int(self.offset) + lo)

    @property
    def support_len(self) -> int:
        return int(self.values.size)

    @property
    def end(self) -> int:
        """Largest index of the support."""
        return self.offset + self.support_len - 1


@dataclass(frozen=True, eq=False)
class Autocorrelation:
    """Autocorrelation coefficients a[-(N-1)], ..., a[N-1] in ascending lag order.

    The sequence is conjugate symmetric, a[-k] = conj(a[k]), and a[0] is
    real and non-negative; both properties are validated on construction.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.coeffs)
        if arr.size % 2 == 0:
            raise ValueError("autocorrelation needs 2N-1 coefficients")
        object.__setattr__(self, "coeffs", _readonly(arr))
        if not np.isfinite(arr).all():
            raise ValueError("autocorrelation coefficients must be finite")
        scale = float(np.abs(arr).max())
        band = DEFAULT_CONFIG.tol(scale)
        center = arr[arr.size // 2]
        if abs(center.imag) > band or center.real < -band:
            raise ValueError("a[0] must be real and non-negative")
        if float(np.abs(arr - np.conj(arr[::-1])).max()) > band:
            raise ValueError("coefficients are not conjugate symmetric")

    @property
    def support_len(self) -> int:
        """Support length N of any signal with this autocorrelation."""
        return (int(self.coeffs.size) + 1) // 2

    def __getitem__(self, lag: int) -> complex:
        n = self.support_len
        if not -n < lag < n:
            raise IndexError(f"lag {lag} outside [{1 - n}, {n - 1}]")
        return complex(self.coeffs[lag + n - 1])

    def intensity(self, omega):
        """Evaluate sum_k a[k] e^{-i omega k}; real for valid data."""
        w = np.asarray(omega, dtype=float)
        lags = np.arange(1 - self.support_len, self.support_len)
        out = (np.exp(-1j * np.multiply.outer(w, lags)) @ self.coeffs).real
        return out if w.ndim else float(out)


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Distinguished representative of a signal modulo trivial transforms.

    The support starts at zero, the pivot (the lowest index whose modulus is
    within cfg.tol(1) of the peak modulus, relatively, so moduli tied up to
    rounding never split the rotations of one signal) is rotated onto the
    positive real axis, and `reflected` records whether the
    conjugate-reflected orientation was chosen.  Every comparison is relative
    to the peak, so scaling a signal by c > 0 scales its form by c.
    """

    values: np.ndarray
    reflected: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(_as_complex_vector(self.values)))

    def signal(self) -> Signal:
        return Signal(0, self.values)


def autocorrelation(x: Signal) -> Autocorrelation:
    """Autocorrelation a[k] = sum_j conj(x[j]) x[j+k] of a signal.

    Negative lags are filled by conjugating the positive ones, so the
    conjugate symmetry holds exactly as stored.
    """
    v = x.values
    n = v.size
    pos = np.array([np.vdot(v[: n - k], v[k:]) for k in range(n)])
    return Autocorrelation(np.concatenate([np.conj(pos[:0:-1]), pos]))


def fourier_transform(x: Signal, omega):
    """Value(s) of sum_n x[n] e^{-i omega n} over the actual support indices."""
    w = np.asarray(omega, dtype=float)
    idx = x.offset + np.arange(x.support_len)
    out = np.exp(-1j * np.multiply.outer(w, idx)) @ x.values
    return out if w.ndim else complex(out)


def fourier_intensity(x: Signal, omega):
    """Squared modulus of the Fourier transform at the given frequencies."""
    ft = fourier_transform(x, omega)
    out = np.abs(np.asarray(ft)) ** 2
    return out if np.ndim(omega) else float(out)


def rotate(x: Signal, angle: float) -> Signal:
    """Multiply the signal by the unimodular constant e^{i angle}."""
    return Signal(x.offset, x.values * np.exp(1j * float(angle)))


def shift(x: Signal, steps: int) -> Signal:
    """Translate the support by an integer number of steps."""
    return Signal(x.offset + int(steps), x.values)


def conjugate_reflect(x: Signal) -> Signal:
    """Conjugate and reflect: the result at index n is conj(x[-n])."""
    return Signal(-x.end, np.conj(x.values[::-1]))


def _support_bounds(rows: np.ndarray):
    """Kept support of each row of a (K, L) array, trimmed as `Signal` trims.

    Returns (live, first, last): whether a row has any entry above
    `_TRIM_THRESHOLD` times its peak modulus, and the first and last such index.
    `Signal` trims its one row with it.
    """
    mags = np.abs(rows)
    keep = mags > _TRIM_THRESHOLD * mags.max(axis=1, keepdims=True)
    last = rows.shape[1] - 1 - keep[:, ::-1].argmax(axis=1)
    return keep.any(axis=1), keep.argmax(axis=1), last


def _phase_fixed(rows: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Rotate rows so each pivot (lowest index within a relative cfg.tol(1) of
    the peak modulus) is positive."""
    mags = np.abs(rows)
    at = np.arange(rows.shape[0])
    peaks = mags.max(axis=1, keepdims=True)
    pivot = np.argmax(mags >= peaks - cfg.tol(1.0) * peaks, axis=1)
    unit = rows[at, pivot] / mags[at, pivot]
    return rows * np.conj(unit)[:, None]


def _lexicographically_before(a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Row-wise a < b, componentwise by real then imaginary part.

    Entries closer than cfg.tol(1) times the largest modulus of the row pair
    count as equal; rows equal throughout are not before.
    """
    scale = np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1))
    band = cfg.tol(1.0) * scale
    flat_a, flat_b = a.view(np.float64), b.view(np.float64)
    apart = np.abs(flat_a - flat_b) > band[:, None]
    at = np.arange(a.shape[0])
    first = np.argmax(apart, axis=1)
    return apart[at, first] & (flat_a[at, first] < flat_b[at, first])


def _canonical_rows(rows: np.ndarray, modulo_reflection: bool = False,
                    cfg: ToleranceConfig = DEFAULT_CONFIG):
    """Canonical forms of the rows of a (K, L) array and their `reflected` flags.

    `canonicalize` is the one-row case, so both agree bit for bit.
    """
    forms = _phase_fixed(rows, cfg)
    reflected = np.zeros(rows.shape[0], dtype=bool)
    if modulo_reflection:
        mirror = _phase_fixed(np.conj(rows[:, ::-1]), cfg)
        reflected = _lexicographically_before(mirror, forms, cfg)
        forms = np.where(reflected[:, None], mirror, forms)
    return forms, reflected


def canonicalize(x: Signal, modulo_reflection: bool = False,
                 cfg: ToleranceConfig = DEFAULT_CONFIG) -> CanonicalForm:
    """Canonical representative of x modulo rotations and shifts.

    With `modulo_reflection` the conjugate-reflected orientation competes as
    well and the lexicographically smaller form (componentwise by real part,
    then imaginary part) is returned.
    """
    forms, reflected = _canonical_rows(x.values[None, :], modulo_reflection, cfg)
    return CanonicalForm(forms[0], reflected=bool(reflected[0]))


def form_distance(a, b) -> float:
    """Largest componentwise gap between two canonical value vectors."""
    va = a.values if isinstance(a, CanonicalForm) else _as_complex_vector(a)
    vb = b.values if isinstance(b, CanonicalForm) else _as_complex_vector(b)
    if va.size != vb.size:
        return float("inf")
    return float(np.abs(va - vb).max())


def _probe_intensity(coeffs: np.ndarray) -> np.ndarray:
    """Intensity of 2N-1 autocorrelation coefficients on the probe grid, by one FFT.

    At w_j = w0 + 2 pi j / `_PROBE_COUNT`, with w0 = -pi + `_PROBE_START`, the
    sum of a[k] e^{-i w_j k} is bin j of the FFT of the terms a[k] e^{-i w0 k},
    each added into bin k mod `_PROBE_COUNT`, so more lags than bins still fold.
    """
    n = (coeffs.size + 1) // 2
    lags = np.arange(1 - n, n)
    start = -np.pi + _PROBE_START
    bins = np.zeros(_PROBE_COUNT, dtype=np.complex128)
    np.add.at(bins, lags % _PROBE_COUNT, coeffs * np.exp(-1j * start * lags))
    return np.fft.fft(bins).real


def _wrap_angle(theta: np.ndarray) -> np.ndarray:
    return np.mod(theta + np.pi, 2.0 * np.pi) - np.pi


def acf_from_intensity_samples(samples, support_len: int,
                               cfg: ToleranceConfig = DEFAULT_CONFIG) -> Autocorrelation:
    """Recover the autocorrelation from intensity samples.

    Args:
        samples: iterable of (omega, intensity) pairs.  At least 2N-1
            distinct frequencies (modulo 2 pi) are required.
        support_len: support length N of the sought signal.
        cfg: tolerances used for validation.

    A full equispaced grid is inverted directly; anything else goes through
    a least-squares fit whose residual doubles as a consistency check when
    more than 2N-1 samples are supplied.  The fitted trigonometric
    polynomial must be non-negative on 512 equispaced frequencies, otherwise
    the samples do not describe a Fourier intensity.
    """
    n = int(support_len)
    if n < 1:
        raise ValueError("support length must be at least 1")
    data = np.asarray([(float(w), float(v)) for w, v in samples], dtype=float)
    if data.size == 0:
        raise ValueError("underdetermined sample set: no samples given")
    if not np.isfinite(data).all():
        raise ValueError("intensity samples must be finite")
    omegas = _wrap_angle(data[:, 0])
    intensities = data[:, 1]
    scale = float(max(1.0, np.abs(intensities).max()))
    if intensities.min() < -cfg.tol(scale):
        raise ValueError("not a valid intensity: negative sample")

    needed = 2 * n - 1
    order = np.argsort(omegas, kind="stable")
    sorted_w = omegas[order]
    gaps = np.diff(sorted_w)
    distinct = 1 + int(np.count_nonzero(gaps > 1e-12))
    if distinct < needed:
        raise ValueError(
            f"underdetermined sample set: need {needed} distinct frequencies, got {distinct}")

    count = omegas.size
    spacing = 2.0 * np.pi / count
    wraparound = sorted_w[0] + 2.0 * np.pi - sorted_w[-1]
    equispaced = (distinct == count
                  and np.all(np.abs(gaps - spacing) <= 1e-9)
                  and abs(wraparound - spacing) <= 1e-9)

    if equispaced and count >= needed:
        lags = np.arange(n)
        positive = (np.exp(1j * np.multiply.outer(lags, omegas)) @ intensities) / count
    else:
        lags = np.arange(1, n)
        columns = [np.ones(count)]
        columns.extend(2.0 * np.cos(np.multiply.outer(lags, omegas)))
        columns.extend(2.0 * np.sin(np.multiply.outer(lags, omegas)))
        matrix = np.stack(columns, axis=1)
        solution, _, rank, _ = np.linalg.lstsq(matrix, intensities, rcond=None)
        if rank < needed:
            raise ValueError(
                "underdetermined sample set: frequencies do not separate the coefficients")
        positive = np.empty(n, dtype=complex)
        positive[0] = solution[0]
        positive[1:] = solution[1:n] + 1j * solution[n:]

    positive[0] = positive[0].real
    coeffs = np.concatenate([np.conj(positive[:0:-1]), positive])
    acf = Autocorrelation(coeffs)
    misfit = float(np.abs(acf.intensity(omegas) - intensities).max())
    if misfit > cfg.tol(scale) * 100.0:
        raise ValueError("samples are inconsistent with a bandlimited intensity")
    if float(np.min(_probe_intensity(acf.coeffs))) < -cfg.tol(scale) * 10.0:
        raise ValueError("not a valid intensity: interpolant takes negative values")
    return acf
