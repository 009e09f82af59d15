"""Truncated Fock-space state algebra.

States are vectors of number-basis amplitudes c_0 .. c_{n_max}. All
operations are pure; FockVector instances are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, TruncationError

LEAKAGE_TOL = 1e-10


def _frozen(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype, always a copy: the caller's array stays writeable."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockVector:
    """Amplitudes over |0> .. |n_max| in a truncated Fock space."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = _frozen(self.amplitudes, np.complex128)
        if amps.ndim != 1 or amps.size < 2:
            raise InvalidArgument("amplitudes must be a 1-d array with n_max >= 1")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise InvalidArgument("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def vacuum(n_max: int) -> FockVector:
    return number_state(0, n_max)


def number_state(n: int, n_max: int) -> FockVector:
    if not 0 <= n <= n_max:
        raise InvalidArgument(f"number state |{n}> does not fit n_max={n_max}")
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    amps[n] = 1.0
    return FockVector(amps)


def coherent_state(beta: complex, n_max: int) -> FockVector:
    """Coherent state |beta>, raw truncated amplitudes (no renormalization).

    c_0 = exp(-|beta|^2/2), c_{n+1} = c_n * beta / sqrt(n+1). The truncation
    must keep the Poisson tail below LEAKAGE_TOL.
    """
    if n_max < 1:
        raise InvalidArgument("n_max must be >= 1")
    beta = complex(beta)
    amps = np.empty(n_max + 1, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(n_max):
        amps[n + 1] = amps[n] * beta / math.sqrt(n + 1.0)
    leakage = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if leakage > LEAKAGE_TOL:
        raise TruncationError(
            f"coherent state |beta|^2={abs(beta)**2:.3f} leaks {leakage:.2e} "
            f"past n_max={n_max} (tolerance {LEAKAGE_TOL:.1e})"
        )
    return FockVector(amps)


def inner_product(a: FockVector, b: FockVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n_max != b.n_max:
        raise InvalidArgument(f"mixed truncation orders {a.n_max} and {b.n_max}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """<m|D(alpha)|n> for m, n < dim, via associated Laguerre recurrences.

    Each element is the operator's exact matrix element (Cahill & Glauber,
    Phys. Rev. 177, 1857 (1969)), however small dim is.
    Prefactors are assembled in log space so no intermediate factorial
    overflows; valid for |alpha| up to several units and dim up to ~500.
    D(0) is the identity.
    """
    if alpha == 0:
        return np.eye(dim, dtype=np.complex128)
    x = abs(alpha) ** 2
    k = np.arange(dim, dtype=np.float64)
    # L[n, k] = L_n^{(k)}(x), filled row by row
    lag = np.empty((dim, dim))
    lag[0] = 1.0
    if dim > 1:
        lag[1] = 1.0 + k - x
    for n in range(1, dim - 1):
        lag[n + 1] = ((2 * n + 1 + k - x) * lag[n] - (n + k) * lag[n - 1]) / (n + 1)

    lg = np.array([math.lgamma(n + 1.0) for n in range(dim + 1)])
    phase = np.exp(1j * np.angle(alpha))
    D = np.zeros((dim, dim), dtype=np.complex128)
    log_abs_alpha = math.log(abs(alpha))
    for off in range(dim):
        n = np.arange(dim - off)
        logpre = 0.5 * (lg[n] - lg[n + off]) + off * log_abs_alpha - 0.5 * x
        vals = np.exp(logpre) * lag[n, off]
        D[n + off, n] = vals * phase**off
        if off:
            D[n, n + off] = vals * (-1.0) ** off * np.conj(phase) ** off
    return D


def mean_photon_number(state: FockVector) -> float:
    probs = np.abs(state.amplitudes) ** 2
    return float(np.dot(np.arange(probs.size), probs))
