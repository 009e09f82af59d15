"""Conditional cat-state generation and polarization gate algebra.

Models the Kerr-cell interferometer abstractly: a polarization qubit
entangled with a coherent probe, projected in the diagonal basis to leave
the probe in a superposition of two coherent states. A separate
polarization-only gate builds GHZ states from Bell pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgument, ZeroNorm
from .fock import FockVector, coherent_state

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class HybridState:
    """Joint amplitudes of a polarization qubit and a field mode."""

    amp_h: FockVector
    amp_v: FockVector

    def __post_init__(self):
        if self.amp_h.n_max != self.amp_v.n_max:
            raise InvalidArgument("H and V branches must share n_max")

    @property
    def n_max(self) -> int:
        return self.amp_h.n_max

    def norm(self) -> float:
        return math.hypot(self.amp_h.norm(), self.amp_v.norm())


@dataclass(frozen=True)
class CatSpec:
    """Superposition of |r e^{i theta}> and (sign) |r e^{-i theta}>."""

    r: float
    theta: float
    sign: str = "plus"

    def __post_init__(self):
        if not self.r > 0:
            raise InvalidArgument("r must be positive")
        if not math.isfinite(self.r * self.r):
            raise InvalidArgument(f"r^2 must be finite, got r = {self.r!r}")
        if not 0 < self.theta <= math.pi / 2:
            raise InvalidArgument("theta must lie in (0, pi/2]")
        if self.sign not in ("plus", "minus"):
            raise InvalidArgument("sign must be 'plus' or 'minus'")

    @property
    def mean_photon(self) -> float:
        return self.r**2


def entangle_kerr(probe_beta: complex, kerr_phase: float, n_max: int) -> HybridState:
    """(|H>|beta e^{i phase}> + |V>|beta>)/sqrt(2).

    The probe picks up the conditional Kerr phase only on the H branch.
    """
    probe_beta = complex(probe_beta)
    shifted = probe_beta * np.exp(1j * kerr_phase)
    amp_h = FockVector(coherent_state(shifted, n_max).amplitudes / _SQRT2)
    amp_v = FockVector(coherent_state(probe_beta, n_max).amplitudes / _SQRT2)
    return HybridState(amp_h, amp_v)


def conditional_project(
    state: HybridState, outcome: str
) -> tuple[FockVector, float]:
    """Project the qubit onto (|H> +/- |V>)/sqrt(2).

    Returns the normalized conditional mode state and the outcome
    probability. outcome is 'plus45' or 'minus45'.
    """
    if outcome == "plus45":
        sign = 1.0
    elif outcome == "minus45":
        sign = -1.0
    else:
        raise InvalidArgument("outcome must be 'plus45' or 'minus45'")
    raw = (state.amp_h.amplitudes + sign * state.amp_v.amplitudes) / _SQRT2
    prob = float(np.sum(np.abs(raw) ** 2))
    if prob < 1e-14:
        raise ZeroNorm(f"projection onto {outcome} has probability {prob:.2e}")
    return FockVector(raw / math.sqrt(prob)), prob


def _herald(spec: CatSpec, n_max: int) -> tuple[FockVector, float]:
    """The cat and its heralding probability, from the Kerr circuit.

    A probe |r e^{-i theta}> picks up the conditional phase 2 theta on the
    H branch, so the branches are |r e^{i theta}> and |r e^{-i theta}>;
    the diagonal outcome that CatSpec.sign names selects their sum or
    difference.
    """
    probe = spec.r * np.exp(-1j * spec.theta)
    outcome = "plus45" if spec.sign == "plus" else "minus45"
    return conditional_project(entangle_kerr(probe, 2.0 * spec.theta, n_max), outcome)


def make_cat(spec: CatSpec, n_max: int) -> FockVector:
    """Normalized |r e^{i theta}> +/- |r e^{-i theta}>, heralded by the circuit."""
    return _herald(spec, n_max)[0]


def cat_branch_overlap(spec: CatSpec) -> complex:
    """<r e^{-i theta}|r e^{i theta}> in closed form."""
    r, theta = spec.r, spec.theta
    return complex(np.exp(r * r * (np.exp(2j * theta) - 1.0)))


class BellState(Enum):
    PHI_PLUS = "phi-plus"
    PHI_MINUS = "phi-minus"
    PSI_PLUS = "psi-plus"
    PSI_MINUS = "psi-minus"

    @classmethod
    def from_label(cls, label: str) -> "BellState":
        normalized = label.strip().lower().replace("_", "-")
        for member in cls:
            if member.value == normalized:
                return member
        raise InvalidArgument(f"unknown Bell state {label!r}")


@dataclass(frozen=True)
class PolarizationState:
    """k-photon polarization state over the {H, V}^k basis.

    Basis index bit i (most significant first) is photon i: H = 0, V = 1.
    """

    k: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.k < 1 or amps.shape != (2**self.k,):
            raise InvalidArgument("amplitudes must have length 2^k")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def basis_labels(self) -> list[str]:
        return [
            "".join("V" if (i >> (self.k - 1 - j)) & 1 else "H" for j in range(self.k))
            for i in range(2**self.k)
        ]

    def amplitude(self, label: str) -> complex:
        if len(label) != self.k or any(ch not in "HV" for ch in label):
            raise InvalidArgument(f"bad basis label {label!r}")
        idx = 0
        for ch in label:
            idx = (idx << 1) | (ch == "V")
        return complex(self.amplitudes[idx])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def bell_state(which: BellState) -> PolarizationState:
    amps = np.zeros(4, dtype=np.complex128)
    if which is BellState.PHI_PLUS:
        amps[0b00], amps[0b11] = 1, 1
    elif which is BellState.PHI_MINUS:
        amps[0b00], amps[0b11] = 1, -1
    elif which is BellState.PSI_PLUS:
        amps[0b01], amps[0b10] = 1, 1
    else:
        amps[0b01], amps[0b10] = 1, -1
    return PolarizationState(2, amps / _SQRT2)


def append_diagonal_photon(state: PolarizationState) -> PolarizationState:
    """Tensor a fresh photon in (|H> + |V>)/sqrt(2) onto the right."""
    single = np.array([1.0, 1.0], dtype=np.complex128) / _SQRT2
    return PolarizationState(state.k + 1, np.kron(state.amplitudes, single))


def kerr_two_photon_gate(
    state: PolarizationState, target_pair: tuple[int, int], phase: float
) -> PolarizationState:
    """Multiply by e^{i phase} every basis string with V at both targets.

    Photon indices are 0-based.
    """
    i, j = target_pair
    if i == j:
        raise IndexError("target photons must be distinct")
    for t in (i, j):
        if not 0 <= t < state.k:
            raise IndexError(f"photon index {t} out of range for k={state.k}")
    idx = np.arange(2**state.k)
    both_v = ((idx >> (state.k - 1 - i)) & 1) & ((idx >> (state.k - 1 - j)) & 1)
    factors = np.where(both_v == 1, np.exp(1j * phase), 1.0)
    return PolarizationState(state.k, state.amplitudes * factors)


def make_ghz(bell_input: BellState) -> PolarizationState:
    """Append a diagonal photon to a Bell pair and entangle it via the Kerr gate.

    The third photon double-passes the cell with photon 2, so the |VV>
    branch accumulates a total conditional phase of pi; the result is the
    three-photon GHZ form with no further local correction.
    """
    state = append_diagonal_photon(bell_state(bell_input))
    state = kerr_two_photon_gate(state, (1, 2), math.pi / 2)
    state = kerr_two_photon_gate(state, (1, 2), math.pi / 2)
    return state


def measurement_probabilities(state: PolarizationState) -> dict[str, float]:
    """H/V-basis outcome probabilities keyed by basis string."""
    probs = np.abs(state.amplitudes) ** 2
    return dict(zip(state.basis_labels(), probs.tolist()))


def diagonal_basis_amplitudes(
    state: PolarizationState, photon: int
) -> PolarizationState:
    """Re-express one photon in the |45>/|135> basis.

    In the returned state the chosen photon's H slot holds the |45>
    amplitude and the V slot the |135> amplitude, with
    |45> = (|H>+|V>)/sqrt(2) and |135> = (|H>-|V>)/sqrt(2).
    """
    if not 0 <= photon < state.k:
        raise IndexError(f"photon index {photon} out of range for k={state.k}")
    amps = state.amplitudes.copy()
    bit = state.k - 1 - photon
    idx = np.arange(2**state.k)
    low = idx[(idx >> bit) & 1 == 0]
    high = low | (1 << bit)
    a_h, a_v = amps[low].copy(), amps[high].copy()
    amps[low] = (a_h + a_v) / _SQRT2
    amps[high] = (a_h - a_v) / _SQRT2
    return PolarizationState(state.k, amps)
