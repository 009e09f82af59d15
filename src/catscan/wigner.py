"""Closed-form and displaced-parity Wigner evaluators.

Two conventions are supported. "phys" is integral-normalized,
integral W du dv = 1 with vacuum peak 2/pi and |W| <= 2/pi. "paper" is the
display normalization with vacuum peak 4, i.e. exactly 2 pi times phys;
the reference minima below pin that factor empirically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import _HERALD_FLOOR, CatSpec
from .errors import InvalidArgument, ZeroNorm
from .fock import FockVector, _displacement_matrix, _frozen
from .quadrature import _grid_axis, _read_long_csv, _write_long_csv

PAPER_SCALE = 2.0 * math.pi
CONVENTIONS = ("phys", "paper")

_SQRT5 = math.sqrt(5.0)


def convention_factor(convention: str) -> float:
    if convention == "phys":
        return 1.0
    if convention == "paper":
        return PAPER_SCALE
    raise InvalidArgument(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class WignerGrid:
    re_axis: np.ndarray = field(repr=False)
    im_axis: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    convention: str = "phys"

    def __post_init__(self):
        re_axis = _grid_axis(self.re_axis)
        im_axis = _grid_axis(self.im_axis)
        values = _frozen(self.values, np.float64)
        if self.convention not in CONVENTIONS:
            raise InvalidArgument(f"unknown convention {self.convention!r}")
        if values.shape != (re_axis.size, im_axis.size):
            raise InvalidArgument(
                f"values shape {values.shape} does not match axes "
                f"({re_axis.size}, {im_axis.size})"
            )
        object.__setattr__(self, "re_axis", re_axis)
        object.__setattr__(self, "im_axis", im_axis)
        object.__setattr__(self, "values", values)

    def to_csv(self, path) -> None:
        preamble = f"# convention: {self.convention}\n"
        _write_long_csv(path, "re,im,w", self.re_axis, self.im_axis, self.values, preamble)

    @classmethod
    def from_csv(cls, path) -> "WignerGrid":
        convention = "phys"
        with open(path, newline="") as fh:
            first = fh.readline()
            if first.startswith("# convention:"):
                convention = first.split(":", 1)[1].strip()
            else:
                fh.seek(0)
            return cls(*_read_long_csv(fh, ["re", "im", "w"]), convention)


def cat_wigner_terms(spec: CatSpec) -> list[tuple[complex, complex]]:
    """Coherent-superposition terms realizing a CatSpec."""
    sign = 1.0 if spec.sign == "plus" else -1.0
    return [
        (1.0, spec.r * np.exp(1j * spec.theta)),
        (sign, spec.r * np.exp(-1j * spec.theta)),
    ]


def _pair_sum(coeffs, exponent, base=0.0):
    """sum_ij c_i conj(c_j) exp(base + E_ij), E_ij = exponent(i, j), as e^{base + R}
    (|sum_i c_i|^2 + sum_ij c_i conj(c_j) expm1(E_ij - R)), R = max_ij Re E_ij per
    point: close exponents keep their digits and none overflows."""
    pairs = [(i, j) for i in range(coeffs.size) for j in range(coeffs.size)]
    peak = functools.reduce(np.maximum, (exponent(i, j).real for i, j in pairs))
    total = np.full(np.shape(peak), abs(coeffs.sum()) ** 2, dtype=np.complex128)
    for i, j in pairs:
        term = np.expm1(exponent(i, j) - peak)
        term *= coeffs[i] * np.conj(coeffs[j])
        total += term
    total *= np.exp(base + peak)
    return total


def _superposition(terms):
    """c, the branches' mean m, e_i = m - b_i, ln<b_j|b_i> = -|b_i - b_j|^2 / 2
    + i Im(conj(b_j) (b_i - b_j)) and N = sum_ij c_i conj(c_j) <b_j|b_i>. A cat is
    heralded with probability N / 4: below the circuit's floor, ZeroNorm."""
    if not terms:
        raise InvalidArgument("need at least one term")
    coeffs = np.array([c for c, _ in terms], dtype=np.complex128)
    branches = np.array([b for _, b in terms], dtype=np.complex128)
    diff = branches[:, None] - branches[None, :]
    overlap = -0.5 * np.abs(diff) ** 2 + 1j * (branches.conj()[None, :] * diff).imag
    norm = float(_pair_sum(coeffs, lambda i, j: overlap[i, j]).real)
    if norm / 4.0 < _HERALD_FLOOR:
        raise ZeroNorm(f"superposition norm / 4 = {norm / 4.0:.2e} is below {_HERALD_FLOOR:.0e}")
    mean = branches.mean()
    return coeffs, mean, mean - branches, overlap, norm


def wigner_superposition(terms, alpha):
    """W(alpha) of a normalized superposition of coherent states, phys convention.

    W = (2/(pi N)) sum_ij c_i conj(c_j) <b_j|b_i> exp(-2 (alpha - b_i) conj(alpha - b_j))
    with N = sum_ij c_i conj(c_j) <b_j|b_i>. Accepts scalar or array alpha.
    """
    coeffs, mean, offsets, overlap, norm = _superposition(terms)
    a = np.asarray(alpha, dtype=np.complex128) - mean
    fixed = overlap - 2.0 * np.multiply.outer(offsets, offsets.conj())

    def exponent(i, j):
        # alpha - b_i = a + e_i, and -2 |a|^2 is common to every pair
        return fixed[i, j] - 2.0 * (offsets[i] * a.conj() + np.conj(offsets[j]) * a)

    out = (2.0 / math.pi) * _pair_sum(coeffs, exponent, -2.0 * np.abs(a) ** 2).real / norm
    return float(out) if out.ndim == 0 else out


def wigner_displaced_parity(state: FockVector, alpha: complex) -> float:
    """W(alpha) = (2/pi) <psi| D(2 alpha) P |psi>, phys convention, P = (-1)^n.

    Royer's identity D(alpha) P D(alpha)^dagger = D(2 alpha) P (Phys. Rev. A 15,
    449 (1977)) turns the displaced parity into one bilinear form over the
    state's own n_max + 1 levels, whose displacement elements are exact, so
    no working space is padded and nothing is truncated. At alpha = 0 it is
    (2/pi) sum_n (-1)^n |c_n|^2.
    """
    psi = state.amplitudes
    parity = np.where(np.arange(psi.size) % 2 == 0, 1.0, -1.0)
    moved = _displacement_matrix(2.0 * complex(alpha), psi.size) @ (parity * psi)
    return (2.0 / math.pi) * float(np.vdot(psi, moved).real)


def evaluate_grid(terms, re_axis, im_axis, convention: str = "phys") -> WignerGrid:
    """Closed-form W of coherent-superposition terms on a rectangular grid."""
    re_axis = _grid_axis(re_axis)
    im_axis = _grid_axis(im_axis)
    scale = convention_factor(convention)
    values = wigner_superposition(terms, re_axis[:, None] + 1j * im_axis[None, :])
    return WignerGrid(re_axis, im_axis, values * scale, convention)


@dataclass(frozen=True)
class ReferenceMinimum:
    """A published cat-state Wigner minimum used to pin the display scale."""

    label: str
    spec: CatSpec
    location: tuple[float, float]
    value: float  # display convention
    kind: str  # "absolute" or "local"


# theta = 1.11 rad below: the 63-degree label is that angle rounded; with
# 63*pi/180 the absolute minimum sits at (0.9085, -3.904), far outside the
# reference tolerances, while 1.11 rad reproduces (0.8954, -3.916) to 1e-4.
REFERENCE_MINIMA = (
    ReferenceMinimum("theta-90deg", CatSpec(_SQRT5, math.pi / 2), (0.3346, 0.0), -3.16, "absolute"),
    ReferenceMinimum("theta-63deg", CatSpec(_SQRT5, 1.11), (0.8954, 0.0), -3.916, "absolute"),
    ReferenceMinimum("theta-63deg-local", CatSpec(_SQRT5, 1.11), (0.157, 0.0), -0.890, "local"),
    ReferenceMinimum("theta-0p2rad", CatSpec(_SQRT5, 0.2), (2.687, 0.0), -0.679, "absolute"),
)


def published_branch_weight(spec: CatSpec) -> float:
    """Normalization ratio of the as-published values to the exact ones.

    The reference values scale the two-branch superposition as if the
    branches were orthogonal, so they carry an extra factor N / 2 =
    1 + sign * Re<b2|b1> (N the superposition norm) relative to the properly
    normalized W: twice the probability of the outcome that heralds the cat
    (make_cat). It is 0.7524 at theta=0.2 and within 2.3e-4 of 1 elsewhere.
    """
    return _superposition(cat_wigner_terms(spec))[-1] / 2.0


def calibrate_display_scale() -> dict:
    """Fit the single display-scale factor across the reference minima.

    For each anchor computes s_i = value_i / (weight_i * W_phys(location_i))
    and returns the per-anchor factors, their geometric-mean fit, and the
    relative spread. The fit lands within 0.3% of 2 pi.
    """
    factors = {}
    for ref in REFERENCE_MINIMA:
        u, v = ref.location
        w_phys = wigner_superposition(cat_wigner_terms(ref.spec), u + 1j * v)
        factors[ref.label] = ref.value / (published_branch_weight(ref.spec) * w_phys)
    vals = np.array(list(factors.values()))
    fitted = float(np.exp(np.mean(np.log(vals))))
    spread = float(vals.max() / vals.min() - 1.0)
    return {
        "factors": factors,
        "fitted": fitted,
        "spread": spread,
        "deviation_from_2pi": fitted / PAPER_SCALE - 1.0,
    }
