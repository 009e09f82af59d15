"""Closed-form and displaced-parity Wigner evaluators.

Two conventions are supported. "phys" is integral-normalized,
integral W du dv = 1 with vacuum peak 2/pi and |W| <= 2/pi. "paper" is the
display normalization with vacuum peak 4, i.e. exactly 2 pi times phys;
the reference minima below pin that factor empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import CatSpec, cat_branch_overlap
from .errors import InvalidArgument, ZeroNorm
from .fock import FockVector, displace, parity_expectation
from .quadrature import _read_long_csv, _write_long_csv

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
        re_axis = np.asarray(self.re_axis, dtype=np.float64)
        im_axis = np.asarray(self.im_axis, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if self.convention not in CONVENTIONS:
            raise InvalidArgument(f"unknown convention {self.convention!r}")
        if values.shape != (re_axis.size, im_axis.size):
            raise InvalidArgument(
                f"values shape {values.shape} does not match axes "
                f"({re_axis.size}, {im_axis.size})"
            )
        for arr in (re_axis, im_axis, values):
            arr.setflags(write=False)
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


def wigner_superposition(terms, alpha):
    """W(alpha) of a normalized superposition of coherent states, phys convention.

    W = (2/(pi N)) sum_ij c_i conj(c_j)
        exp(-2|a|^2 + 2 b_i conj(a) + 2 conj(b_j) a - b_i conj(b_j)
            - |b_i|^2/2 - |b_j|^2/2)
    with N = sum_ij c_i conj(c_j) <b_j|b_i>. Accepts scalar or array alpha.
    """
    if not terms:
        raise InvalidArgument("need at least one term")
    alpha_arr = np.asarray(alpha, dtype=np.complex128)
    norm = 0.0 + 0.0j
    for ci, bi in terms:
        for cj, bj in terms:
            norm += (
                ci
                * np.conj(cj)
                * np.exp(-0.5 * abs(bi) ** 2 - 0.5 * abs(bj) ** 2 + np.conj(bj) * bi)
            )
    if abs(norm) <= 1e-14:
        raise ZeroNorm(f"superposition norm {abs(norm):.2e} vanishes")
    acc = np.zeros(alpha_arr.shape, dtype=np.complex128)
    amag2 = np.abs(alpha_arr) ** 2
    for ci, bi in terms:
        for cj, bj in terms:
            acc += (ci * np.conj(cj)) * np.exp(
                -2.0 * amag2
                + 2.0 * bi * np.conj(alpha_arr)
                + 2.0 * np.conj(bj) * alpha_arr
                - bi * np.conj(bj)
                - 0.5 * abs(bi) ** 2
                - 0.5 * abs(bj) ** 2
            )
    out = (2.0 / math.pi) * (acc / norm).real
    if out.ndim == 0:
        return float(out)
    return out


def wigner_displaced_parity(state: FockVector, alpha: complex) -> float:
    """W(alpha) = (2/pi) <parity> of the state displaced by -alpha."""
    shifted = displace(state, -complex(alpha))
    return (2.0 / math.pi) * parity_expectation(shifted)


def evaluate_grid(terms, re_axis, im_axis, convention: str = "phys") -> WignerGrid:
    """Closed-form W of coherent-superposition terms on a rectangular grid."""
    re_axis = np.asarray(re_axis, dtype=np.float64)
    im_axis = np.asarray(im_axis, dtype=np.float64)
    for axis in (re_axis, im_axis):
        if axis.ndim != 1 or axis.size < 1 or (axis.size > 1 and np.any(np.diff(axis) <= 0)):
            raise InvalidArgument("axes must be monotone increasing")
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
    branches were orthogonal, so they carry an extra factor
    1 + sign * Re<b2|b1> relative to the properly normalized W. The factor
    is twice the probability of the diagonal outcome that heralds the cat
    (make_cat). It is 0.7524 at theta=0.2 and within 2.3e-4 of 1 for the
    other anchors.
    """
    sign = 1.0 if spec.sign == "plus" else -1.0
    return 1.0 + sign * cat_branch_overlap(spec).real


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
