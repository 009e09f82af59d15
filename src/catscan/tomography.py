"""Filtered back-projection of Wigner functions from quadrature slices.

W(u, v) = (1 / (4 pi^2)) int_0^pi dphi int dx p(x, phi) K(x - u cos(phi) - v sin(phi))
with the cutoff kernel K(xi) = int_{-kc}^{kc} |k| exp(i k xi) dk. The overall
constant is fixed by vacuum calibration: reconstructing the vacuum table must
return the 2/pi peak.

The sum is evaluated in Fourier-slice form (Kak & Slaney, ch. 3): swapping
the x and k integrals gives each slice's characteristic function
P_i(k) = h f(k h) sum_x p_i(x) exp(i k x) on x nodes of step h, and

    W(u, v) = (1 / (4 pi^2)) sum_i w_i int_0^kc 2 k Re[P_i(k) exp(-i k s_i)] dk

with s_i = u cos(phi_i) + v sin(phi_i). P_i(k) is the trapezoid sum of the
slice's cubic spline, extended by zeros past the grid ends, on the grid
refined by its midpoints. Without the spline factor f(k h) = 1 - (k h)^4 / 768
+ ... it would be the plain trapezoid sum, which converges exponentially for
densities that vanish at the grid ends, so f(k h) is the engine's only
departure from reconstruct_closed_form. The k integral uses Gauss-Legendre
nodes, enough of them to be exact to rounding for every |x - s_i| involved.

The phase sum runs over the measured slices. A table measured on [0, pi/2]
fixes the whole period: for a conjugation-symmetric state (Fock amplitudes
real up to a global phase; Leonhardt, Measuring the Quantum State of Light,
ch. 5) p(x, pi - phi) = p(-x, phi), so each measured slice implies its mirror,
whose P is conj P. With a = k u cos(phi) and b = k v sin(phi), a slice and its
mirror add up to 2 cos b (Re P cos a + Im P sin a), and on the real axis
(v = 0) to 2 (Re P cos a + Im P sin a): half the trig values of the two
slices' own terms.
Such a table is read as one half of a conjugation-symmetric state: an
asymmetric state must be measured over a full period of pi, and each slice
of that table, like pi/2 of a measured half, stands alone with its textbook
term Re P cos(k s) + Im P sin(k s).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidArgument
from .quadrature import QuadratureTable, _grid_axis
from .wigner import WignerGrid, _pair_sum, _superposition

# Gauss-Legendre rules past this size cost seconds to build and tens of MB
# to tabulate; omega ~ 3800 (kc = 17 with points ~220 from the origin) needs it.
_MAX_NODES = 1024
# The phase sum takes its points in blocks of _BLOCK_SIZE // k nodes, so each of
# its points x k work arrays holds about 256 KB whatever the number of points.
_BLOCK_SIZE = 2**15


@dataclass(frozen=True)
class ReconstructionConfig:
    cutoff_kc: float
    # the slices are always fitted with cubic splines; reports record the name
    fit_model: ClassVar[str] = "cubic_spline"

    def __post_init__(self):
        if not (self.cutoff_kc > 0.0 and math.isfinite(self.cutoff_kc)):
            raise InvalidArgument(f"cutoff_kc must be positive, got {self.cutoff_kc}")

    @classmethod
    def for_mean_photon(cls, mean_photon: float) -> "ReconstructionConfig":
        """Cutoff scaled to the state size: kc = 2 (2 sqrt(nbar) + 4)."""
        if mean_photon < 0.0:
            raise InvalidArgument(f"mean photon number must be >= 0, got {mean_photon}")
        return cls(cutoff_kc=2.0 * (2.0 * math.sqrt(mean_photon) + 4.0))


def _measured_half(phases: np.ndarray) -> bool:
    """Whether phases lie in [0, pi/2], a measured half whose mirrors the phase sum implies."""
    return np.min(phases) >= -1e-12 and np.max(phases) <= math.pi / 2 + 1e-9


def extend_phases(table: QuadratureTable) -> QuadratureTable:
    """table itself, once its phases are checked to lie in [0, pi/2].

    The phase sum implies the mirror of each slice of such a table, so
    nothing is appended. Only the benchmark's wigner-map set-up still calls
    this; it goes when that call does.
    """
    phases = table.phases
    if not _measured_half(phases):
        raise InvalidArgument(
            f"input phases must lie in [0, pi/2], got range "
            f"[{phases[0]:.6f}, {phases[-1]:.6f}]"
        )
    return table


def _phase_weights(phases: np.ndarray) -> np.ndarray:
    """The step of a uniform grid that closes the period of pi (span pi, end
    weights halved) or tiles it (span + step = pi). A gap in any other grid
    would be bridged by one wide panel, so it is rejected."""
    span = phases[-1] - phases[0]
    diffs = np.diff(phases)
    step = diffs[0] if diffs.size else math.nan
    weights = np.full(phases.shape, step)
    if np.allclose(diffs, step, rtol=0, atol=1e-12):
        if abs(span - math.pi) < 1e-9:
            weights[[0, -1]] *= 0.5
            return weights
        if abs(span + step - math.pi) < 1e-9:
            return weights
    raise InvalidArgument(
        f"phases [{phases[0]:.4f}, {phases[-1]:.4f}] neither close nor tile a period of pi evenly"
    )


def _node_count(omega: float) -> int:
    """Gauss-Legendre nodes that integrate 2 k cos(k xi) over [0, kc] to rounding.

    omega bounds kc |xi|. The rule needs about omega / 4 nodes plus a
    transition band that grows as omega^(1/3); the constants keep at least 5%
    headroom over the smallest converged count for omega from 1 to 800.
    """
    return math.ceil(omega / 4.0 + 5.0 * omega ** (1.0 / 3.0)) + 2


def _checked_node_count(omega: float) -> int:
    """_node_count(omega) up to _MAX_NODES. It exceeds omega / 4, so the bound
    also keeps an overflowed or NaN omega away from math.ceil."""
    n_nodes = _node_count(omega) if omega < 4.0 * _MAX_NODES else math.inf
    if n_nodes > _MAX_NODES:
        raise InvalidArgument(
            f"cutoff_kc * (max|x| + max|(u, v)|) = {omega:.4g} needs more than "
            f"{_MAX_NODES} k nodes; lower the cutoff or the point range"
        )
    return n_nodes


def _k_rule(kc: float, n_nodes: int):
    """Gauss-Legendre nodes k on [0, kc] and their weights 2 k w_k."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    k = 0.5 * kc * (nodes + 1.0)
    return k, kc * weights * k


@functools.lru_cache(maxsize=4)
def _node_tables(x_bytes: bytes, kc: float, n_nodes: int):
    """k nodes, their weights 2 k w_k, and the x >= 0 cos/sin tables.

    Each slice stands for its cardinal cubic spline: the spline through the
    measured values and zeros past the grid ends. P(k) integrates it by the
    trapezoid rule on the grid refined by its midpoints, which turns the
    weighted exp(i k x_fine) into h f(k h) exp(i k x) on the nodes. With
    t = k h, the node itself brings 1/2, the midpoint averages cos(t/2) / 2,
    and the slope terms bring 3 sin(t) sin(t/2) / (16 + 8 cos t), so
    f(t) = 1 - t^4 / 768 + ... is the engine's only departure from
    reconstruct_closed_form. The cos table is even in x and the sin table
    odd, so P(k) folds onto x >= 0: cos pairs with p(x) + p(-x) and sin with
    p(x) - p(-x). An x = 0 node appears twice in the even fold, so its row
    is halved.
    """
    x = np.frombuffer(x_bytes)
    k, k_weights = _k_rule(kc, n_nodes)
    h = (x[-1] - x[0]) / (x.size - 1)
    t = k * h
    factor = h * (
        (1.0 + np.cos(t / 2.0)) / 2.0 + 3.0 * np.sin(t) * np.sin(t / 2.0) / (16.0 + 8.0 * np.cos(t))
    )
    arg = np.outer(x[x.size // 2 :], k)
    cos_table, sin_table = np.cos(arg) * factor, np.sin(arg) * factor
    if x.size % 2:
        cos_table[0] *= 0.5
    tables = (k, k_weights, cos_table, sin_table)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _points(re_pts, im_pts):
    """Float points, at least 1-d, and max|(u, v)|; they must broadcast and be finite."""
    u = np.atleast_1d(np.asarray(re_pts, dtype=np.float64))
    v = np.atleast_1d(np.asarray(im_pts, dtype=np.float64))
    try:
        np.broadcast_shapes(u.shape, v.shape)
    except ValueError:
        raise InvalidArgument(f"re {u.shape} and im {v.shape} points do not broadcast") from None
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise InvalidArgument("reconstruction points must be finite")
    return u, v, float(np.max(np.hypot(u, v), initial=0.0))


def _slice_weights(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slice's phase weight, its implied mirror's included, and which slices imply one.

    A measured half is closed by the mirrors pi - phi in reverse, a mirror
    within 1e-12 of the last phase (pi/2, its own mirror) not repeated. A
    slice and its mirror have equal weights on that grid, so a slice that
    implies its mirror takes twice its weight. Any other grid is a full
    measurement: every slice stands alone with its own weight.
    """
    if not _measured_half(phases):
        return _phase_weights(phases), np.zeros(phases.shape, bool)
    implied = np.ones(phases.shape, bool)
    mirrors = math.pi - phases[::-1]
    if mirrors[0] - phases[-1] < 1e-12:
        mirrors = mirrors[1:]
        implied[-1] = False
    weights = _phase_weights(np.concatenate([phases, mirrors]))[: phases.size]
    return np.where(implied, 2.0, 1.0) * weights, implied


def _slice_share(a, b, even, implied):
    """A slice's cos part, sum_k even_0 cos, and sin part, sum_k even_1 sin, over
    the points x k phases a and b, which it overwrites.

    A slice that stands alone takes its own term: cos(a + b) and sin(a + b),
    with k s = a + b. A slice that implies its mirror takes cos b cos a and
    cos b sin a, the slice's and its mirror's terms added. b is None on the
    real axis, where both forms are cos a and sin a.
    """
    if b is not None and not implied:
        a += b
    sin_a = np.sin(a)
    cos_a = np.cos(a, out=a)
    if b is not None and implied:
        cos_b = np.cos(b, out=b)
        cos_a *= cos_b
        sin_a *= cos_b
    return cos_a @ even[0], sin_a @ even[1]


def _phase_sum(re_p, im_p, phases, k, k_weights, u, v):
    """The cos and sin parts of each measured slice's share of W, its implied
    mirror included: shape (2, slices) + point shape.

    Slice i brings (1 / 4 pi^2) w_i sum_k 2 k w_k Re[P_i(k) exp(-i k s_i)], from
    Re P and Im P at the k nodes (slices x nodes): Re P cos(k s) + Im P sin(k s).
    With a = k u cos(phi) and b = k v sin(phi), so k s = a + b, its implied
    mirror at pi - phi, weighted alike, brings Re P' cos(b - a) + Im P' sin(b - a)
    with P' = conj P, and the two add up to 2 cos b (Re P cos a + Im P sin a).

    On the real axis the cos part is even in u and the sin part odd, and of a
    table that is symmetric in x, the sin part is rounding noise: added to
    each slice's cos part it would round W(u) and W(-u) apart, so
    _slice_total adds the two parts only once each is summed over the slices.
    """
    shape = np.broadcast_shapes(u.shape, v.shape)
    weights, implied = _slice_weights(phases)
    scale = weights[:, None] * k_weights[None, :] / (4.0 * math.pi**2)
    re_w, im_w = re_p * scale, im_p * scale
    real_axis = not np.any(v)
    u, v = (np.broadcast_to(w, shape).ravel() for w in (u, v))
    shares = np.empty((2, phases.size, u.size))
    block = max(1, _BLOCK_SIZE // k.size)
    for lo in range(0, u.size, block):
        u_block, v_block = u[lo : lo + block], v[lo : lo + block]
        for j, phi in enumerate(phases):
            a = np.multiply.outer(u_block * math.cos(phi), k)
            b = None if real_axis else np.multiply.outer(v_block * math.sin(phi), k)
            shares[:, j, lo : lo + block] = _slice_share(a, b, (re_w[j], im_w[j]), implied[j])
    return shares.reshape((2, phases.size) + shape)


def _slice_total(shares, re_pts, im_pts):
    """The cos parts and the sin parts each summed in slice order (np.sum
    would group them differently), then added: a float when both point inputs
    are 0-d, else an array of their broadcast shape."""
    cos_total, sin_total = np.zeros(shares.shape[:1] + shares.shape[2:])
    for cos_part, sin_part in zip(*shares):
        cos_total += cos_part
        sin_total += sin_part
    out = cos_total + sin_total
    return float(out[0]) if np.ndim(re_pts) == np.ndim(im_pts) == 0 else out


def _back_project(table: QuadratureTable, re_pts, im_pts, config: ReconstructionConfig):
    """The cos and sin parts of each measured slice's share of W (phys
    convention): shape (2, slices) + point shape."""
    u, v, reach = _points(re_pts, im_pts)
    x, density = table.x_grid, table.density
    if x.size < 4:
        raise InvalidArgument(f"x grid needs at least 4 points, got {x.size}")
    if not np.allclose(x, -x[::-1], rtol=0, atol=1e-12):
        raise InvalidArgument("x grid must be symmetric about 0")
    steps = np.diff(x)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
        raise InvalidArgument("x grid must be uniform")
    kc = config.cutoff_kc
    n_nodes = _checked_node_count(kc * (float(x[-1]) + reach))
    k, k_weights, cos_table, sin_table = _node_tables(x.tobytes(), kc, n_nodes)
    half = x.size // 2
    mirrored = density[:, ::-1]
    re_p = (density + mirrored)[:, half:] @ cos_table
    im_p = (density - mirrored)[:, half:] @ sin_table
    return _phase_sum(re_p, im_p, table.phases, k, k_weights, u, v)


def reconstruct_at(table: QuadratureTable, re_pts, im_pts, config: ReconstructionConfig):
    """Reconstructed W (phys convention) at points re_pts, im_pts (broadcast).

    A [0, pi/2] table is read as one half of a conjugation-symmetric state,
    as every cat is; an asymmetric state must be measured over a full period
    of pi, or it reconstructs wrong without an error.
    """
    return _slice_total(_back_project(table, re_pts, im_pts, config), re_pts, im_pts)


def slice_terms(table: QuadratureTable, u: float, v: float, config: ReconstructionConfig):
    """Each measured slice's share of W(u, v), the mirror it implies included
    (phys convention), in table order: one share per row of table, for every
    phase grid reconstruct_at accepts. The shares sum to
    reconstruct_at(table, u, v, config).

    A [0, pi/2] table is read as one half of a conjugation-symmetric state,
    as every cat is; an asymmetric state must be measured over a full period
    of pi, or it reconstructs wrong without an error.
    """
    return _back_project(table, u, v, config).sum(axis=0)[:, 0]


def reconstruct(
    table: QuadratureTable,
    re_axis,
    im_axis,
    config: ReconstructionConfig,
) -> WignerGrid:
    """Dense reconstruction over a rectangular grid, phys convention.

    A [0, pi/2] table is read as one half of a conjugation-symmetric state,
    as every cat is; an asymmetric state must be measured over a full period
    of pi, or it reconstructs wrong without an error.
    """
    re_axis = _grid_axis(re_axis)
    im_axis = _grid_axis(im_axis)
    values = reconstruct_at(table, re_axis[:, None], im_axis[None, :], config)
    return WignerGrid(re_axis, im_axis, values, "phys")


def reconstruct_closed_form(terms, phases, re_pts, im_pts, config: ReconstructionConfig):
    """The engine's phase and k sums over exact slice characteristic functions.

    For sum_i c_i |b_i> (terms as from cat_wigner_terms), slice phi has
    P(k) = <D(xi)> with xi = i k e^{i phi} / 2 (Cahill & Glauber 1969), from
    <b_j|D(xi)|b_i> = <b_j|b_i> exp(conj(b_j) xi - conj(xi) b_i - |xi|^2 / 2).
    This P(k) goes through the engine's own point rule, k rule, phase sum and
    slice total, so the engine differs from this only through its spline
    factor f(k h), and this from the true W only by the cutoff and the phase
    sampling. As in the engine, phases in [0, pi/2] imply their mirrors with
    P' = conj P, which holds for conjugation-symmetric terms such as every
    cat's; the terms of an asymmetric state need phases over a full period of
    pi, or the result is wrong without an error. Phys convention.
    """
    coeffs, mean, offsets, overlap, norm = _superposition(terms)
    phases = np.asarray(phases, dtype=np.float64)
    u, v, reach = _points(re_pts, im_pts)
    kc = config.cutoff_kc
    reach += max(abs(b) for _, b in terms)
    k, k_weights = _k_rule(kc, 2 * _checked_node_count(kc * reach))
    xi = 0.5j * np.multiply.outer(np.exp(1j * phases), k)

    def exponent(i, j):
        # with b_i = m - e_i, the rest of the exponent is common to every pair
        return overlap[i, j] + offsets[i] * xi.conj() - np.conj(offsets[j]) * xi

    char = _pair_sum(coeffs, exponent, 2j * (np.conj(mean) * xi).imag - 0.5 * np.abs(xi) ** 2) / norm
    shares = _phase_sum(char.real, char.imag, phases, k, k_weights, u, v)
    return _slice_total(shares, re_pts, im_pts)
