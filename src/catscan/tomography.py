"""Filtered back-projection of Wigner functions from quadrature slices.

W(u, v) = (1 / (4 pi^2)) int_0^pi dphi int dx p(x, phi) K(x - u cos(phi) - v sin(phi))
with the cutoff kernel K(xi) = int_{-kc}^{kc} |k| exp(i k xi) dk. The overall
constant is fixed by vacuum calibration: reconstructing the vacuum table must
return the 2/pi peak.

The sum is evaluated in Fourier-slice form (Kak & Slaney, ch. 3): swapping
the x and k integrals gives each slice's characteristic function
P_i(k) = sum_x w_x p_i(x) exp(i k x), and

    W(u, v) = (1 / (4 pi^2)) sum_i w_i int_0^kc 2 k Re[P_i(k) exp(-i k s_i)] dk

with s_i = u cos(phi_i) + v sin(phi_i). The k integral uses Gauss-Legendre
nodes, enough of them to be exact to rounding for every |x - s_i| involved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidArgument, SymmetryViolation
from .quadrature import QuadratureTable, build_table
from .wigner import WignerGrid

# Gauss-Legendre rules past this size cost seconds to build and tens of MB
# to tabulate; omega ~ 3800 (kc = 17 with points ~220 from the origin) needs it.
_MAX_NODES = 1024
# Rows of the back-projection tables this many nodes from the ends of the x
# grid are exact to rounding in their interior form, (2 - sqrt 3)^32 ~ 5e-19.
_SPLINE_EDGE = 32
# Largest deviation extend_phases(verify_state=...) allows between a mirrored
# slice and the directly computed one.
_SYMMETRY_TOL = 1e-6


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


def filter_kernel(xi, kc: float):
    """Closed form of int_{-kc}^{kc} |k| exp(i k xi) dk.

    K(xi) = -4 sin^2(kc xi / 2) / xi^2 + (2 kc / xi) sin(kc xi), which is
    (2/xi^2)(cos(kc xi) - 1) + (2 kc / xi) sin(kc xi) without the cancellation
    in cos - 1. Only the division by xi^2 remains, so the series
    kc^2 (1 - t^2/4 + t^4/72), t = kc xi, takes over for |t| < 1e-4.
    """
    if not (kc > 0.0 and math.isfinite(kc)):
        raise InvalidArgument(f"cutoff kc must be positive, got {kc}")
    xi_arr = np.asarray(xi, dtype=np.float64)
    t = kc * xi_arr
    small = np.abs(t) < 1e-4
    xi_safe = np.where(small, 1.0, xi_arr)
    t_safe = kc * xi_safe
    out = -4.0 * np.sin(0.5 * t_safe) ** 2 / xi_safe**2 + (2.0 * kc / xi_safe) * np.sin(
        t_safe
    )
    t2 = t**2
    out = np.where(small, kc**2 * (1.0 - t2 / 4.0 + t2**2 / 72.0), out)
    if out.ndim == 0:
        return float(out)
    return out


def filter_kernel_numeric(xi, kc: float):
    """Direct Gauss-Legendre quadrature of the kernel integral, for cross-checking.

    One rule serves every xi. It has kc max|xi| + 64 nodes, about four times
    what _node_count asks for the same integrand, so it does not share the
    engine's node budget.
    """
    if not (kc > 0.0 and math.isfinite(kc)):
        raise InvalidArgument(f"cutoff kc must be positive, got {kc}")
    xi_arr = np.asarray(xi, dtype=np.float64)
    omega = kc * float(np.max(np.abs(xi_arr), initial=0.0))
    if not omega <= 4.0 * _MAX_NODES:
        raise InvalidArgument(f"kc * max|xi| = {omega:.4g} exceeds {4 * _MAX_NODES}")
    nodes, weights = np.polynomial.legendre.leggauss(math.ceil(omega) + 64)
    k = 0.5 * kc * (nodes + 1.0)
    out = np.cos(np.multiply.outer(xi_arr, k)) @ (kc * weights * k)
    if out.ndim == 0:
        return float(out)
    return out


def extend_phases(table: QuadratureTable, verify_state=None) -> QuadratureTable:
    """Extend a [0, pi/2] table to [0, pi] via p(x, pi - phi) = p(-x, phi).

    The identity holds for states whose Fock amplitudes can be chosen real
    (conjugation symmetry). When verify_state is given, the extended slices
    are checked against a direct computation and SymmetryViolation is raised
    past _SYMMETRY_TOL.
    """
    phases = table.phases
    if phases[0] < -1e-12 or phases[-1] > math.pi / 2 + 1e-9:
        raise InvalidArgument(
            f"input phases must lie in [0, pi/2], got range "
            f"[{phases[0]:.6f}, {phases[-1]:.6f}]"
        )
    new_phases = []
    new_rows = []
    for i in range(phases.size):
        new_phases.append(phases[i])
        new_rows.append(table.density[i])
    for i in range(phases.size - 1, -1, -1):
        mirrored = math.pi - phases[i]
        if mirrored - new_phases[-1] < 1e-12:
            continue
        new_phases.append(mirrored)
        new_rows.append(table.density[i][::-1])
    out = QuadratureTable(np.array(new_phases), table.x_grid, np.array(new_rows))
    if verify_state is not None and out.phases.size > phases.size:
        # the mirrored slices follow the input ones
        direct = build_table(verify_state, out.phases[phases.size :], table.x_grid)
        errs = np.max(np.abs(direct.density - out.density[phases.size :]), axis=1)
        worst = int(np.argmax(errs))
        if errs[worst] > _SYMMETRY_TOL:
            raise SymmetryViolation(
                f"extended slice at phi={direct.phases[worst]:.6f} deviates from the "
                f"direct distribution by {errs[worst]:.3e} (tol {_SYMMETRY_TOL:.1e}); "
                f"the state lacks conjugation symmetry"
            )
    return out


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.empty_like(x)
    dx = np.diff(x)
    w[0] = dx[0] / 2.0
    w[-1] = dx[-1] / 2.0
    w[1:-1] = (dx[:-1] + dx[1:]) / 2.0
    return w


def _phase_weights(phases: np.ndarray) -> np.ndarray:
    span = phases[-1] - phases[0]
    diffs = np.diff(phases)
    uniform = diffs.size > 0 and np.allclose(diffs, diffs[0], rtol=0, atol=1e-12)
    if abs(span - math.pi) >= 1e-9 and uniform and abs(span + diffs[0] - math.pi) < 1e-9:
        # periodic [0, pi) grid: uniform weights
        return np.full(phases.shape, diffs[0])
    # closed [0, pi] or irregular grid: trapezoid (half weight at both endpoints)
    return _trapezoid_weights(phases)


def _node_count(omega: float) -> int:
    """Gauss-Legendre nodes that integrate 2 k cos(k xi) over [0, kc] to rounding.

    omega bounds kc |xi|. The rule needs about omega / 4 nodes plus a
    transition band that grows as omega^(1/3); the constants keep at least 5%
    headroom over the smallest converged count for omega from 1 to 800.
    """
    return math.ceil(omega / 4.0 + 5.0 * omega ** (1.0 / 3.0)) + 2


def _spline_matrix(n: int) -> np.ndarray:
    """S, mapping values y on n uniform nodes to their not-a-knot cubic spline
    on the 2n - 1 nodes and midpoints, in order.

    With step h the slopes solve A s = B y / h, with rows
        s[0] + 2 s[1] = (-5 y[0] + 4 y[1] + y[2]) / 2h
        s[i-1] + 4 s[i] + s[i+1] = 3 (y[i+1] - y[i-1]) / h
        2 s[n-2] + s[n-1] = (-y[n-3] - 4 y[n-2] + 5 y[n-1]) / 2h
    and a midpoint value is (y[i] + y[i+1]) / 2 + h (s[i] - s[i+1]) / 8, so
    h cancels.
    """
    eye = np.eye(n)
    a = 4.0 * eye + np.eye(n, k=1) + np.eye(n, k=-1)
    a[0, :2] = (1.0, 2.0)
    a[-1, -2:] = (2.0, 1.0)
    b = 3.0 * (np.eye(n, k=1) - np.eye(n, k=-1))
    b[0, :3] = (-2.5, 2.0, 0.5)
    b[-1, -3:] = (-0.5, -2.0, 2.5)
    h_slopes = np.linalg.solve(a, b)
    out = np.empty((2 * n - 1, n))
    out[::2] = eye
    out[1::2] = (eye[:-1] + eye[1:]) / 2.0 + (h_slopes[:-1] - h_slopes[1:]) / 8.0
    return out


@functools.lru_cache(maxsize=4)
def _node_tables(x_bytes: bytes, kc: float, n_nodes: int):
    """k nodes, their weights 2 k w_k, and the x >= 0 cos/sin tables.

    P(k) integrates the slice's cubic spline by the trapezoid rule on the
    grid refined by its midpoints. Both steps are linear in the density, so
    the tables are S^T (w_fine cos(k x_fine)) and likewise for sin, on the
    measured x nodes. On a symmetric uniform grid the not-a-knot spline
    commutes with x -> -x, so the cos table is even and the sin table odd,
    and P(k) folds onto x >= 0: cos pairs with p(x) + p(-x) and sin with
    p(x) - p(-x). An x = 0 node appears twice in the even fold, so its row
    is halved.

    Away from the grid ends S^T turns the weighted exp(i k x_fine) into
    h f(k h) exp(i k x) on the nodes (see _spline_matrix for S). With t = k h,
    the node itself brings 1/2, the midpoint averages cos(t/2) / 2, and the
    slope terms, through the interior rows of A and B, bring
    3 sin(t) sin(t/2) / (16 + 8 cos t). The ends perturb a row d nodes in by
    about (2 - sqrt 3)^d, so the last _SPLINE_EDGE rows come from S itself,
    built on the last 2 _SPLINE_EDGE nodes (or on the whole grid if shorter).
    """
    x = np.frombuffer(x_bytes)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    k = 0.5 * kc * (nodes + 1.0)
    k_weights = kc * weights * k
    h = (x[-1] - x[0]) / (x.size - 1)
    t = k * h
    factor = h * (
        (1.0 + np.cos(t / 2.0)) / 2.0 + 3.0 * np.sin(t) * np.sin(t / 2.0) / (16.0 + 8.0 * np.cos(t))
    )
    arg = np.outer(x[x.size // 2 :], k)
    folded = np.hstack([np.cos(arg) * factor, np.sin(arg) * factor])
    edge = x[-2 * _SPLINE_EDGE :]
    x_fine = np.linspace(edge[0], edge[-1], 2 * edge.size - 1)
    arg = np.outer(x_fine, k)
    fine = _trapezoid_weights(x_fine)[:, None] * np.hstack([np.cos(arg), np.sin(arg)])
    rows = folded.shape[0] if edge.size == x.size else _SPLINE_EDGE
    folded[-rows:] = (_spline_matrix(edge.size).T @ fine)[-rows:]
    if x.size % 2:
        folded[0, :n_nodes] *= 0.5
    tables = (k, k_weights, folded[:, :n_nodes], folded[:, n_nodes:])
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _back_project(table: QuadratureTable, re_pts, im_pts, config: ReconstructionConfig):
    """Each slice's term of W (phys convention): shape (slices,) + point shape."""
    re_arr = np.atleast_1d(np.asarray(re_pts, dtype=np.float64))
    im_arr = np.atleast_1d(np.asarray(im_pts, dtype=np.float64))
    if re_arr.shape != im_arr.shape:
        raise InvalidArgument("re and im point arrays must have the same shape")
    if not (np.all(np.isfinite(re_arr)) and np.all(np.isfinite(im_arr))):
        raise InvalidArgument("reconstruction points must be finite")
    phases, x, density = table.phases, table.x_grid, table.density
    if phases[-1] < math.pi / 2 + 1e-9:
        raise InvalidArgument(
            f"phases only cover [0, {phases[-1]:.4f}]; reconstruction needs "
            f"coverage of [0, pi] (run extend_phases first)"
        )
    if x.size < 4:
        raise InvalidArgument(f"x grid needs at least 4 points, got {x.size}")
    if not np.allclose(x, -x[::-1], rtol=0, atol=1e-12):
        raise InvalidArgument("x grid must be symmetric about 0")
    steps = np.diff(x)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
        raise InvalidArgument("x grid must be uniform")
    u = re_arr.ravel()
    v = im_arr.ravel()
    kc = config.cutoff_kc
    reach = float(np.max(np.hypot(u, v), initial=0.0))
    omega = kc * (float(x[-1]) + reach)
    # _node_count(omega) > omega / 4, so the bound also keeps an overflowed
    # reach (inf) away from math.ceil
    n_nodes = _node_count(omega) if omega < 4.0 * _MAX_NODES else math.inf
    if n_nodes > _MAX_NODES:
        raise InvalidArgument(
            f"cutoff_kc * (max|x| + max|(u, v)|) = {omega:.4g} needs more than "
            f"{_MAX_NODES} k nodes; lower the cutoff or the point range"
        )
    k, k_weights, cos_table, sin_table = _node_tables(x.tobytes(), kc, n_nodes)
    half = x.size // 2
    mirrored = density[:, ::-1]
    scale = _phase_weights(phases)[:, None] * k_weights[None, :] / (4.0 * math.pi**2)
    re_part = ((density + mirrored)[:, half:] @ cos_table) * scale
    im_part = ((density - mirrored)[:, half:] @ sin_table) * scale
    # Re[P e^{-i k s}] = Re P cos(k s) + Im P sin(k s)
    terms = np.empty((phases.size, u.size))
    for i, phi in enumerate(phases):
        arg = np.multiply.outer(u * math.cos(phi) + v * math.sin(phi), k)
        terms[i] = np.cos(arg) @ re_part[i] + np.sin(arg) @ im_part[i]
    return terms.reshape(phases.shape + re_arr.shape)


def reconstruct_at(table: QuadratureTable, re_pts, im_pts, config: ReconstructionConfig):
    """Reconstructed W (phys convention) at arbitrary phase-space points."""
    terms = _back_project(table, re_pts, im_pts, config)
    # slice by slice, in phase order: np.sum would pair the terms differently
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    if np.isscalar(re_pts) and np.isscalar(im_pts):
        return float(out[0])
    return out


def slice_terms(table: QuadratureTable, u: float, v: float, config: ReconstructionConfig):
    """Each measured slice's share of W(u, v), its mirror included (phys convention).

    table covers [0, pi/2]; extend_phases appends the mirrors in reverse, so
    extended slice j folds onto measured slice min(j, n_ext - 1 - j). The
    shares sum to reconstruct_at(extend_phases(table), u, v, config).
    """
    terms = _back_project(extend_phases(table), u, v, config)[:, 0]
    j = np.arange(terms.size)
    shares = np.zeros(table.phases.size)
    np.add.at(shares, np.minimum(j, terms.size - 1 - j), terms)
    return shares


def reconstruct(
    table: QuadratureTable,
    re_axis,
    im_axis,
    config: ReconstructionConfig,
) -> WignerGrid:
    """Dense reconstruction over a rectangular grid, phys convention."""
    re_axis = np.asarray(re_axis, dtype=np.float64)
    im_axis = np.asarray(im_axis, dtype=np.float64)
    uu = np.broadcast_to(re_axis[:, None], (re_axis.size, im_axis.size))
    vv = np.broadcast_to(im_axis[None, :], (re_axis.size, im_axis.size))
    values = reconstruct_at(table, uu, vv, config)
    return WignerGrid(re_axis, im_axis, values, "phys")
