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
from .wigner import WignerGrid, _pair_sum, _superposition

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
    """Trapezoid weights on a closed grid (span pi), the step on a periodic one
    (uniform, span + step = pi); any other grid misses part of the period."""
    span = phases[-1] - phases[0]
    if abs(span - math.pi) < 1e-9:
        return _trapezoid_weights(phases)
    diffs = np.diff(phases)
    step = diffs[0] if diffs.size else math.nan
    if np.allclose(diffs, step, rtol=0, atol=1e-12) and abs(span + step - math.pi) < 1e-9:
        return np.full(phases.shape, step)
    raise InvalidArgument(
        f"phases [{phases[0]:.4f}, {phases[-1]:.4f}] neither close nor tile a period of pi"
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


def _points_shape(u: np.ndarray, v: np.ndarray) -> tuple:
    """The shape re and im points broadcast to; InvalidArgument if they do not."""
    try:
        return np.broadcast_shapes(u.shape, v.shape)
    except ValueError:
        raise InvalidArgument(f"re {u.shape} and im {v.shape} points do not broadcast") from None


def _back_project(table: QuadratureTable, re_pts, im_pts, config: ReconstructionConfig):
    """Each slice's term of W (phys convention): shape (slices,) + point shape."""
    u = np.atleast_1d(np.asarray(re_pts, dtype=np.float64))
    v = np.atleast_1d(np.asarray(im_pts, dtype=np.float64))
    shape = _points_shape(u, v)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise InvalidArgument("reconstruction points must be finite")
    phases, x, density = table.phases, table.x_grid, table.density
    phase_weights = _phase_weights(phases)
    if x.size < 4:
        raise InvalidArgument(f"x grid needs at least 4 points, got {x.size}")
    if not np.allclose(x, -x[::-1], rtol=0, atol=1e-12):
        raise InvalidArgument("x grid must be symmetric about 0")
    steps = np.diff(x)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
        raise InvalidArgument("x grid must be uniform")
    kc = config.cutoff_kc
    n_nodes = _checked_node_count(kc * (float(x[-1]) + float(np.max(np.hypot(u, v), initial=0.0))))
    k, k_weights, cos_table, sin_table = _node_tables(x.tobytes(), kc, n_nodes)
    half = x.size // 2
    mirrored = density[:, ::-1]
    scale = phase_weights[:, None] * k_weights[None, :] / (4.0 * math.pi**2)
    re_part = ((density + mirrored)[:, half:] @ cos_table) * scale
    im_part = ((density - mirrored)[:, half:] @ sin_table) * scale
    # Re[P e^{-i k s}] = Re P cos(k s) + Im P sin(k s)
    terms = np.empty(phases.shape + shape)
    for i, phi in enumerate(phases):
        arg = np.multiply.outer(u * math.cos(phi) + v * math.sin(phi), k)
        terms[i] = np.cos(arg) @ re_part[i] + np.sin(arg) @ im_part[i]
    return terms


def reconstruct_at(table: QuadratureTable, re_pts, im_pts, config: ReconstructionConfig):
    """Reconstructed W (phys convention) at points re_pts, im_pts (broadcast)."""
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
    values = reconstruct_at(table, re_axis[:, None], im_axis[None, :], config)
    return WignerGrid(re_axis, im_axis, values, "phys")


def reconstruct_closed_form(terms, phases, re_pts, im_pts, config: ReconstructionConfig):
    """The engine's phase and k sums over exact slice characteristic functions.

    For sum_i c_i |b_i> (terms as from cat_wigner_terms), slice phi has
    P(k) = <D(xi)> with xi = i k e^{i phi} / 2 (Cahill & Glauber 1969), from
    <b_j|D(xi)|b_i> = <b_j|b_i> exp(conj(b_j) xi - conj(xi) b_i - |xi|^2 / 2).
    With no Fock truncation, x grid or spline, the engine differs from this
    only by x discretisation, and this from the true W only by the cutoff
    and the phase sampling. Points broadcast as in reconstruct_at. Phys
    convention.
    """
    coeffs, mean, offsets, overlap, norm = _superposition(terms)
    phases = np.asarray(phases, dtype=np.float64)
    u = np.asarray(re_pts, dtype=np.float64)
    v = np.asarray(im_pts, dtype=np.float64)
    out = np.zeros(_points_shape(u, v))
    kc = config.cutoff_kc
    reach = max(abs(b) for _, b in terms) + float(np.max(np.hypot(u, v), initial=0.0))
    nodes, weights = np.polynomial.legendre.leggauss(2 * _checked_node_count(kc * reach))
    k = 0.5 * kc * (nodes + 1.0)
    xi = 0.5j * np.multiply.outer(np.exp(1j * phases), k)

    def exponent(i, j):
        # with b_i = m - e_i, the rest of the exponent is common to every pair
        return overlap[i, j] + offsets[i] * xi.conj() - np.conj(offsets[j]) * xi

    char = _pair_sum(coeffs, exponent, 2j * (np.conj(mean) * xi).imag - 0.5 * np.abs(xi) ** 2) / norm
    char *= _phase_weights(phases)[:, None] * (kc * weights * k) / (4.0 * math.pi**2)
    for phi, row in zip(phases, char):
        out += (np.exp(-1j * np.multiply.outer(u * math.cos(phi) + v * math.sin(phi), k)) @ row).real
    return float(out) if out.ndim == 0 else out
