"""Homodyne quadrature distributions p(x, phi).

Convention: x = (a e^{-i phi} + a^dag e^{i phi})/2, so the vacuum
quadrature variance is 1/4 and |<x|0>|^2 = sqrt(2/pi) exp(-2 x^2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, TruncationError
from .fock import LEAKAGE_TOL, FockVector, _frozen


@dataclass(frozen=True)
class QuadratureTable:
    """Density rows density[i, j] = p(x_grid[j], phases[i])."""

    phases: np.ndarray = field(repr=False)
    x_grid: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)

    def __post_init__(self):
        phases = _grid_axis(self.phases)
        x_grid = _grid_axis(self.x_grid)
        density = _frozen(self.density, np.float64)
        if density.shape != (phases.size, x_grid.size):
            raise InvalidArgument(
                f"density shape {density.shape} does not match "
                f"{phases.size} phases x {x_grid.size} points"
            )
        if not np.all(np.isfinite(density)):
            raise InvalidArgument("density contains non-finite entries")
        if np.min(density) < -1e-12:
            raise InvalidArgument(f"density has negative entries (min {np.min(density):.3e})")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "x_grid", x_grid)
        object.__setattr__(self, "density", density)

    def to_csv(self, path) -> None:
        _write_long_csv(path, "phi,x,p", self.phases, self.x_grid, self.density)

    @classmethod
    def from_csv(cls, path) -> "QuadratureTable":
        with open(path, newline="") as fh:
            return cls(*_read_long_csv(fh, ["phi", "x", "p"]))


def _grid_axis(values) -> np.ndarray:
    """values as a read-only float grid axis of its own, which must be 1-d, non-empty and
    strictly increasing."""
    axis = _frozen(values, np.float64)
    if axis.ndim != 1 or axis.size < 1 or not np.all(np.diff(axis) > 0):
        raise InvalidArgument("grid axes must be 1-d, non-empty and strictly increasing")
    return axis


def _write_long_csv(path, header: str, a_axis, b_axis, values, preamble: str = "") -> None:
    """One a,b,value row per grid point, a-major, after the preamble and header.

    Rows end in CRLF, as csv.writer ends them. repr of a Python float
    round-trips bit-identically.
    """
    b_reprs = [repr(b) for b in b_axis.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(f"{preamble}{header}\r\n")
        for a, row in zip(a_axis.tolist(), values.tolist()):
            lead = f"{a!r},"
            fh.write("".join(f"{lead}{b},{value!r}\r\n" for b, value in zip(b_reprs, row)))


def _read_long_csv(fh, header: list[str]):
    """a axis, b axis and values of a long-format CSV read from its header row on."""
    reader = csv.reader(fh)
    found = next(reader, None)
    if found != header:
        raise InvalidArgument(f"unexpected CSV header {found!r}")
    a_axis: list[float] = []
    b_axis: list[float] = []
    rows: list[list[float]] = []
    for rec in reader:
        a, b, value = float(rec[0]), float(rec[1]), float(rec[2])
        if not a_axis or a != a_axis[-1]:
            a_axis.append(a)
            rows.append([])
        rows[-1].append(value)
        if len(a_axis) == 1:
            b_axis.append(b)
    return np.array(a_axis), np.array(b_axis), np.array(rows)


def default_phases(count: int = 11) -> np.ndarray:
    """count points n * (pi/2)/(count-1) covering [0, pi/2]."""
    if count < 2:
        raise InvalidArgument("need at least two phases")
    return np.arange(count) * (math.pi / 2) / (count - 1)


# Cat size classes: (largest mean photon number, Fock truncation n_max, x grid
# half-width). The limits carry a small slack so r = sqrt(5) and r = sqrt(10), whose
# squared radii land a few ulp above the integer, take the intended class.
_SIZE_CLASSES = ((5.0 + 1e-9, 50, 6.0), (10.0 + 1e-9, 60, 8.0))


def _size_class(mean_photon: float) -> tuple[int, float]:
    """(n_max, x half-width) of the size class of a cat of mean photon number nbar; past
    the table both grow with nbar."""
    for limit, n_max, half in _SIZE_CLASSES:
        if mean_photon <= limit:
            return n_max, half
    return 60 + 6 * math.ceil(mean_photon - 10.0), float(math.ceil(math.sqrt(mean_photon) + 5))


def default_x_grid(mean_photon: float) -> np.ndarray:
    """Uniform grid, step 0.01, over the size class's half-width: the lobes plus tails."""
    n = int(round(_size_class(mean_photon)[1] / 0.01))
    return np.arange(-n, n + 1) * 0.01


def quadrature_wavefunctions(n_max: int, x_grid: np.ndarray) -> np.ndarray:
    """Rows h_n(x) = <x|n> for n = 0 .. n_max.

    Built by the stable three-term recurrence on Hermite functions of
    argument sqrt(2) x with the (2/pi)^{1/4} prefactor. Rows are
    orthonormal under the trapezoid rule as long as the classical turning
    point sqrt(n + 1/2) stays inside the grid.
    """
    x_grid = _grid_axis(x_grid)
    if x_grid.size < 2:
        raise InvalidArgument("x_grid needs at least two points")
    q = math.sqrt(2.0) * x_grid
    h = np.empty((n_max + 1, x_grid.size))
    h[0] = (2.0 / math.pi) ** 0.25 * np.exp(-x_grid**2)
    if n_max >= 1:
        h[1] = math.sqrt(2.0) * q * h[0]
    for n in range(1, n_max):
        h[n + 1] = math.sqrt(2.0 / (n + 1)) * q * h[n] - math.sqrt(n / (n + 1.0)) * h[n - 1]
    return h


def quadrature_distribution(state: FockVector, phi: float, x_grid: np.ndarray) -> np.ndarray:
    """p(x, phi) = |sum_n c_n e^{-i n phi} h_n(x)|^2."""
    h = quadrature_wavefunctions(state.n_max, x_grid)
    n = np.arange(state.n_max + 1)
    rotated = state.amplitudes * np.exp(-1j * n * phi)
    psi = rotated @ h
    return np.abs(psi) ** 2


def build_table(state: FockVector, phases: np.ndarray, x_grid: np.ndarray) -> QuadratureTable:
    """Stack p(x, phi) rows for the given phases."""
    h = quadrature_wavefunctions(state.n_max, x_grid)
    # the quadrature_distribution of every phase, as two real products
    n = np.arange(state.n_max + 1)
    rotated = state.amplitudes * np.exp(-1j * np.multiply.outer(phases, n))
    rows = (rotated.real @ h) ** 2 + (rotated.imag @ h) ** 2
    return QuadratureTable(phases, x_grid, rows)


def _check_slice_areas(table: QuadratureTable) -> QuadratureTable:
    """table, once every slice keeps at least 1 - LEAKAGE_TOL of its probability on
    the x grid (its area density.sum(1) * step); TruncationError otherwise.

    A grid narrower than the state cuts its slices off, and the reconstruction
    from them is wrong without a sign of it: r = 2, theta = 1.5 on x_max = 2
    keeps 0.508 of one slice, and its minimum read -3.230 instead of -3.285. A
    step too coarse for the state's fringes misses the area as well: r = 2 on
    x_max = 8 keeps 0.9965 of a slice at step 0.5.
    """
    x = table.x_grid
    areas = table.density.sum(axis=1) * ((x[-1] - x[0]) / (x.size - 1))
    worst = int(np.argmin(areas))
    if areas[worst] < 1.0 - LEAKAGE_TOL:
        raise TruncationError(
            f"the slice at phi={table.phases[worst]:.6f} keeps {areas[worst]:.6g} of its "
            f"probability on x in [{x[0]:.6g}, {x[-1]:.6g}] (tolerance {LEAKAGE_TOL:.1e}); "
            f"widen the x grid or shorten its step"
        )
    return table
