"""Noise studies: slice perturbation, minimum search, Monte Carlo sweeps."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import CatSpec, make_cat
from .errors import InvalidArgument, RegionError
from .quadrature import QuadratureTable, build_table, default_phases, default_x_grid
from .tomography import ReconstructionConfig, extend_phases, reconstruct_at, slice_terms
from .wigner import convention_factor

NOISE_MODELS = ("per_slice_multiplicative",)
REPORT_SCHEMA = "catscan/minimum-report/1"
# Largest Fock truncation a config may ask for, and so the largest mean photon
# number: the quadrature wavefunction table is ~60 MB here on the default grid.
N_MAX_LIMIT = 1000
# find_minimum's default scan step
SCAN_STEP = 0.005
# reconstruct and a probe-less noise-study scan the search region at SCAN_STEP, as
# _scan_points counts: 40,401 points is a 1 x 1 window, or a span of 202 on one axis.
SEARCH_POINT_LIMIT = 40_401


def default_n_max(mean_photon: float) -> int:
    """Truncation for cat states: 50 covers nbar <= 5, 60 covers nbar <= 10.

    The thresholds carry a small slack so r = sqrt(5) and r = sqrt(10)
    (squared radii a few ulp above the integer) take the intended branch.
    """
    if mean_photon <= 5.0 + 1e-9:
        return 50
    if mean_photon <= 10.0 + 1e-9:
        return 60
    return 60 + 6 * math.ceil(mean_photon - 10.0)


@dataclass(frozen=True)
class NoiseSpec:
    magnitude: float
    runs: int
    seed: int
    model: str = "per_slice_multiplicative"

    def __post_init__(self):
        if not (0.0 <= self.magnitude < 1.0):
            raise InvalidArgument(
                f"noise magnitude must be in [0, 1), got {self.magnitude}"
            )
        if self.model not in NOISE_MODELS:
            raise InvalidArgument(f"unknown noise model {self.model!r}")
        if not (isinstance(self.runs, int) and self.runs >= 1):
            raise InvalidArgument(f"runs must be a positive integer, got {self.runs}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise InvalidArgument(f"seed must be a non-negative integer, got {self.seed!r}")


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as numpy splits an int seed (0 gives [0])."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def _slice_factors(spec: NoiseSpec, runs: range, slice_count: int) -> np.ndarray:
    """Factors 1 + eps, eps ~ U[-m, m]: one row per run in runs, one column per slice.

    Entry (run, i) is 1 + np.random.default_rng([seed, run, i]).uniform(-m, m)
    bit for bit, so runs and slices are independent and order-free. No
    Generator is built: numpy's own SeedSequence takes the words numpy splits
    that list into, numpy's PCG64 gives one raw draw, and the arithmetic of
    Generator.uniform, low + (high - low) * (raw >> 11) 2^-53, runs on every
    draw at once.
    """
    seed_words = _uint32_words(spec.seed)
    raw = np.empty((len(runs), slice_count), dtype=np.uint64)
    for row, run in zip(raw, runs):
        head = seed_words + _uint32_words(run)
        entropy = np.array([head + [i] for i in range(slice_count)], dtype=np.uint32)
        row[:] = [np.random.PCG64(np.random.SeedSequence(e)).random_raw() for e in entropy]
    m = spec.magnitude
    return 1.0 + (-m + 2.0 * m * ((raw >> 11) * 2.0**-53))


def perturb(table: QuadratureTable, spec: NoiseSpec, run_index: int) -> QuadratureTable:
    """Scale each phase slice by its factor 1 + eps for run run_index.

    The reference for monte_carlo_study, which draws the same factors.
    """
    if run_index < 0:
        raise InvalidArgument(f"run_index must be >= 0, got {run_index}")
    factors = _slice_factors(spec, range(run_index, run_index + 1), table.phases.size)[0]
    return QuadratureTable(table.phases, table.x_grid, table.density * factors[:, None])


@dataclass(frozen=True)
class MinimumReport:
    location: tuple[float, float]
    value: float
    mean: float
    stddev: float
    convention: str
    seed: int | None = None
    config: dict | None = field(default=None, repr=False)

    def to_json(self, path=None) -> str:
        payload = {
            "schema": REPORT_SCHEMA,
            "location": [self.location[0], self.location[1]],
            "value": self.value,
            "mean": self.mean,
            "stddev": self.stddev,
            "convention": self.convention,
            "seed": self.seed,
            "config": self.config,
        }
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, source) -> "MinimumReport":
        text = str(source)  # JSON text, or the path of a file holding it
        if not text.lstrip().startswith("{"):
            with open(text) as fh:
                text = fh.read()
        payload = json.loads(text)
        if payload.get("schema") != REPORT_SCHEMA:
            raise InvalidArgument(f"unknown report schema {payload.get('schema')!r}")
        return cls(
            location=(payload["location"][0], payload["location"][1]),
            value=payload["value"],
            mean=payload["mean"],
            stddev=payload["stddev"],
            convention=payload["convention"],
            seed=payload.get("seed"),
            config=payload.get("config"),
        )


def _scan_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """find_minimum's nodes on one axis: lo, lo + step, ... up to hi plus half a step."""
    return np.arange(lo, hi + step / 2.0, step)


def _scan_points(search_region, step: float = SCAN_STEP) -> float:
    """The points find_minimum scans: per axis, numpy's length of _scan_axis,
    ceil((stop - start) / step), 0 if that quotient is not positive, inf if not finite."""
    points = 1.0
    for lo, hi in search_region:
        n = (hi + step / 2.0 - lo) / step
        if n <= 0.0:
            return 0.0
        points *= math.ceil(n) if math.isfinite(n) else math.inf
    return points


def _parabola_refine(f0: float, f1: float, f2: float, h: float) -> float:
    """Vertex offset of the parabola through three equally spaced points."""
    denom = f0 - 2.0 * f1 + f2
    if denom <= 0.0:
        return 0.0
    return 0.5 * h * (f0 - f2) / denom


def find_minimum(
    target,
    search_region,
    step: float = SCAN_STEP,
    convention: str = "phys",
) -> MinimumReport:
    """Locate a Wigner minimum by dense scan plus parabolic refinement.

    target is a callable f(u_column, v_row) -> grid in phys convention,
    scanned over the whole region; a caller after a local minimum passes the
    window around it as the region. RegionError is raised when the scan
    minimum sits on the region boundary, since the quadratic refinement (and
    the minimum itself) is then unconstrained.
    """
    if step > 0.01:
        raise InvalidArgument(f"scan step must be <= 0.01, got {step}")
    (re_lo, re_hi), (im_lo, im_hi) = search_region
    if not (re_hi > re_lo and im_hi >= im_lo):
        raise InvalidArgument(f"degenerate search region {search_region!r}")

    us = _scan_axis(re_lo, re_hi, step)
    vs = _scan_axis(im_lo, im_hi, step)
    vals = np.asarray(target(us[:, None], vs[None, :]), dtype=np.float64)

    iu, iv = np.unravel_index(np.argmin(vals), vals.shape)
    on_edge = iu in (0, vals.shape[0] - 1) or (
        vs.size > 2 and iv in (0, vals.shape[1] - 1)
    )
    if on_edge:
        raise RegionError(
            f"scan minimum at ({us[iu]:.4f}, {vs[iv]:.4f}) lies on the "
            f"search boundary; enlarge the region"
        )
    u_star, v_star = float(us[iu]), float(vs[iv])
    f_best = float(vals[iu, iv])
    u_star += _parabola_refine(
        vals[iu - 1, iv], vals[iu, iv], vals[iu + 1, iv], us[iu + 1] - us[iu]
    )
    if vs.size > 2 and 0 < iv < vs.size - 1:
        v_star += _parabola_refine(
            vals[iu, iv - 1], vals[iu, iv], vals[iu, iv + 1], vs[iv + 1] - vs[iv]
        )
    f_star = float(np.asarray(target(np.array([u_star]), np.array([v_star])))[0])
    if f_star > f_best:
        # the parabola misread a non-smooth target: keep the scanned node
        u_star, v_star, f_star = float(us[iu]), float(vs[iv]), f_best
    value = f_star * convention_factor(convention)
    return MinimumReport(
        location=(u_star, v_star),
        value=value,
        mean=value,
        stddev=0.0,
        convention=convention,
    )


def _clean_scan(table, recon_config, search_region, step=SCAN_STEP, convention="phys"):
    """find_minimum of the noiseless reconstruction from table, extended."""
    ext = extend_phases(table)
    return find_minimum(
        lambda u, v: reconstruct_at(ext, u, v, recon_config), search_region, step, convention
    )


def monte_carlo_study(
    cat: CatSpec,
    noise: NoiseSpec,
    recon_config: ReconstructionConfig | None = None,
    probe_point: tuple[float, float] | None = None,
    convention: str = "paper",
    n_max: int | None = None,
    phases=None,
    x_grid=None,
    search_region=None,
) -> MinimumReport:
    """Reconstruction of W at a probe point under per-slice noise.

    Back projection is a sum of per-slice terms, so a run that scales slice i
    (and its mirror) by 1 + eps_i gives sum_i (1 + eps_i) W_i, where W_i is
    slice i's share (slice_terms). One back-projection pass gives every W_i;
    value is their sum. One _slice_factors call draws the runs x slices
    factor matrix, the rows perturb draws, and one product applies it.
    mean and stddev (ddof=1, zero for a single run) summarize the runs.
    Without a probe, the probe is the minimum reconstruct's clean scan finds in
    search_region at SCAN_STEP; with no region, in u in [0, 2r], v = 0, at step 0.01.
    """
    scale = convention_factor(convention)
    if n_max is None:
        n_max = default_n_max(cat.mean_photon)
    state = make_cat(cat, n_max)
    if phases is None:
        phases = default_phases()
    if x_grid is None:
        x_grid = default_x_grid(cat.mean_photon)
    if recon_config is None:
        recon_config = ReconstructionConfig.for_mean_photon(cat.mean_photon)
    table = build_table(state, phases, x_grid)
    if probe_point is None:
        region, step = search_region, SCAN_STEP
        if region is None:
            # the library default: half the points of the CLI's default scan
            region, step = ((0.0, 2.0 * cat.r), (0.0, 0.0)), 0.01
        probe_point = _clean_scan(table, recon_config, region, step).location
    u0, v0 = float(probe_point[0]), float(probe_point[1])
    parts = slice_terms(table, u0, v0, recon_config) * scale
    clean_value = float(parts.sum())
    samples = _slice_factors(noise, range(noise.runs), parts.size) @ parts
    stddev = float(np.std(samples, ddof=1)) if noise.runs > 1 else 0.0
    return MinimumReport(
        location=(u0, v0),
        value=clean_value,
        mean=float(np.mean(samples)),
        stddev=stddev,
        convention=convention,
        seed=noise.seed,
        config={
            "r": cat.r,
            "theta": cat.theta,
            "sign": cat.sign,
            "n_max": n_max,
            "phase_count": int(np.asarray(phases).size),
            "x_range": [float(np.min(x_grid)), float(np.max(x_grid))],
            "cutoff_kc": recon_config.cutoff_kc,
            "fit_model": recon_config.fit_model,
            "noise_magnitude": noise.magnitude,
            "noise_model": noise.model,
            "runs": noise.runs,
        },
    )
