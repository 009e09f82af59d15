"""Noise studies: slice perturbation, minimum search, Monte Carlo sweeps."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import CatSpec, make_cat
from .errors import InvalidArgument, NonFiniteResult, RegionError
from .quadrature import (
    QuadratureTable, _check_slice_areas, _size_class, build_table, default_phases,
)
from .tomography import ReconstructionConfig, reconstruct_at, slice_terms
from .wigner import convention_factor

NOISE_MODELS = ("per_slice_multiplicative",)
REPORT_SCHEMA = "catscan/minimum-report/1"
# Largest Fock truncation a config may ask for, and so the largest mean photon
# number: the quadrature wavefunction table is ~60 MB here on the default grid.
N_MAX_LIMIT = 1000
# Size limits on what an experiment asks to allocate, checked when it is built.
# 20,001 x points is step 0.001 over [-10, 10].
X_POINT_LIMIT = 20_001
# 361 phases is a quarter-degree step over [0, pi/2].
PHASE_COUNT_LIMIT = 361
# Each run makes one seeded draw per slice, about 0.25 us each in one vectorised
# pass on a 2-core Xeon (10,000 runs x 21 slices in 50 ms).
NOISE_RUNS_LIMIT = 10_000
# 4,001 points per wigner-oracle axis is step 0.005 over [-10, 10].
WIGNER_AXIS_LIMIT = 4_001
# find_minimum's default scan step, at which reconstruct scans the search region
SCAN_STEP = 0.005
# A probe-less study scans its search region at this step (see monte_carlo_study)
STUDY_SCAN_STEP = 0.01
# The search region's points at SCAN_STEP, as _scan_points counts them: 40,401 points
# is a 1 x 1 window, or a span of 202 on one axis.
SEARCH_POINT_LIMIT = 40_401


def default_n_max(mean_photon: float) -> int:
    """Fock truncation for a cat of this mean photon number: its size class's n_max."""
    return _size_class(mean_photon)[0]


@dataclass(frozen=True)
class NoiseSpec:
    magnitude: float
    runs: int = 50
    seed: int = 0
    model: str = "per_slice_multiplicative"

    def __post_init__(self):
        if not (0.0 <= self.magnitude < 1.0):
            raise InvalidArgument(
                f"noise magnitude must be in [0, 1), got {self.magnitude}"
            )
        if self.model not in NOISE_MODELS:
            raise InvalidArgument(f"unknown noise model {self.model!r}")
        # bool is an int, but a report with "runs": true or "seed": false is wrong
        if not (_is_int(self.runs) and self.runs >= 1):
            raise InvalidArgument(f"runs must be a positive integer, got {self.runs!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise InvalidArgument(f"seed must be a non-negative integer, got {self.seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_grid_size(name: str, points: float, limit: int) -> None:
    """points counts the nodes the command builds; an overflowed count (inf) fails too."""
    if not points <= limit:
        raise InvalidArgument(f"{name} has {points:.6g} points, more than the limit of {limit}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A cat measured on a phase x quadrature grid, back-projected with a cutoff and
    probed under slice noise. A field or search bound given as None takes its default.
    The default search region starts one 0.01 step, two SCAN_STEPs, below 0, so at
    either step the origin, a minus cat's minimum, has a scan node on each side."""

    cat: CatSpec
    n_max: int | None = None  # default_n_max(r^2)
    phase_count: int = 11
    x_max: float | None = None  # the size class's half-width, as default_x_grid(r^2) takes it
    x_step: float = 0.01
    recon: ReconstructionConfig | None = None  # ReconstructionConfig.for_mean_photon(r^2)
    noise: NoiseSpec | None = None
    probe: tuple[float, float] | None = None
    search_region: tuple[tuple[float, float], tuple[float, float]] | None = None  # u in [-0.01, 2r]
    wigner_range: float | None = None  # ceil(r + 3)
    wigner_step: float = 0.05
    out_prefix: str = "experiment"

    def __post_init__(self):
        nbar = self.cat.mean_photon
        if nbar > N_MAX_LIMIT:
            raise InvalidArgument(f"mean photon number r^2 = {nbar:.6g} exceeds {N_MAX_LIMIT}")
        n_max, x_max = _size_class(nbar)
        defaults = {
            "n_max": n_max,
            "x_max": x_max,
            "recon": ReconstructionConfig.for_mean_photon(nbar),
            "wigner_range": float(math.ceil(self.cat.r + 3.0)),
        }
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        region = ((-0.01, 2.0 * self.cat.r), (0.0, 0.0))
        given = self.search_region or ((None, None), (None, None))
        object.__setattr__(self, "search_region", tuple(
            tuple(default if bound is None else bound for bound, default in zip(bounds, axis))
            for bounds, axis in zip(given, region)
        ))
        if not (self.x_step > 0.0 and self.x_max > 0.0):
            raise InvalidArgument("x grid spec requires x_max > 0 and x_step > 0")
        _check_grid_size("x grid", 2 * self._x_half() + 1, X_POINT_LIMIT)
        if not 2 <= self.phase_count <= PHASE_COUNT_LIMIT:
            raise InvalidArgument(
                f"phase_count must be in [2, {PHASE_COUNT_LIMIT}], got {self.phase_count}"
            )
        if not 1 <= self.n_max <= N_MAX_LIMIT:
            raise InvalidArgument(f"n_max must be in [1, {N_MAX_LIMIT}], got {self.n_max}")
        if self.noise is not None and self.noise.runs > NOISE_RUNS_LIMIT:
            raise InvalidArgument(
                f"noise_runs must be at most {NOISE_RUNS_LIMIT}, got {self.noise.runs}"
            )
        if not (self.wigner_step > 0.0 and self.wigner_range > 0.0):
            raise InvalidArgument("wigner grid spec requires positive range and step")
        _check_grid_size("wigner grid axis", self._wigner_axis_size(), WIGNER_AXIS_LIMIT)
        # reconstruct scans it at SCAN_STEP; _scan_points rejects a degenerate one here
        _check_grid_size("search region scan", _scan_points(self.search_region), SEARCH_POINT_LIMIT)
        # each artifact is <out_prefix><suffix>, a file inside the output directory
        if self.out_prefix in ("", ".", "..") or "/" in self.out_prefix or "\\" in self.out_prefix:
            raise InvalidArgument(f"out_prefix must be a file name prefix, got {self.out_prefix!r}")

    def _x_half(self) -> float:
        """x_grid()'s half-width in whole x_steps, round(x_max / x_step); inf if it overflows."""
        n = self.x_max / self.x_step
        return round(n) if math.isfinite(n) else math.inf

    def x_grid(self) -> np.ndarray:
        n = self._x_half()
        return np.arange(-n, n + 1) * self.x_step

    def _wigner_axis_size(self) -> float:
        """round(2 range / step) + 1, the wigner-oracle axis; inf if the quotient overflows."""
        steps = 2.0 * self.wigner_range / self.wigner_step
        return round(steps) + 1 if math.isfinite(steps) else math.inf

    def _wigner_axis(self) -> np.ndarray:
        return np.linspace(-self.wigner_range, self.wigner_range, self._wigner_axis_size())

    def phases(self) -> np.ndarray:
        return default_phases(self.phase_count)


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as numpy splits an int seed (0 gives [0]).
    A negative n has no such words: n >>= 32 would stay at -1 forever."""
    if n < 0:
        raise InvalidArgument(f"seeds and run indices must be non-negative, got {n}")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


# numpy's SeedSequence hash (after O'Neill's seed_seq) and its PCG64 multiplier
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1


def _hasher(const: int, mult: int):
    """seed_seq's hash: each call xors in the hash constant, advances it by mult
    (mod 2^32), multiplies by it and folds the high half down."""

    def hash_(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hash_


def _seed_state(entropy: np.ndarray) -> list[np.ndarray]:
    """numpy's SeedSequence generate_state(4, np.uint64) for each row of a uint32 matrix.

    Returns the four uint64 columns. Every row makes the same hash calls in
    the same order, so one Python-int hash constant serves them all.
    """
    length = entropy.shape[1]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ (value >> 16)

    # an entry shorter than the pool hashes as zeros
    zeros = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [hashmix(entropy[:, j] if j < length else zeros) for j in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    out_hash = _hasher(_INIT_B, _MULT_B)
    words = [out_hash(pool[t % _POOL_SIZE]).astype(np.uint64) for t in range(2 * _POOL_SIZE)]
    return [words[2 * j] | (words[2 * j + 1] << 32) for j in range(_POOL_SIZE)]


def _mul128(hi: np.ndarray, lo: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi 2^64 + lo) c mod 2^128 on uint64 halves; only lo x c_lo needs 32-bit limbs."""
    c_hi, c_lo = c >> 64, c & _MASK64
    c1, c0 = c_lo >> 32, c_lo & _MASK32
    a1, a0 = lo >> 32, lo & _MASK32
    p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    lo_c_lo_high = a1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return lo_c_lo_high + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(x_hi, x_lo, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < x_lo), lo


def _pcg64_first_raw(seed_hi, seed_lo, seq_hi, seq_lo) -> np.ndarray:
    """The first random_raw() of PCG64 seeded from generate_state(4, uint64) = s0..s3.

    numpy reads seed = s0 2^64 + s1 and seq = s2 2^64 + s3, sets state 0 and
    inc = 2 seq + 1, steps x -> x M + inc once, adds seed and steps again;
    random_raw steps once more and reads the state out by XSL-RR. So the
    state read is (inc + seed) M^2 + inc (M + 1) mod 2^128.
    """
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    hi, lo = _add128(
        *_mul128(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), _PCG_MULT**2 % 2**128),
        *_mul128(inc_hi, inc_lo, _PCG_MULT + 1),
    )
    xored, rot = hi ^ lo, hi >> 58
    return (xored >> rot) | (xored << ((64 - rot) & 63))


def _uniform_draws(seed: int, runs: range, columns: int) -> np.ndarray:
    """Seeded U[0, 1) draws: one row per run in runs, one column per index i.

    Entry (run, i) is (raw >> 11) 2^-53, the draw Generator.uniform scales,
    where raw is the first random_raw() of numpy's PCG64 seeded by the
    SeedSequence of [seed, run, i].
    No Generator, SeedSequence or PCG64 is built: every draw runs at once
    through numpy's SeedSequence hash of the little-endian uint32 words of
    [seed, run, i] (O'Neill's seed_seq design) and the closed-form PCG64
    XSL-RR 128/64 state after seeding and one step (O'Neill, HMC-CS-2014-0905;
    see _pcg64_first_raw). NEP 19 fixes both streams. Rows whose run takes
    the same number of words share one entropy matrix.
    """
    seed_words = _uint32_words(seed)
    run_words = [_uint32_words(run) for run in runs]
    index = np.arange(columns, dtype=np.uint32)
    raw = np.empty((len(runs), columns), dtype=np.uint64)
    for width in sorted({len(words) for words in run_words}):
        rows = [k for k, words in enumerate(run_words) if len(words) == width]
        heads = np.array([seed_words + run_words[k] for k in rows], dtype=np.uint32)
        entropy = np.column_stack((np.repeat(heads, columns, axis=0), np.tile(index, len(rows))))
        raw[rows] = _pcg64_first_raw(*_seed_state(entropy)).reshape(len(rows), columns)
    return (raw >> 11) * 2.0**-53


def _slice_factors(spec: NoiseSpec, runs: range, slice_count: int) -> np.ndarray:
    """Factors 1 + eps, eps ~ U[-m, m]: one row per run in runs, one column per slice.

    Entry (run, i) is 1 plus the uniform(-m, m) draw of numpy's default_rng
    seeded with [seed, run, i], bit for bit, so runs and slices are
    independent and order-free: the arithmetic of Generator.uniform,
    low + (high - low) u, on every _uniform_draws value u at once.
    """
    m = spec.magnitude
    return 1.0 + (-m + 2.0 * m * _uniform_draws(spec.seed, runs, slice_count))


def perturb(table: QuadratureTable, spec: NoiseSpec, run_index: int) -> QuadratureTable:
    """Scale each phase slice by its factor 1 + eps for run run_index.

    The reference for monte_carlo_study, which draws the same factors.
    """
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
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # a NaN or infinity, which JSON cannot hold
            raise NonFiniteResult(
                f"report not written: value {self.value}, mean {self.mean}, "
                f"stddev {self.stddev} at {self.location} ({exc})"
            ) from exc
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _scan_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """find_minimum's nodes on one axis: lo, lo + step, ... up to hi plus half a step."""
    return np.arange(lo, hi + step / 2.0, step)


def _scan_points(search_region, step: float = SCAN_STEP) -> float:
    """The points find_minimum scans: per axis, numpy's length of _scan_axis,
    ceil((stop - start) / step), inf if that quotient is not finite. InvalidArgument
    unless the bounds are finite, re_hi > re_lo, im_hi >= im_lo and each axis has a
    node (far from 0, a zero-width axis plus half a step rounds back to its start)."""
    (re_lo, re_hi), (im_lo, im_hi) = search_region
    quotients = [(hi + step / 2.0 - lo) / step for lo, hi in search_region]
    bounds_finite = all(map(math.isfinite, (re_lo, re_hi, im_lo, im_hi)))
    if not (bounds_finite and re_hi > re_lo and im_hi >= im_lo and min(quotients) > 0.0):
        raise InvalidArgument(
            f"search region must be finite and non-degenerate, got {search_region!r}"
        )
    return math.prod(math.ceil(n) if math.isfinite(n) else math.inf for n in quotients)


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
    window around it as the region. A region with one v node is a 1-d scan
    along u. _scan_points rejects a degenerate region with InvalidArgument;
    RegionError is raised when the scan minimum sits on an end of
    the u axis, or of a v axis with more than one node, since the quadratic
    refinement (and the minimum itself) is then unconstrained.
    """
    if not 0.0 < step <= 0.01:
        raise InvalidArgument(f"scan step must lie in (0, 0.01], got {step}")
    _scan_points(search_region, step)
    (re_lo, re_hi), (im_lo, im_hi) = search_region
    us = _scan_axis(re_lo, re_hi, step)
    vs = _scan_axis(im_lo, im_hi, step)
    vals = np.asarray(target(us[:, None], vs[None, :]), dtype=np.float64)

    iu, iv = np.unravel_index(np.argmin(vals), vals.shape)
    if iu in (0, us.size - 1) or (vs.size > 1 and iv in (0, vs.size - 1)):
        raise RegionError(
            f"scan minimum at ({us[iu]:.4f}, {vs[iv]:.4f}) lies on the "
            f"search boundary; enlarge the region"
        )
    u_star, v_star = float(us[iu]), float(vs[iv])
    f_best = float(vals[iu, iv])
    u_star += _parabola_refine(
        vals[iu - 1, iv], vals[iu, iv], vals[iu + 1, iv], us[iu + 1] - us[iu]
    )
    if vs.size > 1:
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

    Back projection is a sum of per-slice terms, so a run that scales
    measured slice i (and the mirror it implies, if any) by 1 + eps_i gives
    sum_i (1 + eps_i) W_i, where W_i is slice i's share (slice_terms): one
    factor per measured slice, whatever phases span. One back-projection
    pass gives every W_i; value is their sum. One _slice_factors call draws the runs x slices
    factor matrix, the rows perturb draws, and one product applies it. The
    draws are uniform(-m, m) from numpy's default_rng seeded with
    [seed, run, i], bit for bit, computed in one vectorised pass of numpy's
    SeedSequence hash (O'Neill's seed_seq design) and the closed-form PCG64
    XSL-RR state (inc + seed) M^2 + inc (M + 1) mod 2^128 (O'Neill,
    HMC-CS-2014-0905).
    mean and stddev (ddof=1, zero for a single run) summarize the runs.
    n_max, recon_config, phases, x_grid and search_region left None take
    ExperimentConfig's defaults. Without a probe, the probe is the
    minimum of the clean reconstruction over search_region, scanned at
    STUDY_SCAN_STEP (0.01) rather than reconstruct's SCAN_STEP (0.005): that
    scan is most of a probe-less study, SCAN_STEP would double it, and on the
    preset regions the refined minimum lands within 3.8e-5 of the finer scan's.
    """
    scale = convention_factor(convention)
    experiment = ExperimentConfig(
        cat, n_max=n_max, recon=recon_config, noise=noise, search_region=search_region
    )
    recon_config = experiment.recon
    phases = experiment.phases() if phases is None else phases
    x_grid = experiment.x_grid() if x_grid is None else x_grid
    table = _check_slice_areas(build_table(make_cat(cat, experiment.n_max), phases, x_grid))
    if probe_point is None:
        probe_point = find_minimum(
            lambda u, v: reconstruct_at(table, u, v, recon_config), experiment.search_region, STUDY_SCAN_STEP
        ).location
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
            "n_max": experiment.n_max,
            "phase_count": int(np.asarray(phases).size),
            "x_range": [float(np.min(x_grid)), float(np.max(x_grid))],
            "cutoff_kc": recon_config.cutoff_kc,
            "fit_model": recon_config.fit_model,
            "noise_magnitude": noise.magnitude,
            "noise_model": noise.model,
            "runs": noise.runs,
        },
    )
