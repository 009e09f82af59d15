import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import catscan.tomography as tomography_module

from catscan import (
    CatSpec,
    InvalidArgument,
    QuadratureTable,
    ReconstructionConfig,
    WignerGrid,
    ZeroNorm,
    build_table,
    cat_wigner_terms,
    coherent_state,
    default_n_max,
    default_phases,
    default_x_grid,
    evaluate_grid,
    make_cat,
    reconstruct,
    reconstruct_at,
    reconstruct_closed_form,
    slice_terms,
    vacuum,
    wigner_superposition,
)
from catscan.circuit import _herald
from catscan.cli import parse_config
from catscan.experiment import _clean_scan
from catscan.tomography import extend_phases

SQRT5 = math.sqrt(5.0)
TWO_OVER_PI = 2.0 / math.pi


def test_config_validation():
    with pytest.raises(InvalidArgument):
        ReconstructionConfig(cutoff_kc=0.0)


def test_config_for_mean_photon():
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    assert cfg.cutoff_kc == pytest.approx(2.0 * (2.0 * math.sqrt(5.0) + 4.0))
    with pytest.raises(InvalidArgument):
        ReconstructionConfig.for_mean_photon(-1.0)


def _built_from_caller_arrays(holder):
    """(the caller's arrays, the object built from them, the names of its arrays)."""
    phases, x = default_phases(3), default_x_grid(1.0)
    density = np.ones((phases.size, x.size))
    u, v = np.linspace(-0.5, 0.5, 3), np.linspace(-0.25, 0.25, 2)
    values = np.ones((u.size, v.size))
    table, grid = ("phases", "x_grid", "density"), ("re_axis", "im_axis", "values")
    if holder == "build_table":
        return (phases, x), build_table(vacuum(20), phases, x), table
    if holder == "QuadratureTable":
        return (phases, x, density), QuadratureTable(phases, x, density), table
    if holder == "reconstruct":
        measured = build_table(vacuum(20), default_phases(), default_x_grid(1.0))
        return (u, v), reconstruct(measured, u, v, ReconstructionConfig(8.0)), grid
    if holder == "evaluate_grid":
        return (u, v), evaluate_grid([(1.0, 0.0)], u, v), grid
    return (u, v, values), WignerGrid(u, v, values), grid


@pytest.mark.parametrize(
    "holder", ["build_table", "QuadratureTable", "reconstruct", "evaluate_grid", "WignerGrid"]
)
def test_frozen_types_hold_read_only_copies_of_the_callers_arrays(holder):
    given, made, names = _built_from_caller_arrays(holder)
    for arr in given:
        assert arr.flags.writeable
    for name in names:
        held = getattr(made, name)
        assert not held.flags.writeable
        assert not any(np.shares_memory(held, arr) for arr in given)


def _mirrored(table):
    """The full [0, pi] table a measured half implies: the slice at pi - phi is the
    slice at phi reversed in x, p(x, pi - phi) = p(-x, phi), and a mirror within
    1e-12 of the last phase (pi/2) is not repeated."""
    phases, rows = list(table.phases), list(table.density)
    for phi, row in zip(table.phases[::-1], table.density[::-1]):
        if math.pi - phi - phases[-1] >= 1e-12:
            phases.append(math.pi - phi)
            rows.append(row[::-1])
    return QuadratureTable(np.array(phases), table.x_grid, np.array(rows))


def test_extend_phases_returns_a_measured_table_unchanged():
    state = make_cat(CatSpec(SQRT5, math.pi / 2), 50)
    table = build_table(state, default_phases(11), default_x_grid(5.0))
    assert extend_phases(table) is table


def test_extend_phases_rejects_wide_input():
    state = make_cat(CatSpec(SQRT5, 0.2), 50)
    phases = np.linspace(0.0, 2.0, 5)
    table = build_table(state, phases, default_x_grid(5.0))
    with pytest.raises(InvalidArgument):
        extend_phases(table)


# measured halves: the slices that imply a mirror, and the full grid that weights them
HALF_GRIDS = {
    "with-pi/2": (default_phases(11), [True] * 10 + [False], 21),
    "half-step-offset": ((np.arange(8) + 0.5) * math.pi / 16.0, [True] * 8, 16),
    # the one half that would also tile pi as a full grid; it reads as a half
    "two-phases": (np.array([0.0, math.pi / 2]), [True, False], 3),
}


@pytest.mark.parametrize("grid", HALF_GRIDS, ids=list(HALF_GRIDS))
def test_a_measured_half_is_weighted_as_its_mirrored_grid(grid):
    """A slice and its implied mirror take the mirrored grid's weight each;
    pi/2 takes it once."""
    phases, implied, full_size = HALF_GRIDS[grid]
    full = _mirrored(QuadratureTable(phases, [-1.0, 1.0], np.ones((phases.size, 2)))).phases
    assert full.size == full_size
    weights, got = tomography_module._slice_weights(phases)
    assert got.tolist() == implied
    mirrored_weights = tomography_module._phase_weights(full)[: phases.size]
    assert np.array_equal(weights, np.where(implied, 2.0, 1.0) * mirrored_weights)


# r in (0.05, 3.2), theta in (0, pi/2], both signs
CAT_DRAWS = dict(
    r=st.floats(0.05, 3.2, exclude_min=True, exclude_max=True),
    theta=st.floats(0.0, math.pi / 2, exclude_min=True),
    sign=st.sampled_from(["plus", "minus"]),
)


def _heralded_cat(r, theta, sign):
    """make_cat's state and its heralding probability p; below the herald
    floor make_cat builds no cat, so there is nothing to check."""
    try:
        return _herald(CatSpec(r, theta, sign), default_n_max(r * r))
    except ZeroNorm:
        assume(False)


@settings(max_examples=200)
@given(**CAT_DRAWS)
def test_cat_amplitudes_are_real_up_to_a_global_phase(r, theta, sign):
    """The implied mirrors' precondition holds for every cat make_cat builds.

    Heralding divides the rounding of the branch sum by sqrt(p), so a
    near-degenerate minus cat (r sin(theta) -> 0) is real only to about
    1e-16 / sqrt(p): 2.5e-10 at r = 0.3, theta = 1e-6.
    """
    state, prob = _heralded_cat(r, theta, sign)
    amps = state.amplitudes
    top = amps[np.argmax(np.abs(amps))]
    amps = amps * (np.conj(top) / abs(top))
    assert np.max(np.abs(amps.imag)) <= 1e-15 / math.sqrt(prob)


@settings(max_examples=40)
@given(count=st.integers(2, 11), **CAT_DRAWS)
def test_extended_slices_match_the_mirrored_phases(count, r, theta, sign):
    """p(x, pi - phi) = p(-x, phi) for every cat make_cat builds: to 1.4e-14
    for p = 1/2, and at the herald floor p = 1e-14 still ten times inside
    the 1e-6 the removed runtime check allowed."""
    state, prob = _heralded_cat(r, theta, sign)
    x_grid = default_x_grid(r * r)
    extended = _mirrored(build_table(state, default_phases(count), x_grid))
    direct = build_table(state, extended.phases, x_grid)
    assert np.max(np.abs(direct.density - extended.density)) <= 1e-14 / math.sqrt(prob)


@settings(max_examples=30)
@given(**CAT_DRAWS)
def test_implied_mirrors_match_measured_ones(r, theta, sign):
    """The measured [0, pi/2] table reconstructs as the table measured on the
    mirrored full grid, which takes the general pair form. Like the mirrored
    slices, the difference grows as 1/sqrt(p): |diff| sqrt(p) read at most
    2.8e-16 over 345 random cats with p down to 1.2e-14."""
    state, prob = _heralded_cat(r, theta, sign)
    x_grid = default_x_grid(r * r)
    measured = build_table(state, default_phases(), x_grid)
    direct = build_table(state, _mirrored(measured).phases, x_grid)
    cfg = ReconstructionConfig.for_mean_photon(r * r)
    u, v = np.array([0.0, 0.3, -0.7, r]), np.array([0.0, 0.0, 1.1, -0.5])
    diff = np.max(np.abs(reconstruct_at(measured, u, v, cfg) - reconstruct_at(direct, u, v, cfg)))
    assert diff <= 1e-15 / math.sqrt(prob)


def test_reconstruct_reads_a_measured_half():
    """The theta90 minimum (-3.16) from the 11 measured slices alone."""
    state = make_cat(CatSpec(SQRT5, math.pi / 2), 50)
    table = build_table(state, default_phases(11), default_x_grid(5.0))
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    got = reconstruct_at(table, 0.3346, 0.0, cfg)
    assert abs(2.0 * math.pi * got / -3.16 - 1.0) < 0.03
    assert got == pytest.approx(reconstruct_at(_mirrored(table), 0.3346, 0.0, cfg), abs=1e-15)



def test_reconstruct_rejects_phases_short_of_a_period():
    """A uniform grid must close the period of pi or tile it.

    These tables once reconstructed without an error: the theta90 minimum
    (-3.16) read -1.62 on [0, 2.0] and -2.35 on [0.1, pi - 0.1]. Measurements
    that stop short of pi/2 leave a hole in the mirrored grid: -10.80 on
    [0, 0.1, 0.2], -3.1703 for 9 phases on [0, 1.2] and -3.1625 for 10 phases
    0 ... 9 pi / 20, against -3.1620 on the default grid.
    """
    spec = CatSpec(SQRT5, math.pi / 2)
    state = make_cat(spec, 50)
    x = default_x_grid(5.0)
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    from_01 = build_table(state, np.linspace(0.1, math.pi / 2, 6), x)
    short = [[0.0, 0.1, 0.2], np.linspace(0.0, 1.2, 9), np.arange(10) * math.pi / 20.0]
    for table in (
        build_table(state, np.linspace(0.0, 2.0, 11), x),
        from_01,
        build_table(state, [0.5], x),
        *(build_table(state, phases, x) for phases in short),
    ):
        with pytest.raises(InvalidArgument, match="period of pi"):
            reconstruct_at(table, 0.3346, 0.0, cfg)
        with pytest.raises(InvalidArgument, match="period of pi"):
            reconstruct_closed_form(cat_wigner_terms(spec), table.phases, 0.3346, 0.0, cfg)
    with pytest.raises(InvalidArgument, match="period of pi"):
        slice_terms(from_01, 0.3346, 0.0, cfg)


@pytest.mark.parametrize(
    "phases",
    [
        np.linspace(0.0, math.pi, 21),
        np.arange(21) * math.pi / 21.0,
        np.linspace(0.3, 0.3 + math.pi, 15),
    ],
    ids=["closed", "periodic", "closed-shifted"],
)
def test_closed_and_periodic_phase_grids_reconstruct(phases):
    spec = CatSpec(SQRT5, math.pi / 2)
    table = build_table(make_cat(spec, 50), phases, default_x_grid(5.0))
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    got = reconstruct_at(table, 0.3346, 0.0, cfg)
    assert got == pytest.approx(
        reconstruct_closed_form(cat_wigner_terms(spec), phases, 0.3346, 0.0, cfg), abs=1e-6
    )
    assert abs(2.0 * math.pi * got / -3.16 - 1.0) < 0.03


def test_reconstruct_requires_symmetric_x_grid():
    state = make_cat(CatSpec(SQRT5, math.pi / 2), 50)
    x = np.linspace(-5.0, 6.0, 1101)
    table = build_table(state, default_phases(11), x)
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    with pytest.raises(InvalidArgument):
        reconstruct_at(table, 0.0, 0.0, cfg)


def test_vacuum_reconstruction_peak():
    table = build_table(vacuum(20), default_phases(11), default_x_grid(1.0))
    peak = reconstruct_at(table, 0.0, 0.0, ReconstructionConfig(cutoff_kc=8.0))
    assert abs(peak / TWO_OVER_PI - 1.0) < 0.01


def test_coherent_reconstruction_peak_and_negativity():
    beta = 1.0 + 0.5j
    state = coherent_state(beta, 40)
    # real-amplitude symmetry does not hold for this state, so build the
    # slices directly on the full [0, pi) range instead of extending
    phases = np.arange(21) * math.pi / 21.0
    table = build_table(state, phases, np.linspace(-4.0, 4.0, 801))
    cfg = ReconstructionConfig(cutoff_kc=12.0)
    axis = np.arange(-0.6, 2.61, 0.1)
    grid = reconstruct(table, axis, axis, cfg)
    peak_idx = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    peak_at = (grid.re_axis[peak_idx[0]], grid.im_axis[peak_idx[1]])
    assert abs(peak_at[0] - beta.real) < 0.1 + 1e-9
    assert abs(peak_at[1] - beta.imag) < 0.1 + 1e-9
    peak = grid.values[peak_idx]
    assert abs(peak / TWO_OVER_PI - 1.0) < 0.01
    # ringing from the frequency cutoff stays below 2% of the peak
    assert grid.values.min() > -0.02 * peak


def _scale_rows(table, factors):
    return QuadratureTable(table.phases, table.x_grid, table.density * np.asarray(factors)[:, None])


# 21 and 16 mirrored slices: pi/2 measured (no mirror of its own) or not
@pytest.mark.parametrize(
    "phases",
    [default_phases(), (np.arange(8) + 0.5) * math.pi / 16.0],
    ids=["default", "half-step-offset"],
)
def test_slice_terms_are_single_slice_reconstructions(phases):
    state = make_cat(CatSpec(SQRT5, 1.11), 50)
    table = build_table(state, phases, default_x_grid(5.0))
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    for u, v in ((0.3346, 0.0), (-1.2, 0.7), (2.0, -1.5)):
        shares = slice_terms(table, u, v, cfg)
        # slice i and its mirror alone, on the full table: every other row zeroed
        single = [
            reconstruct_at(_mirrored(_scale_rows(table, unit)), u, v, cfg)
            for unit in np.eye(phases.size)
        ]
        assert shares == pytest.approx(single, rel=1e-13, abs=1e-13 * np.max(np.abs(shares)))
        full = reconstruct_at(_mirrored(table), u, v, cfg)
        assert shares.sum() == pytest.approx(full, rel=1e-13)


THETA111_TABLE = build_table(
    make_cat(CatSpec(SQRT5, 1.11), 50), default_phases(), default_x_grid(5.0)
)


@settings(max_examples=40)
@given(
    i=st.integers(min_value=0, max_value=10),
    c=st.floats(min_value=0.01, max_value=100.0),
    u=st.floats(min_value=-3.0, max_value=3.0),
    v=st.floats(min_value=-3.0, max_value=3.0),
)
def test_scaling_one_slice_scales_its_share_alone(i, c, u, v):
    """A share can cancel to near zero, so rounding is measured against the largest."""
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    base = slice_terms(THETA111_TABLE, u, v, cfg)
    factors = np.where(np.arange(base.size) == i, c, 1.0)
    scaled = slice_terms(_scale_rows(THETA111_TABLE, factors), u, v, cfg)
    assert np.max(np.abs(scaled - factors * base)) <= 1e-12 * np.max(np.abs(factors * base))


def test_reconstruction_linear_in_density():
    xg = default_x_grid(1.0)
    phases = default_phases(11)
    t1 = build_table(vacuum(20), phases, xg)
    t2 = build_table(coherent_state(0.8, 30), phases, xg)
    mixed = QuadratureTable(t1.phases, t1.x_grid, 0.3 * t1.density + 0.7 * t2.density)
    cfg = ReconstructionConfig(cutoff_kc=10.0)
    pts_u = np.array([0.0, 0.4, 0.8, -0.3])
    pts_v = np.array([0.0, 0.1, -0.2, 0.5])
    combo = reconstruct_at(mixed, pts_u, pts_v, cfg)
    parts = 0.3 * reconstruct_at(t1, pts_u, pts_v, cfg) + 0.7 * reconstruct_at(
        t2, pts_u, pts_v, cfg
    )
    assert np.max(np.abs(combo - parts)) < 1e-10


def test_phase_count_convergence():
    # reconstruction error at the oracle minimum shrinks as slices are added
    spec = CatSpec(SQRT5, math.pi / 2)
    state = make_cat(spec, 50)
    terms = cat_wigner_terms(spec)
    probe = 0.33463309
    exact = wigner_superposition(terms, probe + 0.0j)
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    errors = []
    for count in (6, 11, 21):
        table = build_table(state, default_phases(count), default_x_grid(5.0))
        got = reconstruct_at(table, probe, 0.0, cfg)
        errors.append(abs(got - exact))
    # the phase quadrature converges so fast that by 11 slices the error is
    # already the frequency-cutoff floor; 21 slices must not be worse
    assert errors[0] > errors[1]
    assert errors[2] <= errors[1] + 1e-9
    assert errors[1] / abs(exact) < 0.03


def test_dense_reconstruct_matches_pointwise():
    state = make_cat(CatSpec(SQRT5, 0.2), 50)
    table = build_table(state, default_phases(11), default_x_grid(5.0))
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    re_axis = np.linspace(2.4, 3.0, 7)
    im_axis = np.linspace(-0.2, 0.2, 3)
    grid = reconstruct(table, re_axis, im_axis, cfg)
    assert grid.convention == "phys"
    for i, u in enumerate(re_axis):
        for j, v in enumerate(im_axis):
            assert grid.values[i, j] == pytest.approx(
                float(reconstruct_at(table, float(u), float(v), cfg)), abs=1e-12
            )


def _cutoff_kernel(xi, kc):
    """K(xi) = int_{-kc}^{kc} |k| exp(i k xi) dk in closed form.

    -4 sin^2(t / 2) / xi^2 + 2 kc sin(t) / xi with t = kc xi, which has no
    cancellation in cos - 1; the series kc^2 (1 - t^2/4 + t^4/72) takes over
    for |t| < 1e-4.
    """
    t = kc * xi
    small = np.abs(t) < 1e-4
    xi_safe = np.where(small, 1.0, xi)
    t_safe = kc * xi_safe
    exact = -4.0 * np.sin(0.5 * t_safe) ** 2 / xi_safe**2 + 2.0 * kc * np.sin(t_safe) / xi_safe
    return np.where(small, kc**2 * (1.0 - t**2 / 4.0 + t**4 / 72.0), exact)


def test_cutoff_kernel_matches_its_integral():
    kc = 12.0
    xi = np.concatenate([np.linspace(-3.0, 3.0, 21), [0.99e-4 / kc, 1.01e-4 / kc, 1e-3 / kc]])
    nodes, weights = np.polynomial.legendre.leggauss(200)
    k = 0.5 * kc * (nodes + 1.0)
    numeric = np.cos(np.multiply.outer(xi, k)) @ (kc * weights * k)
    assert np.max(np.abs(_cutoff_kernel(xi, kc) - numeric)) < 1e-10 * kc**2


def _explicit_back_projection(table, u, v, kc, x_nodes, density):
    """The cutoff-kernel sum over slices and x nodes, trapezoid in both."""
    rows = []
    for row, phi in zip(density, table.phases):
        kernel = _cutoff_kernel(x_nodes - u * math.cos(phi) - v * math.sin(phi), kc)
        rows.append(np.trapezoid(row * kernel, x_nodes))
    return np.trapezoid(rows, table.phases) / (4.0 * math.pi**2)


def test_engine_matches_explicit_kernel_sum():
    state = make_cat(CatSpec(SQRT5, 1.11), 50)
    measured = build_table(state, default_phases(7), np.linspace(-6.0, 6.0, 241))
    table = _mirrored(measured)
    cfg = ReconstructionConfig(cutoff_kc=12.0)
    x_nodes = np.linspace(-6.0, 6.0, 481)
    density = np.array([CubicSpline(table.x_grid, row)(x_nodes) for row in table.density])
    pts_u = np.array([0.0, 0.35, 1.2, -2.0, 2.2])
    pts_v = np.array([0.0, 0.1, -0.4, 1.5, 0.0])
    got = reconstruct_at(measured, pts_u, pts_v, cfg)
    want = np.array(
        [
            _explicit_back_projection(table, u, v, 12.0, x_nodes, density)
            for u, v in zip(pts_u, pts_v)
        ]
    )
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


PRESETS = ("theta90", "theta63", "theta02", "nbar10", "noise25", "noise50")
FAR_POINTS = ((15.0, 0.0), (0.0, -15.0), (-10.6, 10.6), (12.0, 9.0))


def _preset_table(preset):
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / f"{preset}.cfg")
    state = make_cat(cfg.cat, cfg.n_max)
    return cfg, build_table(state, cfg.phases(), cfg.x_grid())


@pytest.mark.parametrize("preset", PRESETS)
def test_doubling_node_count_leaves_w_unchanged(preset, monkeypatch):
    cfg, table = _preset_table(preset)
    probe = reconstruct_at(table, *cfg.probe, cfg.recon)
    far = [reconstruct_at(table, u, v, cfg.recon) for u, v in FAR_POINTS]
    node_count = tomography_module._node_count
    monkeypatch.setattr(tomography_module, "_node_count", lambda omega: 2 * node_count(omega))
    probe_2m = reconstruct_at(table, *cfg.probe, cfg.recon)
    far_2m = [reconstruct_at(table, u, v, cfg.recon) for u, v in FAR_POINTS]
    assert abs(probe - probe_2m) < 1e-13 * abs(probe_2m)
    # W is near zero far out, so there the change is measured against the
    # largest |W| a state can have, 2/pi
    for a, b in zip(far, far_2m):
        assert abs(a - b) < 1e-13 * TWO_OVER_PI


SQUARE_AXIS = np.linspace(-3.0, 3.0, 13)
SQUARE_U, SQUARE_V = np.meshgrid(SQUARE_AXIS, SQUARE_AXIS, indexing="ij")


@pytest.mark.parametrize("preset", PRESETS)
def test_engine_matches_same_phase_closed_form(preset):
    """The engine differs from the closed form by x discretisation alone.

    Measured: 7.6e-8 (theta90, noise25, noise50), 3.3e-8 (theta63),
    2.0e-9 (theta02), 2.6e-7 (nbar10).
    """
    cfg, table = _preset_table(preset)
    engine = reconstruct_at(table, SQUARE_U, SQUARE_V, cfg.recon)
    oracle = reconstruct_closed_form(
        cat_wigner_terms(cfg.cat), table.phases, SQUARE_U, SQUARE_V, cfg.recon
    )
    assert np.max(np.abs(engine - oracle)) <= 1e-6


@settings(max_examples=40)
@given(
    r=st.floats(min_value=0.5, max_value=2.5),
    theta=st.floats(min_value=0.05, max_value=math.pi / 2),
    sign=st.sampled_from(["plus", "minus"]),
    points=st.lists(
        st.tuples(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0)),
        min_size=1,
        max_size=8,
    ),
)
def test_engine_matches_same_phase_closed_form_for_any_cat(r, theta, sign, points):
    spec = CatSpec(r, theta, sign)
    state = make_cat(spec, default_n_max(spec.mean_photon))
    table = build_table(state, default_phases(), default_x_grid(spec.mean_photon))
    cfg = ReconstructionConfig.for_mean_photon(spec.mean_photon)
    u, v = np.array(points).T
    engine = reconstruct_at(table, u, v, cfg)
    oracle = reconstruct_closed_form(cat_wigner_terms(spec), table.phases, u, v, cfg)
    assert np.max(np.abs(engine - oracle)) <= 1e-6


def _shortcuts_taken(monkeypatch):
    """Record, per measured slice, whether _phase_sum takes the conjugate shortcut."""
    taken = []
    slice_share = tomography_module._slice_share

    def spy(a, b, even, odd):
        taken.append(odd is None)
        return slice_share(a, b, even, odd)

    monkeypatch.setattr(tomography_module, "_slice_share", spy)
    return taken


# a periodic [0, pi) and a closed [0, pi] grid: full periods, as an asymmetric state needs
FULL_GRIDS = {"periodic": np.arange(21) * math.pi / 21.0, "closed": np.linspace(0.0, math.pi, 21)}
BETA = 1.0 + 0.5j


def _coherent_table(phases):
    return build_table(coherent_state(BETA, 40), phases, np.linspace(-5.0, 5.0, 1001))


@pytest.mark.parametrize("grid", FULL_GRIDS)
def test_engine_matches_closed_form_of_an_asymmetric_state(grid, monkeypatch):
    """A coherent state off both axes, on a periodic [0, pi) or closed [0, pi]
    grid, not extended: each measured slice stands alone, in the general form.

    Every cat is symmetric under v -> -v; this state is not, so the closed
    form of the conjugate state (0.56 away) pins the phase convention.
    """
    taken = _shortcuts_taken(monkeypatch)
    beta, phases = BETA, FULL_GRIDS[grid]
    table = _coherent_table(phases)
    cfg = ReconstructionConfig(cutoff_kc=12.0)
    engine = reconstruct_at(table, SQUARE_U, SQUARE_V, cfg)
    assert taken == [False] * 21
    oracle = reconstruct_closed_form([(1.0, beta)], phases, SQUARE_U, SQUARE_V, cfg)
    assert np.max(np.abs(engine - oracle)) <= 1e-8
    conjugate = reconstruct_closed_form([(1.0, beta.conjugate())], phases, SQUARE_U, SQUARE_V, cfg)
    assert np.max(np.abs(engine - conjugate)) > 0.1
    node_count = tomography_module._node_count
    monkeypatch.setattr(tomography_module, "_node_count", lambda omega: 2 * node_count(omega))
    doubled = reconstruct_closed_form([(1.0, beta)], phases, SQUARE_U, SQUARE_V, cfg)
    assert np.max(np.abs(doubled - oracle)) < 1e-13


@pytest.mark.parametrize("grid", FULL_GRIDS)
def test_slice_terms_of_a_full_table_are_single_slice_reconstructions(grid):
    """A full table takes one share per measured slice, each the slice alone,
    and the shares sum to the reconstruction."""
    table = _coherent_table(FULL_GRIDS[grid])
    cfg = ReconstructionConfig(cutoff_kc=12.0)
    for u, v in ((1.0, 0.5), (0.3346, 0.0), (-1.2, 0.7), (2.0, -1.5)):
        shares = slice_terms(table, u, v, cfg)
        single = [reconstruct_at(_scale_rows(table, unit), u, v, cfg) for unit in np.eye(21)]
        assert shares == pytest.approx(single, rel=1e-13, abs=1e-13 * np.max(np.abs(shares)))
        assert abs(shares.sum() - reconstruct_at(table, u, v, cfg)) <= 1e-15 * TWO_OVER_PI


def test_points_broadcast_through_engine_and_closed_form():
    spec = CatSpec(SQRT5, 1.11)
    table = THETA111_TABLE
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    column, row = SQUARE_AXIS[:, None], SQUARE_AXIS[None, :]
    engine = reconstruct_at(table, column, row, cfg)
    assert np.max(np.abs(engine - reconstruct_at(table, SQUARE_U, SQUARE_V, cfg))) <= 1e-15
    assert isinstance(reconstruct_at(table, 0.8954, 0.0, cfg), float)
    terms = cat_wigner_terms(spec)
    oracle = reconstruct_closed_form(terms, table.phases, column, row, cfg)
    want = reconstruct_closed_form(terms, table.phases, SQUARE_U, SQUARE_V, cfg)
    assert np.max(np.abs(oracle - want)) <= 1e-15
    for evaluate in (
        lambda u, v: reconstruct_at(table, u, v, cfg),
        lambda u, v: reconstruct_closed_form(terms, table.phases, u, v, cfg),
    ):
        with pytest.raises(InvalidArgument):
            evaluate(np.zeros(3), np.zeros(4))


def test_closed_form_returns_the_shape_of_its_points():
    spec = CatSpec(SQRT5, 1.11)
    phases = THETA111_TABLE.phases
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    scalar = reconstruct_closed_form(cat_wigner_terms(spec), phases, 0.8954, 0.0, cfg)
    assert isinstance(scalar, float)
    grid = reconstruct_closed_form(cat_wigner_terms(spec), phases, SQUARE_U, SQUARE_V, cfg)
    assert grid.shape == SQUARE_U.shape
    assert grid[0, 0] == pytest.approx(
        reconstruct_closed_form(cat_wigner_terms(spec), phases, -3.0, -3.0, cfg), abs=1e-15
    )
    for u in (math.nan, 1.0e4):
        with pytest.raises(InvalidArgument):
            reconstruct_closed_form(cat_wigner_terms(spec), phases, u, 0.0, cfg)


POINT_CASES = {
    "scalar": (0.8954, 0.0, None),
    "0-d": (np.array(0.8954), np.array(0.0), None),
    "vector x scalar": (np.array([0.1, 0.5, 0.8954]), 0.0, (3,)),
    "column x row": (SQUARE_AXIS[:, None], SQUARE_AXIS[None, :], (13, 13)),
}


@pytest.mark.parametrize("evaluator", ["engine", "closed_form"])
@pytest.mark.parametrize("case", POINT_CASES)
def test_engine_and_closed_form_share_the_point_and_return_rule(evaluator, case):
    """A float for two 0-d inputs, else the broadcast shape, whatever the evaluator."""
    u, v, shape = POINT_CASES[case]
    table = THETA111_TABLE
    terms = cat_wigner_terms(CatSpec(SQRT5, 1.11))
    cfg = ReconstructionConfig.for_mean_photon(5.0)

    def evaluate(u, v):
        if evaluator == "engine":
            return reconstruct_at(table, u, v, cfg)
        return reconstruct_closed_form(terms, table.phases, u, v, cfg)

    got = evaluate(u, v)
    if shape is None:
        assert type(got) is float
    else:
        assert isinstance(got, np.ndarray) and got.shape == shape
    flat_u, flat_v = (a.ravel() for a in np.broadcast_arrays(np.atleast_1d(u), np.atleast_1d(v)))
    assert np.max(np.abs(np.ravel(got) - evaluate(flat_u, flat_v))) <= 1e-15


def test_closed_form_rejects_a_non_finite_point_as_such():
    phases = THETA111_TABLE.phases
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    terms = cat_wigner_terms(CatSpec(SQRT5, 1.11))
    for u, v in ((math.nan, 0.0), (np.array([0.0, math.inf]), 0.0)):
        with pytest.raises(InvalidArgument, match="finite"):
            reconstruct_closed_form(terms, phases, u, v, cfg)


@pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0], [1.0, 0.5, 0.0]])
def test_reconstruct_rejects_a_repeated_or_decreasing_axis(axis):
    table = build_table(vacuum(20), default_phases(11), default_x_grid(1.0))
    cfg = ReconstructionConfig(cutoff_kc=8.0)
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        reconstruct(table, axis, [0.0, 0.5], cfg)
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        reconstruct(table, [0.0, 0.5], axis, cfg)


def test_reconstruct_rejects_non_finite_points():
    table = build_table(vacuum(20), default_phases(11), default_x_grid(1.0))
    cfg = ReconstructionConfig(cutoff_kc=8.0)
    for u, v in ((math.nan, 0.0), (0.0, math.inf), (np.array([0.0, -math.inf]), np.zeros(2))):
        with pytest.raises(InvalidArgument):
            reconstruct_at(table, u, v, cfg)


def test_reconstruct_rejects_node_count_past_limit():
    table = build_table(vacuum(20), default_phases(11), default_x_grid(1.0))
    for u in (1.0e4, 1.0e308):
        with pytest.raises(InvalidArgument):
            reconstruct_at(table, u, u, ReconstructionConfig(cutoff_kc=8.0))
    with pytest.raises(InvalidArgument):
        reconstruct_at(table, 0.0, 0.0, ReconstructionConfig(cutoff_kc=1.0e5))


def _fine_grid(x):
    """x and its midpoints, with their trapezoid weights."""
    x_fine = np.linspace(x[0], x[-1], 2 * x.size - 1)
    w_fine = np.full(x_fine.size, x_fine[1] - x_fine[0])
    w_fine[[0, -1]] *= 0.5
    return x_fine, w_fine


def _zero_padded(x, values, pad):
    """x extended by pad nodes per side, and values (x along the last axis) by zeros."""
    h = (x[-1] - x[0]) / (x.size - 1)
    x_pad = np.linspace(x[0] - pad * h, x[-1] + pad * h, x.size + 2 * pad)
    return x_pad, np.pad(values, [(0, 0)] * (values.ndim - 1) + [(pad, pad)])


def _spline_trapezoid_terms(table, u, v, kc, pad=0):
    """Per-slice terms, each slice's CubicSpline summed on the refined grid.

    pad = 0 fits the slice with scipy's not-a-knot ends; pad zero nodes per
    side stand in for the zero-extended (cardinal) spline, whose end
    conditions reach in by (2 - sqrt 3)^pad.
    """
    x, density = _zero_padded(table.x_grid, table.density, pad)
    x_fine, w_fine = _fine_grid(x)
    fine = CubicSpline(x, density, axis=1)(x_fine)
    n_nodes = tomography_module._node_count(kc * (table.x_grid[-1] + np.max(np.hypot(u, v))))
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    k = 0.5 * kc * (nodes + 1.0)
    char = (fine * w_fine) @ np.exp(1j * np.multiply.outer(x_fine, k))
    phases = table.phases
    w_phase = np.full(phases.size, phases[1] - phases[0])
    w_phase[[0, -1]] *= 0.5
    s = np.multiply.outer(np.cos(phases), u) + np.multiply.outer(np.sin(phases), v)
    phase_factor = np.exp(-1j * np.multiply.outer(s, k))
    sums = np.einsum("im,ipm->ip", char * (kc * weights * k), phase_factor).real
    return w_phase[:, None] * sums / (4.0 * math.pi**2)


def _fold_pairs(terms):
    """Per-slice terms of a mirrored measured half, slice j and its mirror
    size - 1 - j added: the measured slices' shares, in order."""
    half = len(terms) // 2
    folded = terms[: len(terms) - half].copy()
    folded[:half] += terms[::-1][:half]
    return folded


# densities near 1 at the grid ends, where the zero extension moves every term
@pytest.mark.parametrize("n", [241, 240, 41, 40])
def test_back_project_matches_spline_trapezoid_sum(n):
    rng = np.random.default_rng(n)
    x = np.linspace(-6.0, 6.0, n)
    phases = np.linspace(0.0, math.pi, 9)
    table = QuadratureTable(phases, x, rng.uniform(0.0, 1.0, (phases.size, n)))
    u, v = rng.uniform(-2.5, 2.5, (2, 6))
    got = tomography_module._back_project(table, u, v, ReconstructionConfig(cutoff_kc=12.0)).sum(0)
    want = _spline_trapezoid_terms(table, u, v, 12.0, pad=40)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "spec",
    [CatSpec(SQRT5, 1.11), CatSpec(SQRT5, math.pi / 2, "minus")],
    ids=["theta111", "theta90-minus"],
)
@pytest.mark.parametrize("n", [240, 241, 1201])
def test_back_project_matches_not_a_knot_spline_where_densities_vanish(spec, n):
    """On [-6, 6] the cat densities are ~2e-13 at the ends, so the end conditions
    cannot move a term: the zero-extended spline matches the not-a-knot one. The
    engine implies the mirrors of the measured slices; the sum has them measured."""
    x = np.linspace(-6.0, 6.0, n)
    table = build_table(make_cat(spec, 50), default_phases(7), x)
    u, v = np.array([0.3346, -1.2, 2.0, 0.0]), np.array([0.0, 0.7, -1.5, 2.2])
    got = tomography_module._back_project(table, u, v, ReconstructionConfig(cutoff_kc=12.0)).sum(0)
    want = _fold_pairs(_spline_trapezoid_terms(_mirrored(table), u, v, 12.0))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [201, 200, 41, 40, 9, 8, 5, 4])
def test_node_tables_fold_the_even_and_odd_spline_tables(n):
    x = np.linspace(-6.0, 6.0, n)
    k, _, cos_table, sin_table = tomography_module._node_tables(x.tobytes(), 12.0, 40)
    x_pad, unit = _zero_padded(x, np.eye(n), 40)
    x_fine, w_fine = _fine_grid(x_pad)
    spline = CubicSpline(x_pad, unit, axis=1)(x_fine)
    arg = np.multiply.outer(x_fine, k)
    full_cos = spline @ (w_fine[:, None] * np.cos(arg))
    full_sin = spline @ (w_fine[:, None] * np.sin(arg))
    scale = np.max(np.abs(full_cos))
    # the zero-extended spline commutes with x -> -x, which is what the fold needs
    assert np.max(np.abs(full_cos - full_cos[::-1])) <= 1e-13 * scale
    assert np.max(np.abs(full_sin + full_sin[::-1])) <= 1e-13 * scale
    want_cos = full_cos[n // 2 :].copy()
    if n % 2:
        want_cos[0] *= 0.5  # x = 0 enters the even fold twice
    assert np.max(np.abs(cos_table - want_cos)) <= 1e-13 * scale
    assert np.max(np.abs(sin_table - full_sin[n // 2 :])) <= 1e-13 * scale


def test_reconstruct_rejects_non_uniform_or_tiny_x_grid():
    cfg = ReconstructionConfig(cutoff_kc=8.0)
    for x in (np.sinh(np.linspace(-2.5, 2.5, 401)), np.array([-0.01, 0.0, 0.01])):
        table = build_table(vacuum(20), default_phases(11), x)
        with pytest.raises(InvalidArgument):
            reconstruct_at(table, 0.0, 0.0, cfg)


# closing grids with and without pi/2, a tiling grid with an unpaired 0, the
# half-step-offset grid, and a closing grid that no slice's mirror lies on; each
# with its mirror pairs (j, m), phases[m] = pi - phases[j]
PAIR_GRIDS = {
    "closing-with-pi/2": (np.linspace(0.0, math.pi, 21), [(j, 20 - j) for j in range(10)]),
    "closing-without-pi/2": (np.linspace(0.0, math.pi, 20), [(j, 19 - j) for j in range(10)]),
    "tiling-from-0": (np.arange(21) * math.pi / 21.0, [(j, 21 - j) for j in range(1, 11)]),
    "half-step-offset": ((np.arange(16) + 0.5) * math.pi / 16.0, [(j, 15 - j) for j in range(8)]),
    "closing-shifted": (np.linspace(0.3, 0.3 + math.pi, 15), []),
    # slice 0 is an end (half weight), its mirror 7 is not
    "closing-half-step": (np.linspace(0.5, 8.5, 9) * math.pi / 8.0, [(j, 7 - j) for j in range(4)]),
}


def _slice_by_slice(re_p, im_p, phases, k, k_weights, u, v):
    """Each slice's own term (1 / 4 pi^2) w_i sum_k 2 k w_k Re[P_i(k) exp(-i k s_i)]."""
    scale = tomography_module._phase_weights(phases)[:, None] * k_weights / (4.0 * math.pi**2)
    s = np.multiply.outer(np.cos(phases), u) + np.multiply.outer(np.sin(phases), v)
    arg = np.multiply.outer(s, k)
    return np.einsum("ipk,ik->ip", np.cos(arg), re_p * scale) + np.einsum(
        "ipk,ik->ip", np.sin(arg), im_p * scale
    )


def _random_char(rng, phases, n_nodes=60, conjugate=False):
    """Random Re P and Im P at n_nodes k nodes on [0, 12]; conjugate makes row
    size - 1 - j the conjugate of row j, so P' = conj P exactly on a mirrored
    measured half."""
    re_p, im_p = rng.normal(size=(2, phases.size, n_nodes))
    if conjugate:
        for j in range(phases.size // 2):
            re_p[-1 - j], im_p[-1 - j] = re_p[j], -im_p[j]
    return (re_p, im_p, *tomography_module._k_rule(12.0, n_nodes))


@settings(max_examples=200)
@given(
    n=st.integers(min_value=2, max_value=722),
    start=st.one_of(st.just(0.0), st.floats(min_value=-math.pi, max_value=math.pi)),
    closing=st.booleans(),
    half_step=st.booleans(),
)
def test_every_full_grid_takes_one_share_per_slice(n, start, closing, half_step):
    """On every full grid the phase sum accepts, slice i's share is its own term,
    on the real axis and off it."""
    step = math.pi / (n - 1 if closing else n)
    if half_step:
        start = 0.5 * step
    phases = start + np.arange(n) * step
    tomography_module._phase_weights(phases)  # the grid is one the phase sum accepts
    assume(not tomography_module._measured_half(phases))  # [0, pi/2] tiles pi, but reads as a half
    rng = np.random.default_rng(n)
    re_p, im_p, k, k_weights = _random_char(rng, phases, n_nodes=8)  # few nodes: up to 722 slices
    u = rng.uniform(-3.0, 3.0, 4)
    for v in (np.zeros(4), rng.uniform(-3.0, 3.0, 4)):
        got = tomography_module._phase_sum(re_p, im_p, phases, k, k_weights, u, v).sum(0)
        terms = _slice_by_slice(re_p, im_p, phases, k, k_weights, u, v)
        assert np.max(np.abs(got - terms)) <= 1e-13 * np.max(np.abs(terms))


@pytest.mark.parametrize("grid", PAIR_GRIDS, ids=list(PAIR_GRIDS))
@pytest.mark.parametrize("conjugate", [False, True], ids=["asymmetric", "conjugate"])
@pytest.mark.parametrize("on_axis", [False, True], ids=["plane", "real-axis"])
def test_pair_shares_are_the_folded_slice_terms(grid, conjugate, on_axis):
    """A full grid folds no slice into another: each share is the slice's own
    term, also where the rows of each mirror pair are exact conjugates, which a
    measured half would fold into one share."""
    phases, pairs = PAIR_GRIDS[grid]
    rng = np.random.default_rng(len(phases))
    re_p, im_p, k, k_weights = _random_char(rng, phases)
    if conjugate:
        for j, m in pairs:
            re_p[m], im_p[m] = re_p[j], -im_p[j]
    u = rng.uniform(-3.0, 3.0, 12)
    v = np.zeros(12) if on_axis else rng.uniform(-3.0, 3.0, 12)
    got = tomography_module._phase_sum(re_p, im_p, phases, k, k_weights, u, v).sum(0)
    terms = _slice_by_slice(re_p, im_p, phases, k, k_weights, u, v)
    assert np.max(np.abs(got - terms)) <= 1e-13 * np.max(np.abs(terms))


def test_conjugate_shortcut_gives_the_general_formula_bit_for_bit():
    """The measured half's implied mirrors against the slice-by-slice sum of the
    full grid whose mirror rows of P are exact conjugates. The two sum in a
    different order, so they agree to rounding; that the shortcut is the
    general formula with odd = 0 bit for bit is
    test_real_axis_shortcut_gives_the_general_formula_bit_for_bit's check."""
    phases = np.linspace(0.0, math.pi, 21)
    rng = np.random.default_rng(7)
    re_p, im_p, k, k_weights = _random_char(rng, phases, conjugate=True)
    u, v = rng.uniform(-3.0, 3.0, (2, 35))
    implied = tomography_module._phase_sum(re_p[:11], im_p[:11], phases[:11], k, k_weights, u, v)
    terms = _fold_pairs(_slice_by_slice(re_p, im_p, phases, k, k_weights, u, v))
    assert np.max(np.abs(implied.sum(0) - terms)) <= 1e-13 * np.max(np.abs(terms))


@pytest.mark.parametrize("conjugate", [False, True], ids=["general", "conjugate"])
def test_real_axis_shortcut_gives_the_general_formula_bit_for_bit(conjugate):
    rng = np.random.default_rng(8)
    a = np.multiply.outer(rng.uniform(-3.0, 3.0, 9), np.linspace(0.0, 12.0, 40))
    even = tuple(rng.normal(size=(2, 40)))
    odd = None if conjugate else tuple(rng.normal(size=(2, 40)))
    shortcut = tomography_module._slice_share(a.copy(), None, even, odd)
    general = tomography_module._slice_share(a.copy(), np.zeros_like(a), even, odd)
    assert np.array_equal(shortcut, general)
    if not conjugate:
        # and the conjugate shortcut, off the axis, is the general formula with odd = 0
        b = np.multiply.outer(rng.uniform(-3.0, 3.0, 9), np.linspace(0.0, 12.0, 40))
        zeros = (np.zeros(40), np.zeros(40))
        assert np.array_equal(
            tomography_module._slice_share(a.copy(), b.copy(), even, None),
            tomography_module._slice_share(a.copy(), b.copy(), even, zeros),
        )


def test_conjugate_shortcut_is_decided_from_the_phase_grid(monkeypatch):
    """A measured [0, pi/2] table takes the conjugate form on every slice but
    pi/2, its own mirror; a table measured on [0, pi] takes the general form on
    every measured slice, whatever its rows. The table the benchmark's
    wigner-map set-up builds, the noise study's shares and its clean scan all
    take the conjugate form, as each phase-sum block shows."""
    taken = _shortcuts_taken(monkeypatch)
    per_block = [True] * 10 + [False]
    cfg, measured = _preset_table("theta90")
    wigner_map_table = extend_phases(measured)
    for run in (
        lambda: reconstruct(wigner_map_table, np.linspace(-3.0, 3.0, 41), [0.0, 0.5], cfg.recon),
        lambda: slice_terms(measured, *cfg.probe, cfg.recon),
        lambda: _clean_scan(measured, cfg.recon, cfg.search_region, 0.01),
    ):
        taken.clear()
        run()
        assert taken and taken == per_block * (len(taken) // 11)
    taken.clear()
    direct = build_table(make_cat(cfg.cat, cfg.n_max), _mirrored(measured).phases, cfg.x_grid())
    reconstruct_at(direct, 0.3, 0.2, cfg.recon)
    assert taken == [False] * 21
    terms = cat_wigner_terms(cfg.cat)
    for phases, want in ((direct.phases, [False] * 21), (measured.phases, per_block)):
        taken.clear()
        reconstruct_closed_form(terms, phases, 0.3, 0.2, cfg.recon)
        assert taken == want
    # mirrored rows on a full grid imply nothing either
    phases, pairs = PAIR_GRIDS["closing-half-step"]
    density = np.random.default_rng(9).uniform(0.0, 1.0, (phases.size, 41))
    for j, m in pairs:
        density[m] = density[j, ::-1]
    taken.clear()
    reconstruct_at(QuadratureTable(phases, np.linspace(-6.0, 6.0, 41), density), 0.3, 0.2, cfg.recon)
    assert taken == [False] * 9
