import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import catscan.tomography as tomography_module

from catscan import (
    CatSpec,
    InvalidArgument,
    QuadratureTable,
    ReconstructionConfig,
    SymmetryViolation,
    build_table,
    cat_wigner_terms,
    coherent_state,
    default_n_max,
    default_phases,
    default_x_grid,
    extend_phases,
    make_cat,
    reconstruct,
    reconstruct_at,
    reconstruct_closed_form,
    slice_terms,
    vacuum,
    wigner_superposition,
)
from catscan.cli import parse_config

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


def test_extend_phases_doubles_coverage():
    state = make_cat(CatSpec(SQRT5, math.pi / 2), 50)
    table = build_table(state, default_phases(11), default_x_grid(5.0))
    extended = extend_phases(table)
    assert extended.phases.size == 21
    assert extended.phases[0] == 0.0
    assert extended.phases[-1] == pytest.approx(math.pi, abs=1e-12)
    # the pi slice is the mirrored 0 slice
    assert np.array_equal(extended.density[-1], table.density[0][::-1])
    # the pi/2 slice is kept once, unchanged
    mid = np.searchsorted(extended.phases, math.pi / 2 - 1e-9)
    assert np.array_equal(extended.density[mid], table.density[-1])


def test_extend_phases_rejects_wide_input():
    state = make_cat(CatSpec(SQRT5, 0.2), 50)
    phases = np.linspace(0.0, 2.0, 5)
    table = build_table(state, phases, default_x_grid(5.0))
    with pytest.raises(InvalidArgument):
        extend_phases(table)


def test_extend_phases_verification_accepts_symmetric_state():
    state = make_cat(CatSpec(SQRT5, 1.11), 50)
    table = build_table(state, default_phases(7), default_x_grid(5.0))
    extended = extend_phases(table, verify_state=state)
    assert extended.phases.size == 13


def test_extend_phases_flags_asymmetric_state():
    # a coherent state with complex amplitude has no conjugation symmetry
    state = coherent_state(2.0 * np.exp(1j * math.pi / 3.0), 50)
    table = build_table(state, default_phases(7), default_x_grid(5.0))
    with pytest.raises(SymmetryViolation):
        extend_phases(table, verify_state=state)


def test_reconstruct_requires_extended_phases():
    state = make_cat(CatSpec(SQRT5, math.pi / 2), 50)
    table = build_table(state, default_phases(11), default_x_grid(5.0))
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    with pytest.raises(InvalidArgument):
        reconstruct_at(table, 0.0, 0.0, cfg)


def test_reconstruct_rejects_phases_short_of_a_period():
    """A grid must close the period of pi or tile it uniformly.

    Both tables below once reconstructed without an error: the theta90
    minimum read -1.62 on [0, 2.0] and -2.35 on [0.1, pi - 0.1], not -3.16.
    """
    spec = CatSpec(SQRT5, math.pi / 2)
    state = make_cat(spec, 50)
    x = default_x_grid(5.0)
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    from_01 = build_table(state, np.linspace(0.1, math.pi / 2, 6), x)
    for table in (
        build_table(state, np.linspace(0.0, 2.0, 11), x),
        extend_phases(from_01),
        build_table(state, [0.5], x),
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
    table = extend_phases(build_table(state, default_phases(11), x))
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    with pytest.raises(InvalidArgument):
        reconstruct_at(table, 0.0, 0.0, cfg)


def test_vacuum_reconstruction_peak():
    table = extend_phases(build_table(vacuum(20), default_phases(11), default_x_grid(1.0)))
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


# 21 and 16 extended slices: pi/2 measured (no mirror of its own) or not
@pytest.mark.parametrize(
    "phases", [default_phases(), np.linspace(0.0, 1.4, 8)], ids=["default", "to-1.4"]
)
def test_slice_terms_are_single_slice_reconstructions(phases):
    state = make_cat(CatSpec(SQRT5, 1.11), 50)
    table = build_table(state, phases, default_x_grid(5.0))
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    for u, v in ((0.3346, 0.0), (-1.2, 0.7), (2.0, -1.5)):
        shares = slice_terms(table, u, v, cfg)
        # slice i alone: every other row zeroed
        single = [
            reconstruct_at(extend_phases(_scale_rows(table, unit)), u, v, cfg)
            for unit in np.eye(phases.size)
        ]
        assert shares == pytest.approx(single, rel=1e-13, abs=1e-13 * np.max(np.abs(shares)))
        full = reconstruct_at(extend_phases(table), u, v, cfg)
        assert shares.sum() == pytest.approx(full, rel=1e-13)


THETA111_TABLE = build_table(
    make_cat(CatSpec(SQRT5, 1.11), 50), default_phases(), default_x_grid(5.0)
)


@settings(max_examples=40, deadline=None)
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
    t1 = extend_phases(build_table(vacuum(20), phases, xg))
    t2 = extend_phases(build_table(coherent_state(0.8, 30), phases, xg))
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
        table = extend_phases(build_table(state, default_phases(count), default_x_grid(5.0)))
        got = reconstruct_at(table, probe, 0.0, cfg)
        errors.append(abs(got - exact))
    # the phase quadrature converges so fast that by 11 slices the error is
    # already the frequency-cutoff floor; 21 slices must not be worse
    assert errors[0] > errors[1]
    assert errors[2] <= errors[1] + 1e-9
    assert errors[1] / abs(exact) < 0.03


def test_dense_reconstruct_matches_pointwise():
    state = make_cat(CatSpec(SQRT5, 0.2), 50)
    table = extend_phases(build_table(state, default_phases(11), default_x_grid(5.0)))
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
    table = extend_phases(build_table(state, default_phases(7), np.linspace(-6.0, 6.0, 241)))
    cfg = ReconstructionConfig(cutoff_kc=12.0)
    x_nodes = np.linspace(-6.0, 6.0, 481)
    density = np.array([CubicSpline(table.x_grid, row)(x_nodes) for row in table.density])
    pts_u = np.array([0.0, 0.35, 1.2, -2.0, 2.2])
    pts_v = np.array([0.0, 0.1, -0.4, 1.5, 0.0])
    got = reconstruct_at(table, pts_u, pts_v, cfg)
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
    return cfg, extend_phases(build_table(state, cfg.phases(), cfg.x_grid()))


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


@settings(max_examples=40, deadline=None)
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
    table = extend_phases(build_table(state, default_phases(), default_x_grid(spec.mean_photon)))
    cfg = ReconstructionConfig.for_mean_photon(spec.mean_photon)
    u, v = np.array(points).T
    engine = reconstruct_at(table, u, v, cfg)
    oracle = reconstruct_closed_form(cat_wigner_terms(spec), table.phases, u, v, cfg)
    assert np.max(np.abs(engine - oracle)) <= 1e-6


def test_engine_matches_closed_form_of_an_asymmetric_state(monkeypatch):
    """A coherent state off both axes, on a periodic [0, pi) grid, not extended.

    Every cat is symmetric under v -> -v; this state is not, so the closed
    form of the conjugate state (0.56 away) pins the phase convention.
    """
    beta = 1.0 + 0.5j
    phases = np.arange(21) * math.pi / 21.0
    table = build_table(coherent_state(beta, 40), phases, np.linspace(-5.0, 5.0, 1001))
    cfg = ReconstructionConfig(cutoff_kc=12.0)
    engine = reconstruct_at(table, SQUARE_U, SQUARE_V, cfg)
    oracle = reconstruct_closed_form([(1.0, beta)], phases, SQUARE_U, SQUARE_V, cfg)
    assert np.max(np.abs(engine - oracle)) <= 1e-8
    conjugate = reconstruct_closed_form([(1.0, beta.conjugate())], phases, SQUARE_U, SQUARE_V, cfg)
    assert np.max(np.abs(engine - conjugate)) > 0.1
    node_count = tomography_module._node_count
    monkeypatch.setattr(tomography_module, "_node_count", lambda omega: 2 * node_count(omega))
    doubled = reconstruct_closed_form([(1.0, beta)], phases, SQUARE_U, SQUARE_V, cfg)
    assert np.max(np.abs(doubled - oracle)) < 1e-13


def test_points_broadcast_through_engine_and_closed_form():
    spec = CatSpec(SQRT5, 1.11)
    table = extend_phases(THETA111_TABLE)
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
    phases = extend_phases(THETA111_TABLE).phases
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
    table = extend_phases(THETA111_TABLE)
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
    phases = extend_phases(THETA111_TABLE).phases
    cfg = ReconstructionConfig.for_mean_photon(5.0)
    terms = cat_wigner_terms(CatSpec(SQRT5, 1.11))
    for u, v in ((math.nan, 0.0), (np.array([0.0, math.inf]), 0.0)):
        with pytest.raises(InvalidArgument, match="finite"):
            reconstruct_closed_form(terms, phases, u, v, cfg)


@pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0], [1.0, 0.5, 0.0]])
def test_reconstruct_rejects_a_repeated_or_decreasing_axis(axis):
    table = extend_phases(build_table(vacuum(20), default_phases(11), default_x_grid(1.0)))
    cfg = ReconstructionConfig(cutoff_kc=8.0)
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        reconstruct(table, axis, [0.0, 0.5], cfg)
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        reconstruct(table, [0.0, 0.5], axis, cfg)


def test_reconstruct_rejects_non_finite_points():
    table = extend_phases(build_table(vacuum(20), default_phases(11), default_x_grid(1.0)))
    cfg = ReconstructionConfig(cutoff_kc=8.0)
    for u, v in ((math.nan, 0.0), (0.0, math.inf), (np.array([0.0, -math.inf]), np.zeros(2))):
        with pytest.raises(InvalidArgument):
            reconstruct_at(table, u, v, cfg)


def test_reconstruct_rejects_node_count_past_limit():
    table = extend_phases(build_table(vacuum(20), default_phases(11), default_x_grid(1.0)))
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


def _spline_trapezoid_terms(table, u, v, kc):
    """Per-slice terms with each slice's CubicSpline summed on the refined grid."""
    x = table.x_grid
    x_fine, w_fine = _fine_grid(x)
    fine = CubicSpline(x, table.density, axis=1)(x_fine)
    n_nodes = tomography_module._node_count(kc * (x[-1] + np.max(np.hypot(u, v))))
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


# odd and even point counts; 41 and 40 fit inside the 2 x 32 end rows
@pytest.mark.parametrize("n", [241, 240, 41, 40])
def test_back_project_matches_spline_trapezoid_sum(n):
    rng = np.random.default_rng(n)
    x = np.linspace(-6.0, 6.0, n)
    phases = np.linspace(0.0, math.pi, 9)
    table = QuadratureTable(phases, x, rng.uniform(0.0, 1.0, (phases.size, n)))
    u, v = rng.uniform(-2.5, 2.5, (2, 6))
    got = tomography_module._back_project(table, u, v, ReconstructionConfig(cutoff_kc=12.0))
    want = _spline_trapezoid_terms(table, u, v, 12.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [201, 200, 41, 40, 9, 8, 5, 4])
def test_node_tables_fold_the_even_and_odd_spline_tables(n):
    x = np.linspace(-6.0, 6.0, n)
    k, _, cos_table, sin_table = tomography_module._node_tables(x.tobytes(), 12.0, 40)
    x_fine, w_fine = _fine_grid(x)
    spline = CubicSpline(x, np.eye(n))(x_fine)
    arg = np.multiply.outer(x_fine, k)
    full_cos = spline.T @ (w_fine[:, None] * np.cos(arg))
    full_sin = spline.T @ (w_fine[:, None] * np.sin(arg))
    scale = np.max(np.abs(full_cos))
    # the not-a-knot spline commutes with x -> -x, which is what the fold needs
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
        table = extend_phases(build_table(vacuum(20), default_phases(11), x))
        with pytest.raises(InvalidArgument):
            reconstruct_at(table, 0.0, 0.0, cfg)
