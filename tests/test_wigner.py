import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catscan import (
    CatSpec,
    FockVector,
    InvalidArgument,
    PAPER_SCALE,
    REFERENCE_MINIMA,
    WignerGrid,
    ZeroNorm,
    calibrate_display_scale,
    cat_wigner_terms,
    evaluate_grid,
    find_minimum,
    make_cat,
    published_branch_weight,
    wigner_displaced_parity,
    wigner_superposition,
)
from catscan.fock import _displacement_matrix

SQRT5 = math.sqrt(5.0)
TWO_OVER_PI = 2.0 / math.pi


def test_vacuum_peak_and_bound():
    terms = [(1.0, 0.0)]
    assert wigner_superposition(terms, 0.0) == pytest.approx(TWO_OVER_PI, abs=1e-14)
    axis = np.linspace(-3.0, 3.0, 121)
    grid = evaluate_grid(terms, axis, axis)
    assert np.max(grid.values) <= TWO_OVER_PI + 1e-12
    assert np.min(grid.values) >= 0.0


def test_coherent_wigner_is_shifted_gaussian():
    beta = 1.2 - 0.5j
    alphas = np.linspace(-2, 2, 9) + 1j * np.linspace(-1, 1, 9)
    got = wigner_superposition([(1.0, beta)], alphas)
    want = TWO_OVER_PI * np.exp(-2.0 * np.abs(alphas - beta) ** 2)
    assert np.max(np.abs(got - want)) < 1e-14


@settings(max_examples=60)
@given(
    r=st.floats(min_value=0.3, max_value=3.2),
    theta=st.floats(min_value=0.05, max_value=math.pi / 2),
    sign=st.sampled_from(["plus", "minus"]),
)
def test_cat_normalization_integral(r, theta, sign):
    # W_phys integrates to 1 over the plane and is bounded by 2/pi; the
    # square reaches 4 past every branch, where W is below 1e-13
    terms = cat_wigner_terms(CatSpec(r, theta, sign))
    axis = np.arange(-r - 4.0, r + 4.0 + 0.025, 0.05)
    grid = evaluate_grid(terms, axis, axis)
    total = np.trapezoid(np.trapezoid(grid.values, axis, axis=1), axis)
    assert abs(total - 1.0) < 1e-9
    assert np.max(np.abs(grid.values)) <= TWO_OVER_PI * (1.0 + 1e-12)


def test_zero_norm_superposition_rejected():
    with pytest.raises(ZeroNorm):
        wigner_superposition([(1.0, 0.5), (-1.0, 0.5)], 0.0)


@pytest.mark.parametrize("r", [1.2e-7, 1e-6])
def test_vanishing_minus_cat_approaches_one_photon(r):
    # |ir> - |-ir> -> |1> as r -> 0; the exact W differs from the limit by O(r^2)
    terms = cat_wigner_terms(CatSpec(r, math.pi / 2, "minus"))
    axis = np.linspace(-2.5, 2.5, 41)
    alpha = axis[:, None] + 1j * axis[None, :]
    want = TWO_OVER_PI * (4.0 * np.abs(alpha) ** 2 - 1.0) * np.exp(-2.0 * np.abs(alpha) ** 2)
    assert np.max(np.abs(wigner_superposition(terms, alpha) - want)) < 1e-9


def test_far_branches_neither_overflow_nor_warn():
    # exponents reach thousands across this grid; warnings are errors in the suite
    axis = np.linspace(-40.0, 40.0, 801)
    grid = evaluate_grid(cat_wigner_terms(CatSpec(31.6, 1.2)), axis, axis)
    assert np.all(np.isfinite(grid.values))
    assert np.max(np.abs(grid.values)) <= TWO_OVER_PI


@settings(max_examples=60)
@given(
    log_gap=st.floats(min_value=-8.0, max_value=-2.0),
    theta=st.floats(min_value=0.05, max_value=math.pi / 2),
    u=st.floats(min_value=-2.0, max_value=2.0),
    v=st.floats(min_value=-2.0, max_value=2.0),
)
def test_near_degenerate_minus_cat_matches_circuit(log_gap, theta, u, v):
    # r sin(theta) = 10^log_gap; the herald probability is -Re expm1(ln<b2|b1>) / 2
    r = 10.0**log_gap / math.sin(theta)
    spec = CatSpec(r, theta, "minus")
    prob = -np.expm1(r * r * complex(math.cos(2.0 * theta) - 1.0, math.sin(2.0 * theta))).real / 2.0
    assume(abs(prob / 1e-14 - 1.0) > 1e-6)
    try:
        # the parity oracle is exact at the state's own n_max; 40 holds these cats
        state = make_cat(spec, 40)
    except ZeroNorm:
        with pytest.raises(ZeroNorm):
            wigner_superposition(cat_wigner_terms(spec), 0.0)
        return
    closed = wigner_superposition(cat_wigner_terms(spec), complex(u, v))
    assert abs(closed - wigner_displaced_parity(state, complex(u, v))) < 1e-8


_RANDOM = np.random.default_rng(41).uniform(-2.0, 2.0, size=(25, 2))
_BOX = np.linspace(-3.5, 3.5, 8)


@pytest.mark.parametrize(
    "n_max,points,tol",
    [
        (70, [complex(u, v) for u, v in _RANDOM], 1e-6),
        # [-3.5, 3.5]^2 on a unit grid, 2.5 + 2.5i and the corner 3.5 + 3.5i included, and 6i
        (50, [complex(u, v) for u in _BOX for v in _BOX] + [6j], 1e-12),
    ],
    ids=["n_max70-random", "n_max50-box"],
)
def test_closed_form_matches_displaced_parity(n_max, points, tol):
    spec = CatSpec(SQRT5, 1.11)
    terms = cat_wigner_terms(spec)
    state = make_cat(spec, n_max)
    for alpha in points:
        closed = wigner_superposition(terms, alpha)
        parity = wigner_displaced_parity(state, alpha)
        assert abs(closed - parity) < tol


def test_shift_covariance_closed_form():
    # D(delta)|b> = exp((delta conj(b) - conj(delta) b)/2) |b + delta>, so a
    # displaced superposition carries branch-dependent phases
    delta = 0.6 - 0.3j
    terms = [(1.0, SQRT5 * 1j), (1.0, -SQRT5 * 1j)]
    shifted_terms = [
        (c * np.exp((delta * np.conj(b) - np.conj(delta) * b) / 2.0), b + delta)
        for c, b in terms
    ]
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, size=(10, 2))
    for u, v in pts:
        a = complex(u, v)
        assert wigner_superposition(terms, a) == pytest.approx(
            wigner_superposition(shifted_terms, a + delta), abs=1e-12
        )


def test_shift_covariance_displaced_parity():
    delta = 0.4 + 0.2j
    state = make_cat(CatSpec(SQRT5, math.pi / 2), 70)
    moved = FockVector(_displacement_matrix(delta, 71) @ state.amplitudes)
    for a in (0.3 + 0.1j, -0.5j, 1.0):
        assert wigner_displaced_parity(moved, a + delta) == pytest.approx(
            wigner_displaced_parity(state, a), abs=1e-8
        )


def test_paper_convention_is_2pi_scaling():
    terms = cat_wigner_terms(CatSpec(SQRT5, 0.2))
    axis = np.linspace(-3.0, 3.0, 31)
    phys = evaluate_grid(terms, axis, axis, "phys")
    paper = evaluate_grid(terms, axis, axis, "paper")
    assert np.allclose(paper.values, PAPER_SCALE * phys.values, rtol=0, atol=1e-12)
    assert paper.convention == "paper"
    vac = evaluate_grid([(1.0, 0.0)], np.array([0.0]), np.array([0.0]), "paper")
    assert vac.values[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_evaluate_grid_rejects_unknown_convention():
    with pytest.raises(InvalidArgument):
        evaluate_grid([(1.0, 0.0)], np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), "natural")


def test_wigner_grid_csv_roundtrip(tmp_path):
    terms = cat_wigner_terms(CatSpec(SQRT5, 1.11))
    grid = evaluate_grid(terms, np.linspace(-2, 2, 17), np.linspace(-1, 1, 9), "paper")
    path = tmp_path / "w.csv"
    grid.to_csv(path)
    back = WignerGrid.from_csv(path)
    assert back.convention == "paper"
    assert np.array_equal(back.re_axis, grid.re_axis)
    assert np.array_equal(back.im_axis, grid.im_axis)
    assert np.array_equal(back.values, grid.values)


def test_wigner_grid_validation():
    axis = np.linspace(-1, 1, 4)
    with pytest.raises(InvalidArgument):
        WignerGrid(axis, axis, np.zeros((4, 5)))
    with pytest.raises(InvalidArgument):
        WignerGrid(axis, axis, np.zeros((4, 4)), "natural")


@pytest.mark.parametrize(
    "axis", [[0.0, 0.0, 1.0], [1.0, 0.5, 0.0], [], [[0.0, 1.0]], [0.0, math.nan]]
)
def test_grid_axes_are_1d_non_empty_and_strictly_increasing(axis):
    good = np.array([0.0, 0.5])
    size = np.size(axis)
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        WignerGrid(axis, good, np.zeros((size, 2)))
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        WignerGrid(good, axis, np.zeros((2, size)))
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        evaluate_grid([(1.0, 0.0)], axis, good)


def test_published_branch_weights():
    # the reference values normalize the branches as if orthogonal; the
    # weight is 1 + Re<b2|b1>, far from 1 only for theta = 0.2
    w02 = published_branch_weight(CatSpec(SQRT5, 0.2))
    assert w02 == pytest.approx(0.752362, abs=1e-6)
    w90 = published_branch_weight(CatSpec(SQRT5, math.pi / 2))
    assert abs(w90 - 1.0) < 1e-4
    w63 = published_branch_weight(CatSpec(SQRT5, 1.11))
    assert abs(w63 - 1.0) < 3e-4


def test_calibration_factors_near_2pi():
    cal = calibrate_display_scale()
    assert set(cal["factors"]) == {ref.label for ref in REFERENCE_MINIMA}
    for factor in cal["factors"].values():
        assert abs(factor / PAPER_SCALE - 1.0) < 0.02
    assert abs(cal["deviation_from_2pi"]) < 0.005
    assert cal["spread"] < 0.02


@pytest.mark.parametrize(
    "ref",
    [ref for ref in REFERENCE_MINIMA if ref.kind == "absolute"],
    ids=[ref.label for ref in REFERENCE_MINIMA if ref.kind == "absolute"],
)
def test_absolute_reference_minima(ref):
    terms = cat_wigner_terms(ref.spec)
    report = find_minimum(
        lambda u, v: wigner_superposition(terms, u + 1j * v),
        ((0.02, 2.0 * ref.spec.r), (0.0, 0.0)),
    )
    assert abs(report.location[0] - ref.location[0]) < 5e-4
    assert abs(report.location[1] - ref.location[1]) < 5e-4
    predicted = PAPER_SCALE * published_branch_weight(ref.spec) * report.value
    assert abs(predicted / ref.value - 1.0) < 0.01


def test_local_reference_minimum():
    ref = next(r for r in REFERENCE_MINIMA if r.kind == "local")
    terms = cat_wigner_terms(ref.spec)
    u0 = ref.location[0]
    report = find_minimum(
        lambda u, v: wigner_superposition(terms, u + 1j * v),
        ((u0 - 0.12, u0 + 0.12), (0.0, 0.0)),
    )
    # the exact local minimum sits at 0.1545, value -0.1433 (phys); with the
    # fitted display factor the published -0.890 is matched within 1%
    assert report.location[0] == pytest.approx(0.154546, abs=1e-3)
    assert report.value == pytest.approx(-0.143275, abs=1e-5)
    fitted = calibrate_display_scale()["fitted"]
    predicted = fitted * published_branch_weight(ref.spec) * report.value
    assert abs(predicted / ref.value - 1.0) < 0.01
