import csv
import io
import math

import numpy as np
import pytest

from catscan import (
    CatSpec,
    InvalidArgument,
    QuadratureTable,
    WignerGrid,
    build_table,
    cat_wigner_terms,
    coherent_state,
    default_phases,
    default_x_grid,
    make_cat,
    number_state,
    quadrature_distribution,
    quadrature_wavefunctions,
    vacuum,
    wigner_superposition,
)

SQRT5 = math.sqrt(5.0)


def test_default_phases_cover_first_quadrant():
    phases = default_phases()
    assert phases.size == 11
    assert phases[0] == 0.0
    assert phases[-1] == pytest.approx(math.pi / 2, abs=1e-15)
    assert np.allclose(np.diff(phases), math.pi / 20.0)
    with pytest.raises(InvalidArgument):
        default_phases(1)


def test_default_x_grid_branches():
    small = default_x_grid(5.0000000000001)
    assert small[0] == pytest.approx(-6.0) and small[-1] == pytest.approx(6.0)
    mid = default_x_grid(10.0)
    assert mid[0] == pytest.approx(-8.0)
    big = default_x_grid(16.0)
    assert big[-1] >= 9.0
    assert np.allclose(np.diff(small), 0.01)


def test_wavefunction_orthonormality():
    x = np.linspace(-6.0, 6.0, 1201)
    waves = quadrature_wavefunctions(20, x)
    gram = waves @ waves.T * (x[1] - x[0])
    # turning points of n <= 20 stay inside |x| <= 6, so the numeric Gram
    # matrix should be the identity
    assert np.max(np.abs(gram - np.eye(21))) < 1e-6


def test_vacuum_distribution_gaussian():
    x = np.linspace(-5.0, 5.0, 801)
    p = quadrature_distribution(vacuum(10), 0.3, x)
    want = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * x**2)
    assert np.max(np.abs(p - want)) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.4, 1.1, math.pi / 2])
def test_coherent_distribution_moments(phi):
    beta = 1.3 + 0.8j
    x = default_x_grid(abs(beta) ** 2)
    p = quadrature_distribution(coherent_state(beta, 50), phi, x)
    dx = x[1] - x[0]
    total = np.trapezoid(p, x)
    mean = np.trapezoid(x * p, x)
    var = np.trapezoid((x - mean) ** 2 * p, x)
    assert abs(total - 1.0) < 1e-9
    # x_phi of |beta> is Gaussian with mean |beta| cos(arg beta - phi), var 1/4
    assert mean == pytest.approx(abs(beta) * math.cos(np.angle(beta) - phi), abs=1e-9)
    assert var == pytest.approx(0.25, abs=1e-9)
    assert dx == pytest.approx(0.01)


def test_number_state_distribution_phase_independent():
    x = np.linspace(-6.0, 6.0, 601)
    p1 = quadrature_distribution(number_state(3, 20), 0.0, x)
    p2 = quadrature_distribution(number_state(3, 20), 1.234, x)
    assert np.max(np.abs(p1 - p2)) < 1e-14


def test_distribution_periodic_in_phase():
    state = make_cat(CatSpec(SQRT5, 1.11), 50)
    x = np.linspace(-6.0, 6.0, 601)
    p1 = quadrature_distribution(state, 0.7, x)
    p2 = quadrature_distribution(state, 0.7 + 2.0 * math.pi, x)
    assert np.max(np.abs(p1 - p2)) < 1e-12


@pytest.mark.parametrize("theta", [0.2, 1.11, math.pi / 2])
def test_cat_distributions_normalized_at_all_phases(theta):
    state = make_cat(CatSpec(SQRT5, theta), 50)
    table = build_table(state, default_phases(), default_x_grid(5.0))
    for row in table.density:
        assert abs(np.trapezoid(row, table.x_grid) - 1.0) < 1e-6


def test_marginal_consistency_with_wigner():
    # p(x, phi) must equal the Wigner marginal along the orthogonal direction
    spec = CatSpec(SQRT5, 1.11)
    state = make_cat(spec, 60)
    terms = cat_wigner_terms(spec)
    t = np.linspace(-7.0, 7.0, 1401)
    x_vals = np.array([-1.0, 0.0, 0.5, 2.0])
    for phi in (0.0, 0.4, 1.2):
        direct = quadrature_distribution(state, phi, x_vals)
        for k, x_val in enumerate(x_vals):
            u = x_val * math.cos(phi) - t * math.sin(phi)
            v = x_val * math.sin(phi) + t * math.cos(phi)
            marginal = np.trapezoid(wigner_superposition(terms, u + 1j * v), t)
            assert abs(marginal - direct[k]) < 1e-6


def test_build_table_shape():
    state = make_cat(CatSpec(SQRT5, math.pi / 2), 50)
    table = build_table(state, default_phases(), default_x_grid(5.0))
    assert table.phases.size == 11
    assert table.x_grid.size == 1201
    assert table.density.shape == (11, table.x_grid.size)
    assert np.all(table.density >= 0.0)


def test_build_table_rows_are_quadrature_distributions():
    # the phase-batched products against one distribution per phase
    state = make_cat(CatSpec(SQRT5, 1.11, "minus"), 50)
    phases = np.linspace(0.0, math.pi, 13)
    x = default_x_grid(5.0)
    table = build_table(state, phases, x)
    for phi, row in zip(phases, table.density):
        want = quadrature_distribution(state, phi, x)
        assert np.max(np.abs(row - want)) <= 1e-14 * np.max(want)


def test_table_csv_roundtrip_bit_identical(tmp_path):
    state = make_cat(CatSpec(SQRT5, 0.2), 50)
    table = build_table(state, default_phases(5), np.linspace(-4.0, 4.0, 161))
    path = tmp_path / "table.csv"
    table.to_csv(path)
    back = QuadratureTable.from_csv(path)
    assert np.array_equal(back.phases, table.phases)
    assert np.array_equal(back.x_grid, table.x_grid)
    assert np.array_equal(back.density, table.density)


def _csv_writer_bytes(preamble, header, a_axis, b_axis, values):
    """The long-format CSV as csv.writer writes it, one Python float per cell."""
    buf = io.StringIO(newline="")
    buf.write(preamble)
    writer = csv.writer(buf)
    writer.writerow(header)
    for i, a in enumerate(a_axis):
        for j, b in enumerate(b_axis):
            writer.writerow([repr(float(a)), repr(float(b)), repr(float(values[i, j]))])
    return buf.getvalue().encode()


def test_csv_writers_match_csv_writer_reference(tmp_path):
    rng = np.random.default_rng(7)
    density = rng.uniform(0.0, 2.0, size=(3, 6))
    density[0, :3] = (0.0, 1e-300, 5e20)
    table = QuadratureTable(np.array([0.0, 0.1, math.pi / 2]), np.linspace(-1.0, 1.5, 6), density)
    table.to_csv(tmp_path / "table.csv")
    want = _csv_writer_bytes("", ["phi", "x", "p"], table.phases, table.x_grid, table.density)
    assert (tmp_path / "table.csv").read_bytes() == want

    values = rng.normal(size=(4, 3))
    values[1, :3] = (-0.0, -1e-7, 1.0 / 3.0)
    grid = WignerGrid(np.array([-2.0, -0.0, 0.25, 1e5]), np.array([-0.5, 0.0, 0.1]), values, "paper")
    grid.to_csv(tmp_path / "grid.csv")
    want = _csv_writer_bytes(
        "# convention: paper\n", ["re", "im", "w"], grid.re_axis, grid.im_axis, grid.values
    )
    assert (tmp_path / "grid.csv").read_bytes() == want


def test_table_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,0\n")
    with pytest.raises(InvalidArgument):
        QuadratureTable.from_csv(path)


@pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0], [1.0, 0.5, 0.0], []])
def test_table_axes_follow_the_grid_axis_rule(axis):
    good = np.array([0.0, 0.5, 1.0])
    size = len(axis)
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        QuadratureTable(axis, good, np.zeros((size, 3)))
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        QuadratureTable(good, axis, np.zeros((3, size)))
    with pytest.raises(InvalidArgument, match="strictly increasing"):
        quadrature_wavefunctions(3, axis)


def test_wavefunctions_need_two_points():
    with pytest.raises(InvalidArgument, match="at least two points"):
        quadrature_wavefunctions(3, [0.0])


def test_wavefunctions_reject_bad_grid():
    with pytest.raises(InvalidArgument):
        quadrature_wavefunctions(10, np.array([0.0, 1.0, 0.5]))


def test_table_validation():
    with pytest.raises(InvalidArgument):
        QuadratureTable(np.array([0.0, 1.0]), np.linspace(-1, 1, 5), np.zeros((3, 5)))
    with pytest.raises(InvalidArgument):
        QuadratureTable(np.array([0.0, 1.0]), np.linspace(-1, 1, 5), -np.ones((2, 5)))
