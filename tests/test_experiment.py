import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catscan import (
    CatSpec,
    InvalidArgument,
    MinimumReport,
    NoiseSpec,
    PAPER_SCALE,
    ReconstructionConfig,
    RegionError,
    build_table,
    cat_wigner_terms,
    default_n_max,
    default_phases,
    default_x_grid,
    extend_phases,
    find_minimum,
    make_cat,
    monte_carlo_study,
    perturb,
    reconstruct_at,
    wigner_superposition,
)

SQRT5 = math.sqrt(5.0)


@pytest.fixture(scope="module")
def cat_table():
    state = make_cat(CatSpec(SQRT5, math.pi / 2), 50)
    return build_table(state, default_phases(), default_x_grid(5.0))


def test_default_n_max_branches():
    assert default_n_max(5.0000000001) == 50
    assert default_n_max(10.0000000001) == 60
    assert default_n_max(16.0) > 60


def test_noise_spec_validation():
    with pytest.raises(InvalidArgument):
        NoiseSpec(magnitude=1.0, runs=10, seed=1)
    with pytest.raises(InvalidArgument):
        NoiseSpec(magnitude=-0.1, runs=10, seed=1)
    with pytest.raises(InvalidArgument):
        NoiseSpec(magnitude=0.2, runs=0, seed=1)
    with pytest.raises(InvalidArgument):
        NoiseSpec(magnitude=0.2, runs=10, seed=1, model="per_point")


def test_noise_spec_rejects_negative_seed():
    with pytest.raises(InvalidArgument):
        NoiseSpec(magnitude=0.2, runs=10, seed=-1)


def test_perturb_is_deterministic(cat_table):
    spec = NoiseSpec(magnitude=0.25, runs=5, seed=99)
    a = perturb(cat_table, spec, 2)
    b = perturb(cat_table, spec, 2)
    assert np.array_equal(a.density, b.density)
    c = perturb(cat_table, spec, 3)
    assert not np.array_equal(a.density, c.density)


def test_perturb_zero_magnitude_is_identity(cat_table):
    spec = NoiseSpec(magnitude=0.0, runs=1, seed=7)
    out = perturb(cat_table, spec, 0)
    assert np.array_equal(out.density, cat_table.density)


def test_perturb_scales_each_slice_uniformly(cat_table):
    spec = NoiseSpec(magnitude=0.5, runs=1, seed=123)
    out = perturb(cat_table, spec, 0)
    factors = []
    for i in range(cat_table.phases.size):
        ratio = out.density[i] / cat_table.density[i]
        ratio = ratio[np.isfinite(ratio)]
        assert np.max(ratio) - np.min(ratio) < 1e-12
        factors.append(ratio[0])
    factors = np.array(factors)
    assert np.all(factors >= 0.5 - 1e-12)
    assert np.all(factors <= 1.5 + 1e-12)
    # slices are perturbed independently
    assert np.std(factors) > 0.01


def test_perturb_rejects_negative_run(cat_table):
    with pytest.raises(InvalidArgument):
        perturb(cat_table, NoiseSpec(magnitude=0.1, runs=1, seed=1), -1)


def test_minimum_report_json_roundtrip(tmp_path):
    report = MinimumReport(
        location=(0.33, 0.0),
        value=-3.16,
        mean=-3.1,
        stddev=0.2,
        convention="paper",
        seed=42,
        config={"runs": 50},
    )
    path = tmp_path / "report.json"
    report.to_json(path)
    assert MinimumReport.from_json(path) == report
    assert MinimumReport.from_json(report.to_json()) == report
    payload = json.loads(report.to_json())
    assert payload["schema"] == "catscan/minimum-report/1"


def test_minimum_report_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "catscan/minimum-report/9", "location": [0, 0]}))
    with pytest.raises(InvalidArgument):
        MinimumReport.from_json(path)


def test_find_minimum_exact_on_paraboloid():
    def target(u, v):
        return (u - 0.371) ** 2 + 2.0 * (v + 0.118) ** 2 - 1.5

    report = find_minimum(target, ((-1.0, 1.0), (-1.0, 1.0)), step=0.005)
    assert report.location[0] == pytest.approx(0.371, abs=1e-9)
    assert report.location[1] == pytest.approx(-0.118, abs=1e-9)
    assert report.value == pytest.approx(-1.5, abs=1e-9)
    assert report.mean == report.value
    assert report.stddev == 0.0


def test_find_minimum_conventions_scale_by_2pi():
    terms = cat_wigner_terms(CatSpec(SQRT5, math.pi / 2))

    def target(u, v):
        return wigner_superposition(terms, u + 1j * v)

    region = ((0.05, 0.9), (0.0, 0.0))
    phys = find_minimum(target, region)
    paper = find_minimum(target, region, convention="paper")
    assert paper.value == pytest.approx(PAPER_SCALE * phys.value, abs=1e-10)
    assert paper.convention == "paper"


def test_find_minimum_local_mode_picks_secondary_dip():
    terms = cat_wigner_terms(CatSpec(SQRT5, 1.11))

    def target(u, v):
        return wigner_superposition(terms, u + 1j * v)

    global_report = find_minimum(target, ((0.02, 4.0), (0.0, 0.0)))
    local_report = find_minimum(target, ((0.157 - 0.12, 0.157 + 0.12), (0.0, 0.0)))
    assert global_report.location[0] == pytest.approx(0.895442, abs=1e-4)
    assert local_report.location[0] == pytest.approx(0.154546, abs=1e-4)
    assert local_report.value == pytest.approx(-0.14327474, abs=1e-6)
    assert local_report.value > global_report.value


def test_find_minimum_keeps_grid_node_when_refinement_is_worse():
    # a kink at 0.3012: the parabola through the nodes 0.295, 0.300, 0.305
    # puts its vertex at 0.2981, where the target (0.0031) exceeds the node's
    def target(u, v):
        return np.where(u > 0.3012, 10.0 * (u - 0.3012), 0.3012 - u)

    report = find_minimum(target, ((0.0, 1.0), (0.0, 0.0)))
    assert report.location[0] == pytest.approx(0.300, abs=1e-12)
    assert report.value == pytest.approx(float(target(report.location[0], 0.0)), abs=1e-15)


def test_find_minimum_validation():
    def target(u, v):
        return u**2 + v**2

    region = ((-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(InvalidArgument):
        find_minimum(target, region, step=0.02)
    with pytest.raises(InvalidArgument):
        find_minimum(target, ((1.0, -1.0), (0.0, 0.0)))


def test_find_minimum_boundary_raises_region_error():
    def target(u, v):
        return (u - 2.0) ** 2 + v**2

    with pytest.raises(RegionError):
        find_minimum(target, ((-1.0, 1.0), (0.0, 0.0)))


def test_monte_carlo_report_fields():
    spec = CatSpec(SQRT5, math.pi / 2)
    noise = NoiseSpec(magnitude=0.25, runs=5, seed=314)
    report = monte_carlo_study(spec, noise, probe_point=(0.3346, 0.0))
    assert report.convention == "paper"
    assert report.seed == 314
    assert report.location == (0.3346, 0.0)
    assert report.value == pytest.approx(-3.162, abs=5e-3)
    assert report.stddev > 0.0
    assert report.config["runs"] == 5
    assert report.config["noise_magnitude"] == 0.25
    assert report.config["cutoff_kc"] == pytest.approx(2.0 * (2.0 * SQRT5 + 4.0))


def test_monte_carlo_without_probe_builds_clean_table_once(monkeypatch):
    import catscan.experiment as experiment_module

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return build_table(*args, **kwargs)

    monkeypatch.setattr(experiment_module, "build_table", counting)
    spec = CatSpec(SQRT5, math.pi / 2)
    report = monte_carlo_study(spec, NoiseSpec(magnitude=0.25, runs=2, seed=3))
    assert len(calls) == 1
    assert abs(report.location[0] - 0.3346) < 0.01


def test_monte_carlo_without_probe_or_region_scans_0_to_2r_at_0_01():
    spec = CatSpec(SQRT5, math.pi / 2)
    state = make_cat(spec, default_n_max(spec.mean_photon))
    table = extend_phases(build_table(state, default_phases(), default_x_grid(spec.mean_photon)))
    config = ReconstructionConfig.for_mean_photon(spec.mean_photon)
    want = find_minimum(
        lambda u, v: reconstruct_at(table, u, v, config), ((0.0, 2.0 * SQRT5), (0.0, 0.0)), 0.01
    )
    assert monte_carlo_study(spec, NoiseSpec(0.25, 2, 3)).location == want.location


def _explicit_study(spec, noise, probe):
    """Mean and stddev of the perturb -> extend_phases -> reconstruct_at loop."""
    state = make_cat(spec, default_n_max(spec.mean_photon))
    table = build_table(state, default_phases(), default_x_grid(spec.mean_photon))
    config = ReconstructionConfig.for_mean_photon(spec.mean_photon)
    samples = [
        PAPER_SCALE * reconstruct_at(extend_phases(perturb(table, noise, run)), probe, 0.0, config)
        for run in range(noise.runs)
    ]
    return np.mean(samples), np.std(samples, ddof=1) if noise.runs > 1 else 0.0


@pytest.mark.parametrize(
    "theta,probe,magnitude,runs",
    [(math.pi / 2, 0.3346, 0.5, 7), (0.2, 2.687, 0.25, 7), (math.pi / 2, 0.3346, 0.5, 1)],
    ids=["theta90", "theta02", "single-run"],
)
def test_monte_carlo_matches_explicit_perturbed_reconstructions(theta, probe, magnitude, runs):
    spec = CatSpec(SQRT5, theta)
    noise = NoiseSpec(magnitude=magnitude, runs=runs, seed=4242)
    report = monte_carlo_study(spec, noise, probe_point=(probe, 0.0))
    mean, stddev = _explicit_study(spec, noise, probe)
    assert report.mean == pytest.approx(mean, rel=1e-12)
    assert report.stddev == pytest.approx(stddev, rel=1e-12)


def test_monte_carlo_reconstructs_once_per_slice(monkeypatch):
    """One back-projection pass gives every slice's share, whatever the run count."""
    import catscan.tomography as tomography_module

    calls = []
    back_project = tomography_module._back_project

    def counting(*args, **kwargs):
        calls.append(1)
        return back_project(*args, **kwargs)

    monkeypatch.setattr(tomography_module, "_back_project", counting)
    spec = CatSpec(SQRT5, math.pi / 2)
    for runs in (1, 30):
        calls.clear()
        monte_carlo_study(spec, NoiseSpec(0.25, runs, seed=8), probe_point=(0.3346, 0.0))
        assert len(calls) == 1


def test_monte_carlo_single_run_has_zero_stddev():
    spec = CatSpec(SQRT5, math.pi / 2)
    noise = NoiseSpec(magnitude=0.25, runs=1, seed=9)
    report = monte_carlo_study(spec, noise, probe_point=(0.3346, 0.0))
    assert report.stddev == 0.0
    assert report.mean != report.value


def test_monte_carlo_zero_noise_reproduces_clean():
    spec = CatSpec(SQRT5, math.pi / 2)
    noise = NoiseSpec(magnitude=0.0, runs=2, seed=1)
    report = monte_carlo_study(spec, noise, probe_point=(0.3346, 0.0))
    assert report.mean == pytest.approx(report.value, abs=1e-12)
    assert report.stddev == pytest.approx(0.0, abs=1e-12)


def test_noise_degradation_is_monotone():
    spec = CatSpec(SQRT5, math.pi / 2)
    stddevs = []
    for magnitude in (0.0, 0.1, 0.25, 0.5):
        noise = NoiseSpec(magnitude=magnitude, runs=20, seed=777)
        report = monte_carlo_study(spec, noise, probe_point=(0.3346, 0.0))
        stddevs.append(report.stddev)
    assert stddevs[0] == pytest.approx(0.0, abs=1e-12)
    assert stddevs[0] < stddevs[1] < stddevs[2] < stddevs[3]
    # per-slice factors scale linearly with the magnitude, and the
    # reconstruction is linear in the table, so the spread does too
    assert stddevs[3] / stddevs[2] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("theta,probe", [(math.pi / 2, 0.3346), (0.2, 2.687)])
def test_minimum_stays_negative_beyond_five_error_bars(theta, probe):
    spec = CatSpec(SQRT5, theta)
    noise = NoiseSpec(magnitude=0.25, runs=50, seed=2024)
    report = monte_carlo_study(spec, noise, probe_point=(probe, 0.0))
    error_bar = report.stddev / math.sqrt(noise.runs)
    assert report.mean + 5.0 * error_bar < 0.0


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**40 - 1),
    magnitude=st.floats(min_value=0.05, max_value=0.9),
    runs=st.integers(min_value=50, max_value=400),
)
def test_monte_carlo_mean_is_unbiased(seed, magnitude, runs):
    # the factors have mean 1, so the mean over runs lands within a few
    # standard errors of the clean value
    spec = CatSpec(SQRT5, math.pi / 2)
    noise = NoiseSpec(magnitude=magnitude, runs=runs, seed=seed)
    report = monte_carlo_study(spec, noise, probe_point=(0.3346, 0.0))
    assert abs(report.mean - report.value) <= 5.0 * report.stddev / math.sqrt(runs)


def test_report_json_rejects_non_finite_values():
    for bad in (math.nan, math.inf):
        report = MinimumReport((0.3, 0.0), bad, -3.0, 0.1, "paper")
        with pytest.raises(ValueError):
            report.to_json()
