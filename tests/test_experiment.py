import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catscan import (
    CatSpec,
    CatscanError,
    InvalidArgument,
    MinimumReport,
    NoiseSpec,
    PAPER_SCALE,
    QuadratureTable,
    ReconstructionConfig,
    RegionError,
    TruncationError,
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
    slice_terms,
    wigner_superposition,
)
from catscan.errors import NonFiniteResult
from catscan.experiment import SCAN_STEP, ExperimentConfig, _slice_factors

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


def test_noise_spec_rejects_bool_runs_and_seed():
    # bool is an int, and would reach the report JSON as "runs": true, "seed": false
    with pytest.raises(InvalidArgument, match="runs"):
        NoiseSpec(magnitude=0.25, runs=True, seed=0)
    with pytest.raises(InvalidArgument, match="seed"):
        NoiseSpec(magnitude=0.25, runs=1, seed=False)


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


_WORD_EDGES = st.sampled_from([0, 2**32 - 1, 2**32])


@settings(max_examples=80)
@given(
    seed=st.one_of(_WORD_EDGES, st.integers(min_value=0, max_value=2**70)),
    run=st.one_of(_WORD_EDGES, st.integers(min_value=0, max_value=2**40)),
    magnitude=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    ),
    slice_count=st.integers(min_value=1, max_value=25),
)
@example(seed=0, run=0, magnitude=0.0, slice_count=1)
@example(seed=2**32 - 1, run=2**32, magnitude=0.5, slice_count=25)
@example(seed=2**32, run=2**64 + 3, magnitude=0.999, slice_count=11)
@example(seed=2**70, run=0, magnitude=0.25, slice_count=21)
def test_noise_factors_are_numpys_seeded_uniform_draws(seed, run, magnitude, slice_count):
    # bit for bit, not to a tolerance: a numpy release that changes uniform fails here
    spec = NoiseSpec(magnitude, runs=1, seed=seed)
    runs = range(run, run + 2)
    want = np.array(
        [
            [1.0 + np.random.default_rng([seed, r, i]).uniform(-magnitude, magnitude)
             for i in range(slice_count)]
            for r in runs
        ]
    )
    assert np.array_equal(_slice_factors(spec, runs, slice_count), want)
    ones = QuadratureTable(np.arange(slice_count) * 0.1, np.array([0.0, 1.0]), np.ones((slice_count, 2)))
    assert np.array_equal(perturb(ones, spec, run).density.T, [want[0], want[0]])


@pytest.mark.parametrize(
    "seed,runs,slice_count",
    [
        (20250814, range(200), 11),  # noise50's shape under its committed seed
        (20250814, range(2**32 - 3, 2**32 + 3), 21),  # runs of one and two words
        (2**64 + 1, range(2**32 - 2, 2**32 + 2), 11),  # a three-word seed
    ],
    ids=["noise50", "run-word-edge", "three-word-seed"],
)
def test_noise_factors_match_numpy_at_preset_shape(seed, runs, slice_count):
    magnitude = 0.5
    factors = _slice_factors(NoiseSpec(magnitude, runs=1, seed=seed), runs, slice_count)
    assert factors.shape == (len(runs), slice_count)
    for r, row in zip(runs, factors):
        want = [
            1.0 + np.random.default_rng([seed, r, i]).uniform(-magnitude, magnitude)
            for i in range(slice_count)
        ]
        assert np.array_equal(row, want), r


def test_noise_study_builds_no_generator(monkeypatch, cat_table):
    def refuse(*args, **kwargs):
        raise AssertionError("a noise draw built a numpy bit generator")

    for name in ("default_rng", "SeedSequence", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
    spec = NoiseSpec(magnitude=0.25, runs=3, seed=5)
    report = monte_carlo_study(CatSpec(SQRT5, math.pi / 2), spec, probe_point=(0.3346, 0.0))
    assert report.mean != report.value
    assert not np.array_equal(perturb(cat_table, spec, 2).density, cat_table.density)


def test_noise_certificate_at_theta02_minimum():
    """Every run is sum_i f_i W_i with f_i in [1 - m, 1 + m], so it lies in
    [sum W - m sum|W|, sum W + m sum|W|]; below m* = |sum W| / sum|W| no draw
    can lift the minimum to zero. theta02 has shares of both signs."""
    spec = CatSpec(SQRT5, 0.2)
    state = make_cat(spec, default_n_max(spec.mean_photon))
    table = build_table(state, default_phases(), default_x_grid(spec.mean_photon))
    golden_u = 2.6868965502547297  # configs/golden/theta02_minimum.json
    parts = slice_terms(table, golden_u, 0.0, ReconstructionConfig.for_mean_photon(5.0))
    total, spread = parts.sum(), np.abs(parts).sum()
    assert PAPER_SCALE * total == pytest.approx(-0.9019690252409402, rel=1e-9)
    m_star = abs(total) / spread
    assert m_star == pytest.approx(0.732, abs=5e-4)
    slack = 1e-12 * spread
    for magnitude in (0.25, 0.5, 0.7, m_star * (1.0 - 1e-9), 0.9):
        noise = NoiseSpec(magnitude, runs=10_000, seed=20250814)
        samples = _slice_factors(noise, range(noise.runs), parts.size) @ parts
        assert np.all(samples >= total - magnitude * spread - slack)
        assert np.all(samples <= total + magnitude * spread + slack)
        if magnitude < m_star:
            assert np.all(samples < 0.0)
    # past m*, the range crosses zero and the certificate no longer holds
    assert total - 0.9 * spread < 0.0 < total + 0.9 * spread


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


_REPORT = MinimumReport((0.33, 0.0), -3.16, -3.1, 0.2, "paper", 42, {"runs": 50}).to_json()


@pytest.mark.parametrize(
    "text,named",
    [
        (_REPORT.replace("-3.16", "NaN"), "NaN"),
        (_REPORT.replace("-3.1,", "Infinity,"), "Infinity"),
        (_REPORT.replace('"paper"', '"bogus"'), "convention"),
        (_REPORT.replace('"seed": 42,', ""), "seed"),
    ],
    ids=["nan", "infinity", "convention", "missing-key"],
)
def test_minimum_report_reads_only_what_to_json_writes(text, named):
    assert json.loads(_REPORT) != json.loads(text)
    with pytest.raises(InvalidArgument, match=named):
        MinimumReport.from_json(text)


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
    for step in (0.0, -0.005, math.nan):
        with pytest.raises(InvalidArgument):
            find_minimum(target, region, step=step)
    for unbounded in (
        ((-1.0, math.inf), (0.0, 0.0)),
        ((-math.inf, 1.0), (0.0, 0.0)),
        ((-1.0, 1.0), (0.0, math.inf)),
    ):
        with pytest.raises(InvalidArgument):
            find_minimum(target, unbounded)


def test_find_minimum_boundary_raises_region_error():
    def target(u, v):
        return (u - 2.0) ** 2 + v**2

    with pytest.raises(RegionError):
        find_minimum(target, ((-1.0, 1.0), (0.0, 0.0)))

    # a two-node v axis has no interior node: its minimum is always on an edge
    def bowl(u, v):
        return (u - 0.5) ** 2 + (v - 1.0) ** 2

    for im_hi in (0.005, 0.01):
        with pytest.raises(RegionError):
            find_minimum(bowl, ((0.0, 1.0), (0.0, im_hi)))


@settings(max_examples=80)
@given(
    re_lo=st.floats(-1.0, 1.0),
    re_nodes=st.integers(2, 40),
    im_lo=st.floats(-1.0, 1.0),
    im_nodes=st.integers(1, 4),
    u_at=st.floats(-0.5, 1.5),
    v_at=st.floats(-1.0, 2.0),
    stretch=st.floats(0.1, 10.0),
)
def test_find_minimum_returns_a_strictly_interior_minimum(
    re_lo, re_nodes, im_lo, im_nodes, u_at, v_at, stretch
):
    # a smooth bowl whose minimum lands anywhere in, on or past the region
    re_hi = re_lo + (re_nodes - 1) * SCAN_STEP
    im_hi = im_lo + (im_nodes - 1) * SCAN_STEP
    u0 = re_lo + u_at * (re_hi - re_lo)
    v0 = im_lo + v_at * im_nodes * SCAN_STEP

    def bowl(u, v):
        return (u - u0) ** 2 + stretch * (v - v0) ** 2

    try:
        report = find_minimum(bowl, ((re_lo, re_hi), (im_lo, im_hi)))
    except RegionError:
        return
    u, v = report.location
    assert re_lo < u < re_hi
    if im_nodes > 1:
        assert im_lo < v < im_hi
    else:
        assert v == im_lo


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


@pytest.mark.parametrize("region", [None, ((0.05, 0.85), (0.0, 0.0))], ids=["default", "given"])
def test_monte_carlo_without_probe_scans_its_region_at_0_01(region):
    spec = CatSpec(SQRT5, math.pi / 2)
    state = make_cat(spec, default_n_max(spec.mean_photon))
    table = extend_phases(build_table(state, default_phases(), default_x_grid(spec.mean_photon)))
    config = ReconstructionConfig.for_mean_photon(spec.mean_photon)
    scanned = ExperimentConfig(spec, search_region=region).search_region
    assert scanned == (region or ((-0.01, 2.0 * SQRT5), (0.0, 0.0)))
    want = find_minimum(lambda u, v: reconstruct_at(table, u, v, config), scanned, 0.01)
    report = monte_carlo_study(spec, NoiseSpec(0.25, 2, 3), search_region=region)
    assert report.location == want.location


def test_monte_carlo_defaults_are_the_experiment_defaults():
    spec = CatSpec(2.0, 1.2)
    experiment = ExperimentConfig(spec)
    config = monte_carlo_study(spec, NoiseSpec(0.25, 2, 3), probe_point=(0.4, 0.0)).config
    assert config["n_max"] == experiment.n_max
    assert config["phase_count"] == experiment.phase_count == experiment.phases().size
    assert config["x_range"] == [-experiment.x_max, experiment.x_max]
    assert config["x_range"] == [experiment.x_grid()[0], experiment.x_grid()[-1]]
    assert config["cutoff_kc"] == experiment.recon.cutoff_kc


def test_monte_carlo_without_probe_finds_a_minus_cat_at_the_origin():
    """The default region's lower edge is one 0.01 step below the origin, the minimum."""
    report = monte_carlo_study(CatSpec(SQRT5, math.pi / 2, "minus"), NoiseSpec(0.25, 3, 0))
    assert report.location == (0.0, 0.0)
    assert report.value == pytest.approx(-3.999822, abs=5e-7)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), magnitude=st.sampled_from([0.25, 0.5]))
def test_monte_carlo_spread_matches_the_exact_one(cat_table, seed, magnitude):
    """A run is sum_i (1 + eps_i) W_i with independent eps_i ~ U[-m, m], so its spread
    is sigma = (m / sqrt 3) ||W||_2. A sum of uniforms has negative excess kurtosis, so
    the sample variance s^2 of R runs has Var(s^2) <= 2 sigma^4 / (R - 1); allow six of
    those standard deviations."""
    runs, probe = 200, (0.3346, 0.0)
    report = monte_carlo_study(
        CatSpec(SQRT5, math.pi / 2), NoiseSpec(magnitude, runs, seed), probe_point=probe
    )
    shares = slice_terms(cat_table, *probe, ReconstructionConfig.for_mean_photon(5.0))
    sigma = magnitude / math.sqrt(3.0) * np.linalg.norm(shares * PAPER_SCALE)
    assert abs(report.stddev**2 / sigma**2 - 1.0) <= 6.0 * math.sqrt(2.0 / (runs - 1))


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


@settings(max_examples=50)
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


def test_report_json_rejects_non_finite_values(tmp_path):
    """A catscan error, so the CLI exits 6 with one line; nothing is written."""
    path = tmp_path / "report.json"
    for bad in (math.nan, math.inf):
        report = MinimumReport((0.3, 0.0), bad, -3.0, 0.1, "paper")
        with pytest.raises(NonFiniteResult, match="report not written"):
            report.to_json(path)
        with pytest.raises(CatscanError):
            MinimumReport((bad, 0.0), -3.0, -3.0, 0.1, "paper").to_json()
    assert not path.exists()


@pytest.mark.parametrize("x_max", [2.0, 0.02])
def test_monte_carlo_rejects_an_x_grid_narrower_than_the_state(x_max):
    x = np.arange(-round(x_max / 0.01), round(x_max / 0.01) + 1) * 0.01
    with pytest.raises(TruncationError, match="probability on x in"):
        monte_carlo_study(CatSpec(2.0, 1.5), NoiseSpec(0.25, 2, 0), x_grid=x)
