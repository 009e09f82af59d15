import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catscan.cli as cli_module
from catscan import (
    InvalidArgument, MinimumReport, QuadratureTable, RegionError, WignerGrid, find_minimum,
)
from catscan.cli import (
    SCAN_STEP, SEARCH_POINT_LIMIT, WIGNER_AXIS_LIMIT, _scan_points, main, parse_config,
)

REPO = Path(__file__).resolve().parents[1]
BASE_CONFIG = """
r = 2.2360679774997896
theta = 1.5707963267948966
out_prefix = smoke
"""


def _run(tmp_path, command, text):
    config = tmp_path / "exp.cfg"
    config.write_text(text)
    argv = [command, "--config", str(config)]
    return main(argv if command == "cat-state" else argv + ["--out", str(tmp_path)])


def _assert_one_line_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "extra",
    [
        "search_re_max = 1e9\n",  # a 1.46 TiB scan axis at step 0.005
        "search_re_min = -1e308\nsearch_re_max = 1e308\n",  # the span overflows to inf
        "search_re_max = 202.0\n",  # 40,403 points from the default search_re_min, -0.01
        "search_re_max = 4.44\nsearch_im_min = -0.5\nsearch_im_max = 0.5\n",  # 891 x 201 points
        # 2 x 25,000 points, though span / step + 1 per axis reads 1.6 x 24,999.6 = 39,999
        "search_re_min = 0.0\nsearch_re_max = 0.003\nsearch_im_min = 0.0\nsearch_im_max = 124.993\n",
    ],
    ids=["re_max-1e9", "re_span-inf", "re_points-40403", "window-891x201", "thin-2x25000"],
)
def test_oversized_search_region_exits_2(tmp_path, capsys, extra):
    assert _run(tmp_path, "reconstruct", BASE_CONFIG + extra) == 2
    assert "search region" in _assert_one_line_config_error(capsys)


@pytest.mark.parametrize(
    "extra",
    [
        "search_re_min = 0.0\nsearch_re_max = 202.0\n",
        "search_re_min = 0.0\nsearch_re_max = 1.0\nsearch_im_min = -0.5\nsearch_im_max = 0.5\n",
    ],
    ids=["span-202", "window-1x1"],
)
def test_search_regions_at_the_limit_parse(tmp_path, extra):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CONFIG + extra)
    (re_lo, re_hi), (im_lo, im_hi) = parse_config(path).search_region
    points = (round((re_hi - re_lo) / SCAN_STEP) + 1) * (round((im_hi - im_lo) / SCAN_STEP) + 1)
    assert points == SEARCH_POINT_LIMIT


@settings(max_examples=150)
@given(
    los=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    long_span=st.floats(-0.01, 250.0),
    short_span=st.floats(0.0, 0.02),
    long_axis=st.sampled_from([0, 1]),
)
def test_search_limit_counts_the_points_find_minimum_scans(los, long_span, short_span, long_axis):
    """The count the config limit reads is the size of the grid find_minimum hands its target."""
    spans = (long_span, short_span) if long_axis == 0 else (short_span, long_span)
    region = tuple((lo, lo + span) for lo, span in zip(los, spans))
    points = _scan_points(region)
    config = parse_config(REPO / "configs" / "theta90.cfg")
    if points > SEARCH_POINT_LIMIT:
        with pytest.raises(InvalidArgument, match="search region scan"):
            replace(config, search_region=region)
        return
    assert replace(config, search_region=region).search_region == region
    sizes = []

    def target(u, v):
        sizes.append(np.size(u) * np.size(v))
        return np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)))

    (re_lo, re_hi), (im_lo, im_hi) = region
    try:
        find_minimum(target, region)
    except RegionError:  # the constant target's minimum is a corner: the scan still ran
        pass
    except InvalidArgument:
        assert not sizes and not (re_hi > re_lo and im_hi >= im_lo)
        return
    assert sizes[0] == points


@settings(max_examples=60)
@given(wigner_range=st.floats(0.05, 10.0), wigner_step=st.floats(0.002, 1.0))
def test_wigner_limit_counts_the_axis_wigner_oracle_writes(wigner_range, wigner_step):
    size = round(2.0 * wigner_range / wigner_step) + 1
    text = BASE_CONFIG + f"wigner_range = {wigner_range!r}\nwigner_step = {wigner_step!r}\n"
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        (out_dir / "exp.cfg").write_text(text)
        if size > WIGNER_AXIS_LIMIT:
            with pytest.raises(InvalidArgument, match="wigner grid axis"):
                parse_config(out_dir / "exp.cfg")
            return
        axis = parse_config(out_dir / "exp.cfg")._wigner_axis()
        assert axis.size == size and (axis[0], axis[-1]) == (-wigner_range, wigner_range)
        if size <= 41:  # small enough to run the command itself
            argv = ["wigner-oracle", "--config", str(out_dir / "exp.cfg"), "--out", tmp]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            grid = WignerGrid.from_csv(out_dir / "smoke_wigner.csv")
            assert grid.re_axis.size == grid.im_axis.size == size


@pytest.mark.parametrize(
    "command,extra",
    [
        ("cat-state", "noise_runs = 1000000000000\n"),
        ("cat-state", "noise_runs = 5\n"),
        ("cat-state", "noise_seed = 7\n"),
        ("noise-study", ""),  # a study with no noise to draw
    ],
    ids=["runs-10^12", "runs-5", "seed-7", "noise-study-no-magnitude"],
)
def test_noise_knobs_without_magnitude_exit_2(tmp_path, capsys, command, extra):
    assert _run(tmp_path, command, BASE_CONFIG + extra) == 2
    assert "noise_magnitude" in _assert_one_line_config_error(capsys)


@pytest.mark.parametrize("command", ["quadrature", "wigner-oracle", "reconstruct", "noise-study"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    text = "r = 2.0\ntheta = 1.5\nx_step = 0.05\nnoise_magnitude = 0.25\nnoise_runs = 2\n"
    # out_prefix naming a directory that does not exist
    assert _run(tmp_path, command, text + "out_prefix = sub/dir\n") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and err.count("\n") == 1
    # --out naming a file
    config = tmp_path / "exp.cfg"
    assert main([command, "--config", str(config), "--out", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and err.count("\n") == 1


_INVALID = st.sampled_from(["nan", "0", "-1", "-0.3"])
_KNOBS = {
    "theta": st.floats(min_value=0.05, max_value=math.pi / 2),
    "sign": st.sampled_from(["plus", "minus"]),
    "n_max": st.integers(min_value=1, max_value=60),
    "phase_count": st.integers(min_value=2, max_value=21),
    "x_step": st.floats(min_value=0.05, max_value=0.2),
    "cutoff_kc": st.floats(min_value=1.0, max_value=30.0),
    "noise_magnitude": st.floats(min_value=0.0, max_value=0.9),
    "noise_runs": st.integers(min_value=1, max_value=20),
    "noise_seed": st.integers(min_value=0, max_value=2**40),
    "probe_re": st.floats(min_value=-3.0, max_value=3.0),
    "probe_im": st.floats(min_value=-3.0, max_value=3.0),
    "search_re_min": st.floats(min_value=-1.0, max_value=3.0),
    "search_re_max": st.floats(min_value=-1.0, max_value=6.0),
    "search_im_min": st.floats(min_value=-0.02, max_value=0.02),
    "search_im_max": st.floats(min_value=-0.02, max_value=0.02),
    "wigner_range": st.floats(min_value=0.5, max_value=6.0),
    "wigner_step": st.floats(min_value=0.1, max_value=1.0),
}


@st.composite
def _configs(draw):
    """r <= 3 and bounded sizes; about one value in twelve is an invalid token."""

    def rarely():
        return draw(st.sampled_from(range(12))) == 0

    def value(valid):
        return draw(_INVALID if rarely() else valid)

    lines = [
        f"r = {value(st.floats(min_value=0.1, max_value=3.0))}",
        f"theta = {value(_KNOBS['theta'])}",
        f"noise_magnitude = {value(_KNOBS['noise_magnitude'])}",
    ]
    optional = sorted(set(_KNOBS) - {"theta", "noise_magnitude"})
    for key in draw(st.lists(st.sampled_from(optional), unique=True, max_size=6)):
        lines.append(f"{key} = {value(_KNOBS[key])}")
    lines.append(f"out_prefix = {'sub/run' if rarely() else 'run'}")
    if rarely():
        lines.append("colour = blue")
    if rarely():
        lines.pop(draw(st.sampled_from(range(3))))  # r, theta or noise_magnitude
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _finite_artifact(command, out_dir, stdout):
    if command == "cat-state":
        values = [float(x) for line in stdout.split("n,re,im")[1].split() for x in line.split(",")]
        return all(math.isfinite(x) for x in values)
    if command == "quadrature":
        table = QuadratureTable.from_csv(out_dir / "run_quadrature.csv")
        return np.all(np.isfinite(table.phases)) and np.all(np.isfinite(table.x_grid))
    if command == "wigner-oracle":
        return np.all(np.isfinite(WignerGrid.from_csv(out_dir / "run_wigner.csv").values))
    name = "run_minimum.json" if command == "reconstruct" else "run_noise.json"

    def reject(constant):
        raise ValueError(f"non-finite {constant} in {name}")

    report = json.loads((out_dir / name).read_text(), parse_constant=reject)
    values = [report["value"], report["mean"], report["stddev"], *report["location"]]
    return all(math.isfinite(x) for x in values)


@settings(max_examples=200)
@given(
    command=st.sampled_from(["cat-state", "quadrature", "wigner-oracle", "reconstruct", "noise-study"]),
    text=_configs(),
)
def test_cli_exits_with_an_artifact_or_a_documented_code(command, text):
    """Exit 0 with a finite artifact, or exit 2, 3, 5 or 6 with one stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        config = out_dir / "exp.cfg"
        config.write_text(text)
        argv = [command, "--config", str(config)]
        if command != "cat-state":
            argv += ["--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code == 0:
            assert _finite_artifact(command, out_dir, stdout.getvalue())
        else:
            assert code in (2, 3, 5, 6)
            err = stderr.getvalue()
            assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["quadrature", "reconstruct", "noise-study"])
@pytest.mark.parametrize("x_max", ["2.0", "0.02"])
def test_x_grid_narrower_than_the_state_exits_3(tmp_path, capsys, command, x_max):
    """Both grids once gave reconstruct a wrong minimum with exit 0: -3.229848 at
    (0.4467, 0) on x_max = 2, against -3.285 on the default x_max = 6."""
    text = f"r = 2\ntheta = 1.5\nx_max = {x_max}\nnoise_magnitude = 0.25\nout_prefix = narrow\n"
    assert _run(tmp_path, command, text) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: truncation:") and err.count("\n") == 1
    assert "of its probability on x in" in err
    assert not list(tmp_path.glob("narrow*"))


@pytest.mark.parametrize("command,target", [
    ("reconstruct", "_clean_scan"), ("noise-study", "monte_carlo_study"),
])
def test_a_report_with_nan_exits_6_and_writes_nothing(tmp_path, capsys, monkeypatch, command, target):
    nan = MinimumReport((math.nan, 0.0), math.nan, math.nan, 0.0, "paper")
    monkeypatch.setattr(cli_module, target, lambda *args, **kwargs: nan)
    text = BASE_CONFIG + "noise_magnitude = 0.25\nnoise_runs = 2\n"
    assert _run(tmp_path, command, text) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: report not written:") and err.count("\n") == 1
    assert not list(tmp_path.glob("smoke*"))
