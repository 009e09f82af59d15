import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catscan import QuadratureTable, WignerGrid
from catscan.cli import SCAN_STEP, SEARCH_POINT_LIMIT, main, parse_config

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
        "search_re_max = 202.03\n",  # 40,403 points
        "search_im_min = -0.5\nsearch_im_max = 0.5\n",  # 891 x 201 points
    ],
    ids=["re_max-1e9", "re_span-inf", "re_points-40403", "window-891x201"],
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


@pytest.mark.parametrize(
    "extra",
    ["noise_runs = 1000000000000\n", "noise_runs = 5\n", "noise_seed = 7\n"],
    ids=["runs-10^12", "runs-5", "seed-7"],
)
def test_noise_knobs_without_magnitude_exit_2(tmp_path, capsys, extra):
    assert _run(tmp_path, "cat-state", BASE_CONFIG + extra) == 2
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


@settings(max_examples=200, deadline=None, derandomize=True)
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
