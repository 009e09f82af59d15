import argparse
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catscan import (
    CatSpec, InvalidArgument, NoiseSpec, QuadratureTable, WignerGrid, monte_carlo_study,
    published_branch_weight,
)
from catscan.cli import _SCHEMA, build_parser, main, parse_config
from catscan.experiment import ExperimentConfig

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = CONFIGS / "golden"


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


BASE_CONFIG = """
r = 2.2360679774997896
theta = 1.5707963267948966
sign = plus
out_prefix = smoke
"""


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, BASE_CONFIG))
    assert cfg.cat.r == pytest.approx(math.sqrt(5.0))
    assert cfg.cat.sign == "plus"
    assert cfg.n_max == 50
    assert cfg.phase_count == 11
    assert cfg.x_max == 6.0 and cfg.x_step == 0.01
    assert cfg.recon.cutoff_kc == pytest.approx(2.0 * (2.0 * math.sqrt(5.0) + 4.0))
    assert cfg.noise is None
    assert cfg.probe is None
    assert cfg.search_region == ((-0.01, 2.0 * cfg.cat.r), (0.0, 0.0))
    grid = cfg.x_grid()
    assert grid.size == 1201 and grid[0] == -grid[-1] == -6.0
    assert cfg.phases().size == 11


def test_parse_config_of_r_and_theta_is_the_experiment_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, "r = 2.0\ntheta = 1.2\n"))
    want = ExperimentConfig(CatSpec(2.0, 1.2))
    for field in dataclasses.fields(ExperimentConfig):
        assert getattr(cfg, field.name) == getattr(want, field.name), field.name


def test_parse_config_rejects_unknown_key(tmp_path):
    with pytest.raises(InvalidArgument):
        parse_config(write_config(tmp_path, BASE_CONFIG + "colour = blue\n"))


def test_parse_config_rejects_duplicate_key(tmp_path):
    with pytest.raises(InvalidArgument):
        parse_config(write_config(tmp_path, BASE_CONFIG + "r = 2.0\n"))


def test_parse_config_rejects_bad_value(tmp_path):
    with pytest.raises(InvalidArgument):
        parse_config(write_config(tmp_path, "r = two\ntheta = 0.5\n"))


def test_parse_config_requires_r_and_theta(tmp_path):
    with pytest.raises(InvalidArgument):
        parse_config(write_config(tmp_path, "r = 2.0\n"))


def test_parse_config_rejects_missing_file(tmp_path):
    with pytest.raises(InvalidArgument):
        parse_config(tmp_path / "absent.cfg")


def test_parse_config_rejects_bare_line(tmp_path):
    with pytest.raises(InvalidArgument):
        parse_config(write_config(tmp_path, "r 2.0\n"))


def test_main_exit_code_config_error(tmp_path, capsys):
    code = main(["cat-state", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert err.count("\n") == 1


def test_main_exit_code_truncation(tmp_path, capsys):
    config = write_config(
        tmp_path, "r = 3.1622776601683795\ntheta = 1.5\nn_max = 12\n"
    )
    code = main(["cat-state", "--config", str(config)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: truncation:")


def test_main_exit_code_region_error(tmp_path, capsys):
    # [0.5, 0.9] brackets a fringe maximum, so the scan minimum sits on an edge
    config = write_config(
        tmp_path,
        BASE_CONFIG + "search_re_min = 0.5\nsearch_re_max = 0.9\n",
    )
    code = main(["reconstruct", "--config", str(config), "--out", str(tmp_path)])
    assert code == 5
    assert capsys.readouterr().err.startswith("error: search region:")


def test_two_node_v_axis_exits_on_its_boundary(tmp_path, capsys):
    # theta90's minimum sits at v = 0: a two-node v axis [0, 0.005] holds it on an edge
    text = (CONFIGS / "theta90.cfg").read_text() + "search_im_min = 0.0\nsearch_im_max = 0.005\n"
    config = write_config(tmp_path, text)
    code = main(["reconstruct", "--config", str(config), "--out", str(tmp_path)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: search region:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--config", "CONFIG", "--seed", "3"],
        ["reconstruct"],
        ["colour", "--config", "CONFIG"],
        ["noise-study", "--config", "CONFIG", "--convention", "natural"],
        ["cat-state", "--config", "CONFIG", "--out", "."],
        ["ghz", "phi-plus", "--out", "."],
    ],
    ids=["flag-not-read", "missing-config", "unknown-command", "bad-choice", "cat-state-out", "ghz-out"],
)
def test_usage_error_prints_one_line(tmp_path, capsys, argv):
    config = str(write_config(tmp_path, BASE_CONFIG))
    with pytest.raises(SystemExit) as exc:
        main([config if arg == "CONFIG" else arg for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: usage:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_cat_state_output(tmp_path, capsys):
    config = write_config(tmp_path, BASE_CONFIG)
    assert main(["cat-state", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "r = 2.2360679775"
    norm = float(next(ln for ln in lines if ln.startswith("norm")).split("=")[1])
    assert norm == pytest.approx(1.0, abs=1e-12)
    nbar = float(next(ln for ln in lines if ln.startswith("mean_photon")).split("=")[1])
    assert nbar == pytest.approx(5.0, abs=1e-3)
    # odd Fock amplitudes vanish for the plus cat at theta = pi/2
    amp1 = next(ln for ln in lines if ln.startswith("1,"))
    assert abs(float(amp1.split(",")[1])) < 1e-12


@pytest.mark.parametrize(
    "preset,want",
    [("theta90", 0.500023), ("theta63", 0.499891), ("theta02", 0.376181), ("nbar10", 0.500000)],
)
def test_cat_state_prints_herald_probability(capsys, preset, want):
    assert main(["cat-state", "--config", str(CONFIGS / f"{preset}.cfg")]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("herald_probability"))
    got = float(line.split("=")[1])
    cfg = parse_config(CONFIGS / f"{preset}.cfg")
    assert abs(got - published_branch_weight(cfg.cat) / 2.0) < 1e-10
    assert got == pytest.approx(want, abs=5e-7)


@pytest.mark.parametrize(
    "cat,prob",
    [
        # r sin(theta) = 8.4e-9
        ("r = 1e-8\ntheta = 1.0", "7.08e-17"),
        # N = 2.56e-14: above 1e-14, yet N / 4 is below the herald floor
        ("r = 8e-8\ntheta = 1.5707963267948966", "6.40e-15"),
    ],
    ids=["r1e-8", "r8e-8"],
)
@pytest.mark.parametrize(
    "command", ["cat-state", "quadrature", "wigner-oracle", "reconstruct", "noise-study"]
)
def test_vanishing_minus_cat_exits_6(tmp_path, capsys, command, cat, prob):
    # the minus45 outcome has probability prob, below the 1e-14 floor
    config = write_config(tmp_path, f"{cat}\nsign = minus\nn_max = 10\nnoise_magnitude = 0.25\n")
    argv = [command, "--config", str(config)]
    code = main(argv if command == "cat-state" else argv + ["--out", str(tmp_path)])
    assert code == 6
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if command == "wigner-oracle":
        # the closed form's norm is 4 x the heralding probability
        assert captured.err == f"error: superposition norm / 4 = {prob} is below 1e-14\n"
    else:
        assert captured.err == f"error: projection onto minus45 has probability {prob}\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command", ["cat-state", "wigner-oracle"])
def test_minus_cat_just_above_floor_exits_0(tmp_path, capsys, command):
    # r = 1.2e-7 at theta = pi/2: heralding probability 1.44e-14
    config = write_config(
        tmp_path,
        "r = 1.2e-7\ntheta = 1.5707963267948966\nsign = minus\nn_max = 10\nwigner_range = 1.0\n",
    )
    argv = [command, "--config", str(config)]
    assert main(argv if command == "cat-state" else argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_ghz_output(capsys):
    assert main(["ghz", "phi-plus"]) == 0
    out = capsys.readouterr().out
    assert "|HH45> : +0.707107" in out
    assert "|VV135> : +0.707107" in out
    assert "correlation check: PASS" in out


def test_ghz_rejects_unknown_label(capsys):
    code = main(["ghz", "phi-both"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid configuration:")


def test_quadrature_csv_roundtrip(tmp_path, capsys):
    config = write_config(tmp_path, BASE_CONFIG + "phase_count = 5\nx_step = 0.05\n")
    assert main(["quadrature", "--config", str(config), "--out", str(tmp_path)]) == 0
    path = tmp_path / "smoke_quadrature.csv"
    table = QuadratureTable.from_csv(path)
    assert table.phases.size == 5
    for row in table.density:
        assert abs(np.trapezoid(row, table.x_grid) - 1.0) < 1e-6


def test_wigner_oracle_csv(tmp_path, capsys):
    config = write_config(
        tmp_path, BASE_CONFIG + "wigner_range = 1.0\nwigner_step = 0.25\n"
    )
    code = main(
        ["wigner-oracle", "--config", str(config), "--out", str(tmp_path),
         "--convention", "paper"]
    )
    assert code == 0
    grid = WignerGrid.from_csv(tmp_path / "smoke_wigner.csv")
    assert grid.convention == "paper"
    assert grid.re_axis[0] == -1.0 and grid.re_axis[-1] == 1.0
    # paper convention: vacuum-normalized peak of 4 at the origin lobes
    assert np.max(grid.values) <= 4.0 + 1e-9


def test_reconstruct_theta90_preset(tmp_path, capsys):
    code = main(
        ["reconstruct", "--config", str(CONFIGS / "theta90.cfg"), "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "theta90_minimum.json").read_text())
    assert payload["convention"] == "paper"
    assert abs(payload["location"][0] - 0.3346) < 1e-3
    assert abs(payload["location"][1]) < 1e-9
    assert abs(payload["value"] / -3.16 - 1.0) < 0.03


def test_noise_study_seed_override(tmp_path):
    config = write_config(
        tmp_path,
        BASE_CONFIG
        + "probe_re = 0.3346\nnoise_magnitude = 0.25\nnoise_runs = 3\nnoise_seed = 1\n",
    )
    assert main(["noise-study", "--config", str(config), "--out", str(tmp_path)]) == 0
    first = json.loads((tmp_path / "smoke_noise.json").read_text())
    assert main(
        ["noise-study", "--config", str(config), "--out", str(tmp_path), "--seed", "2"]
    ) == 0
    second = json.loads((tmp_path / "smoke_noise.json").read_text())
    assert first["seed"] == 1 and second["seed"] == 2
    assert first["mean"] != second["mean"]
    assert first["value"] == second["value"]


@pytest.mark.parametrize(
    "extra,want",
    [
        # a minus cat's minimum at the origin, inside a region of its own
        ("theta = 1.5707963267948966\nsign = minus\nsearch_re_min = -0.5\nsearch_re_max = 0.5\n", None),
        # the theta = 1.11 cat's local minimum near 0.155, not its absolute one at 0.895
        ("theta = 1.11\nsearch_re_min = 0.05\nsearch_re_max = 0.3\n", None),
        # the default region's lower edge, u = -0.01, leaves the origin inside the scan
        ("theta = 1.5707963267948966\nsign = minus\n", ([0.0, 0.0], -3.999822)),
    ],
    ids=["minus-cat-origin", "theta-1.11-local", "minus-cat-default-region"],
)
def test_noise_study_without_a_probe_scans_the_search_region(tmp_path, extra, want):
    text = f"r = 2.2360679774997896\n{extra}noise_magnitude = 0.25\nnoise_runs = 3\n"
    config = write_config(tmp_path, text + "out_prefix = smoke\n")
    assert main(["reconstruct", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert main(["noise-study", "--config", str(config), "--out", str(tmp_path)]) == 0
    minimum = json.loads((tmp_path / "smoke_minimum.json").read_text())
    study = json.loads((tmp_path / "smoke_noise.json").read_text())
    assert study["location"] == pytest.approx(minimum["location"], abs=1e-4)
    assert study["value"] == pytest.approx(minimum["value"], abs=1e-4)
    if want is not None:
        location, value = want
        assert minimum["location"] == study["location"] == location
        assert minimum["value"] == pytest.approx(value, abs=5e-7)


def test_probe_less_noise_study_is_the_library_study(tmp_path):
    """Without search keys the CLI study scans the default region at the library's step."""
    text = "r = 2.2360679774997896\ntheta = 1.5707963267948966\nnoise_magnitude = 0.25\n"
    config = write_config(tmp_path, text + "noise_runs = 3\nout_prefix = smoke\n")
    assert main(["noise-study", "--config", str(config), "--out", str(tmp_path)]) == 0
    study = json.loads((tmp_path / "smoke_noise.json").read_text())
    library = monte_carlo_study(CatSpec(math.sqrt(5.0), math.pi / 2), NoiseSpec(0.25, 3, 0))
    assert study["location"] == list(library.location)
    assert study["value"] == library.value


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4
    assert "4/4 checks passed" in out


@pytest.mark.parametrize(
    "preset,command,artifact",
    [
        ("theta90", "reconstruct", "theta90_minimum.json"),
        ("theta63", "reconstruct", "theta63_minimum.json"),
        ("theta02", "reconstruct", "theta02_minimum.json"),
        ("nbar10", "reconstruct", "nbar10_minimum.json"),
        ("noise25", "noise-study", "noise25_noise.json"),
        ("noise50", "noise-study", "noise50_noise.json"),
    ],
)
def test_presets_match_committed_golden(tmp_path, capsys, preset, command, artifact):
    config = CONFIGS / f"{preset}.cfg"
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / artifact).read_text())
    want = json.loads((GOLDEN / artifact).read_text())
    assert got["schema"] == want["schema"]
    assert got["convention"] == want["convention"]
    for key in ("value", "mean", "stddev"):
        assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-12)
    assert got["location"] == pytest.approx(want["location"], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "extra,command,artifact",
    [
        (
            "probe_re = nan\nnoise_magnitude = 0.25\nnoise_runs = 2\n",
            "noise-study",
            "smoke_noise.json",
        ),
        ("wigner_range = inf\n", "wigner-oracle", "smoke_wigner.csv"),
        ("search_re_max = inf\n", "reconstruct", "smoke_minimum.json"),
    ],
    ids=["probe_re-nan", "wigner_range-inf", "search_re_max-inf"],
)
def test_non_finite_config_value_exits_2(tmp_path, capsys, extra, command, artifact):
    config = write_config(tmp_path, BASE_CONFIG + extra)
    code = main([command, "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:") and "finite" in err
    assert err.count("\n") == 1
    assert not (tmp_path / artifact).exists()


@pytest.mark.parametrize("command", ["noise-study", "verify"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    argv = [command, "--out", str(tmp_path), "--seed", "-1"]
    if command == "noise-study":
        config = write_config(
            tmp_path, BASE_CONFIG + "probe_re = 0.3346\nnoise_magnitude = 0.25\nnoise_runs = 2\n"
        )
        argv += ["--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert err.count("\n") == 1


def _assert_one_line_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert err.count("\n") == 1
    return err


def test_phase_extension_is_an_unknown_key(tmp_path, capsys):
    # fit_model is gone too: the slices are always cubic splines
    for key, value in (
        ("phase_extension", "conjugation_symmetry"),
        ("fit_model", "none"),
        ("fit_model", "cubic_spline"),
        # x_max is the half-width of a grid symmetric about 0
        ("x_min", "-6.0"),
    ):
        config = write_config(tmp_path, BASE_CONFIG + f"{key} = {value}\n")
        assert main(["reconstruct", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert f"unknown key {key!r}" in _assert_one_line_config_error(capsys)


def test_each_subcommand_takes_only_the_flags_it_reads():
    text = (REPO / "README.md").read_text()
    table = text.split("| command | flags | purpose |", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.strip().splitlines()[1:]:
        command, flags = row.split("|")[1:3]
        documented[command.strip().strip("`")] = sorted(re.findall(r"`(--[a-z-]+)", flags))
    commands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    declared = {
        name: sorted(
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for name, sub in commands.items()
    }
    assert declared == documented


def test_readme_lists_every_config_key():
    text = (REPO / "README.md").read_text()
    block = text.split("Config files are plain", 1)[1].split("```")[1]
    keys = [line.split("=", 1)[0].strip() for line in block.strip().splitlines()]
    assert keys == list(_SCHEMA)


@pytest.mark.parametrize(
    "text,named",
    [
        ("r = 1e200\ntheta = 1.5\n", "r^2"),  # r^2 overflows
        ("r = 1e5\ntheta = 1.5\n", "r^2"),  # the derived n_max would be 6e10
        ("r = 1e5\ntheta = 1.5\nn_max = 50\n", "r^2"),
        ("r = 20\ntheta = 1.5\n", "n_max"),  # nbar = 400 fits, its derived n_max 2400 does not
        ("r = 2\ntheta = 1.5\nn_max = 100000\n", "n_max"),
        ("r = 2\ntheta = 1.5\nphase_count = 1e12\n", "phase_count"),
        ("r = 2\ntheta = 1.5\nphase_count = 1000000000000\n", "phase_count"),
        ("r = 2\ntheta = 1.5\nphase_count = 362\n", "phase_count"),
        ("r = 2\ntheta = 1.5\nx_step = 1e-9\n", "x grid"),
        ("r = 2\ntheta = 1.5\nx_max = 1e308\n", "x grid"),  # x_max / x_step overflows to inf
        ("r = 2\ntheta = 1.5\nx_step = 0.0005\nx_max = 5.0005\n", "x grid has 20003 points"),
        ("r = 2\ntheta = 1.5\nwigner_step = 1e-7\n", "wigner grid"),
        ("r = 2\ntheta = 1.5\nwigner_range = 1e308\nwigner_step = 1e-10\n", "wigner grid"),
        ("r = 2\ntheta = 1.5\nwigner_step = 0\n", "wigner grid"),
        ("r = 2\ntheta = 1.5\nwigner_range = -1\n", "wigner grid"),
        ("r = 2\ntheta = 1.5\nnoise_magnitude = 0.25\nnoise_runs = 1e12\n", "noise_runs"),
        ("r = 2\ntheta = 1.5\nnoise_magnitude = 0.25\nnoise_runs = 1000000000000\n", "noise_runs"),
        ("r = 2\ntheta = 1.5\nnoise_magnitude = 0.25\nnoise_runs = 10001\n", "noise_runs"),
    ],
    ids=[
        "r-1e200", "r-1e5", "r-1e5-n_max-50", "r-20", "n_max-1e5",
        "phase_count-1e12", "phase_count-10^12", "phase_count-362",
        "x_step-1e-9", "x_span-inf", "x_points-20003",
        "wigner_step-1e-7", "wigner_axis-inf", "wigner_step-0", "wigner_range--1",
        "noise_runs-1e12", "noise_runs-10^12", "noise_runs-10001",
    ],
)
def test_oversized_state_exits_2(tmp_path, capsys, text, named):
    config = write_config(tmp_path, text)
    assert main(["cat-state", "--config", str(config)]) == 2
    assert named in _assert_one_line_config_error(capsys)


def test_x_grid_limit_counts_the_rounded_nodes(tmp_path, capsys):
    """x_max is the half-width: 10.001 / 0.001 rounds to n = 10,001 steps a side,
    so the grid has 2n + 1 = 20,003 nodes, two more than the limit. (10.0005 would
    not do: round(10000.5) is 10,000.)"""
    text = "r = 2\ntheta = 1.5\nx_step = 0.001\nx_max = 10.001\n"
    assert main(["cat-state", "--config", str(write_config(tmp_path, text))]) == 2
    assert "x grid has 20003 points" in _assert_one_line_config_error(capsys)


@pytest.mark.parametrize(
    "text,x_points",
    [
        ("r = 12.88\ntheta = 1.5\n", 3601),  # nbar 165.9, the derived n_max 996
        (BASE_CONFIG + "x_step = 0.001\n", 12001),
        (BASE_CONFIG + "x_step = 0.001\nx_max = 10.0\n", 20001),
        (BASE_CONFIG + "phase_count = 181\n", 1201),
        (BASE_CONFIG + "phase_count = 361\n", 1201),
        (BASE_CONFIG + "wigner_step = 0.005\n", 1201),
        (BASE_CONFIG + "wigner_range = 10.0\nwigner_step = 0.005\n", 1201),
        (BASE_CONFIG + "noise_magnitude = 0.25\nnoise_runs = 10000\n", 1201),
    ],
)
def test_large_grids_within_the_limits_parse(tmp_path, text, x_points):
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.x_grid().size == x_points


_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "0", "-0", "-1", "1e5", "1e200"]),
    st.floats().map(repr),
    st.floats(min_value=-10.0, max_value=10.0).map(repr),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
)
_VALUES = st.one_of(
    _NUMBERS,
    st.sampled_from(["plus", "minus", "cubic_spline", "none", ""]),
    st.text(alphabet="abcxyz019.+-e _", max_size=8),
)
_KEYS = st.one_of(st.sampled_from(sorted(_SCHEMA)), st.sampled_from(["colour", "R", "r2"]))


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    r=_NUMBERS,
    theta=st.one_of(st.floats(min_value=0.01, max_value=1.57).map(repr), _NUMBERS),
    extra=st.lists(st.tuples(_KEYS, _VALUES), max_size=6),
)
def test_parse_config_returns_config_or_invalid_argument(tmp_path, r, theta, extra):
    """Mixed known, unknown and duplicate keys; any value string."""
    lines = [f"r = {r}", f"theta = {theta}"] + [f"{key} = {value}" for key, value in extra]
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    try:
        cfg = parse_config(path)
    except InvalidArgument:
        return
    assert isinstance(cfg, ExperimentConfig)
