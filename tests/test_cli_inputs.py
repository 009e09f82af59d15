import pytest

from catscan.cli import SCAN_STEP, SEARCH_POINT_LIMIT, main, parse_config

BASE_CONFIG = """
r = 2.2360679774997896
theta = 1.5707963267948966
out_prefix = smoke
"""


def _run(tmp_path, command, text):
    config = tmp_path / "exp.cfg"
    config.write_text(text)
    return main([command, "--config", str(config), "--out", str(tmp_path)])


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
