import re
from pathlib import Path

import numpy as np
import pytest

import catscan

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"


def test_all_is_sorted_unique_and_resolves():
    names = catscan.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(catscan, name), name
    namespace: dict = {}
    exec("from catscan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name} library sketch", "exec"), {})


def test_numpy_warnings_still_fail_tests():
    # pyproject.toml ignores one warning of the hypothesis plugin; the rest are errors
    with pytest.raises(RuntimeWarning):
        np.log(np.array(0.0))


def test_benchmark_calling_contract():
    """The calls perfbench/workloads.py and perfbench/layers.py make, made here without
    importing them: renaming or deleting any of these fails this test, not a benchmark run.
    The benchmark also passes --out to verify (tests/test_startup.py)."""
    from catscan import circuit, cli, experiment, quadrature, tomography

    cfg = cli.parse_config(REPO / "configs" / "noise25.cfg")
    noise = experiment.NoiseSpec(cfg.noise.magnitude, cfg.noise.runs, 7, cfg.noise.model)
    for probe in (cfg.probe, None):
        study = experiment.monte_carlo_study(
            cfg.cat, noise, recon_config=cfg.recon, probe_point=probe, convention="paper",
            n_max=cfg.n_max, phases=cfg.phases(), x_grid=cfg.x_grid(),
        )
        assert study.seed == 7 and study.config["runs"] == cfg.noise.runs
    assert cfg.recon.fit_model == "cubic_spline"
    state = circuit.make_cat(cfg.cat, cfg.n_max)
    table = tomography.extend_phases(quadrature.build_table(state, cfg.phases(), cfg.x_grid()))
    grid = tomography.reconstruct(table, [-1.0, 0.0, 1.0], [0.0, 0.5], cfg.recon)
    assert grid.values.shape == (3, 2)
