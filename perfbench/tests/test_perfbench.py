"""Tests for the benchmark's own code: span arithmetic, checks, inputs, counts.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math

import numpy as np
import pytest

import layers
import workloads
from tracing import Tracer, instrument, layer_stats, self_times
from workloads import CLI_COMMANDS, GOLDEN, ROOT, WORKLOADS, Op


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("leaf", 2.0, 3.0, parent=1),
        span("b", 5.0, 8.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("b", 5.0, 8.0, parent=0),
        span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_stats_sums_per_name():
    spans = [
        span("outer", 0.0, 4.0),
        span("inner", 0.5, 1.5, parent=0),
        span("inner", 2.0, 3.0, parent=0),
    ]
    stats = layer_stats(spans)
    assert stats["inner"] == pytest.approx({"calls": 2, "busy_s": 2.0, "self_s": 2.0})
    assert stats["outer"] == pytest.approx({"calls": 1, "busy_s": 4.0, "self_s": 2.0})


def test_instrument_wraps_every_alias_and_restores():
    import catscan.experiment
    import catscan.tomography

    original = catscan.tomography.reconstruct_at
    tracer = Tracer()
    with instrument(tracer, layers.TARGETS):
        assert catscan.experiment.reconstruct_at is catscan.tomography.reconstruct_at
        assert catscan.experiment.reconstruct_at is not original
    assert catscan.experiment.reconstruct_at is original
    assert catscan.tomography.reconstruct_at is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    workload = WORKLOADS[name]
    first = [workload.inputs(7, k) for k in range(3)]
    assert first == [workload.inputs(7, k) for k in range(3)]
    assert first != [workload.inputs(8, k) for k in range(3)]
    assert first[0] != first[1]
    json.dumps(first)  # plain data only


def test_seed_zero_keeps_committed_noise_seeds():
    runs = WORKLOADS["cli-presets"].inputs(0, 0)["runs"]
    assert not any("--seed" in run["argv"] for run in runs)
    assert WORKLOADS["noise-sweep"].inputs(0, 0)["noise_seeds"] == [None, None, None]


@pytest.fixture
def cli_ctx(tmp_path):
    return WORKLOADS["cli-presets"].setup(0, tmp_path / "out")


def cli_op(ctx, command, golden_name, edit=None, code=0, stderr=""):
    """Check one reconstruct/noise-study run whose artifact is a (maybe edited) golden."""
    index = next(i for i, c in enumerate(CLI_COMMANDS) if c.artifact == golden_name)
    text = (GOLDEN / golden_name).read_text()
    if edit is not None:
        text = edit(text)
    (ctx["out"] / golden_name).write_text(text)
    run = {"command": index, "argv": [command]}
    op = Op(command, 0.0, output=(code, "", stderr))
    WORKLOADS["cli-presets"].check(ctx, {"runs": [run]}, [op])
    return op


@pytest.mark.parametrize(
    "command,golden", [("reconstruct", "theta90_minimum.json"), ("noise-study", "noise50_noise.json")]
)
def test_untouched_golden_passes(cli_ctx, command, golden):
    assert cli_op(cli_ctx, command, golden).problems == []


def bump_value(text):
    payload = json.loads(text)
    payload["value"] *= 1.0 + 1e-8
    return json.dumps(payload)


def nan_mean(text):
    payload = json.loads(text)
    payload["mean"] = float("nan")
    return json.dumps(payload)


@pytest.mark.parametrize("edit", [bump_value, nan_mean, lambda text: text[:20]])
def test_corrupted_artifact_fails(cli_ctx, edit):
    assert cli_op(cli_ctx, "reconstruct", "theta90_minimum.json", edit).problems
    assert cli_op(cli_ctx, "noise-study", "noise25_noise.json", edit).problems


def test_nonzero_exit_or_traceback_fails(cli_ctx):
    assert cli_op(cli_ctx, "reconstruct", "theta90_minimum.json", code=6).problems
    stderr = "Traceback (most recent call last):\n  boom\n"
    assert cli_op(cli_ctx, "reconstruct", "theta90_minimum.json", stderr=stderr).problems


def test_biased_noise_mean_fails():
    golden = workloads.load_golden("noise50_noise.json")
    shifted = dict(golden, mean=golden["value"] + 6.0 * golden["stddev"] / math.sqrt(200))
    assert workloads.check_noise_report(golden, golden, 200, committed=True) == []
    assert workloads.check_noise_report(shifted, golden, 200, committed=False)


def test_oracle_csv_check(tmp_path):
    from catscan import wigner

    cfg = workloads._preset("theta90")
    axis = np.linspace(-6.0, 6.0, 241)
    grid = wigner.evaluate_grid(wigner.cat_wigner_terms(cfg.cat), axis, axis)
    path = tmp_path / "w.csv"
    grid.to_csv(path)
    assert workloads.check_oracle_csv(path, cfg.cat) == []
    lines = path.read_text().splitlines()
    lines[1000] = lines[1000].rsplit(",", 1)[0] + ",0.5"
    path.write_text("\n".join(lines) + "\n")
    assert workloads.check_oracle_csv(path, cfg.cat)


def test_grid_check_rejects_nan_and_distance():
    ref = np.zeros((2, 2))
    assert workloads.check_grid(ref, ref, 1e-6) == []
    assert workloads.check_grid(np.full((2, 2), np.nan), ref, 1e-6)
    assert workloads.check_grid(ref + 1e-3, ref, 1e-6)


def test_harness_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(layers.per_layer_metrics(Tracer())) | {
        "cli.import_s", "trace.untraced_wall_s", "trace.wall_s", "trace.overhead_s",
    }
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert {m["name"] for m in spec["workloads"]} == set(WORKLOADS)


COUNT_KEYS = (
    "tomography.reconstruct_at.calls",
    "tomography.reconstruct_at.points",
    "tomography.kernel_evals",
    "tomography.fit_slices.calls",
    "quadrature.build_table.calls",
    "quadrature.build_table.unique_ratio",
    "experiment.find_minimum.target_points",
    "experiment.perturb.calls",
)


def test_traced_counts_repeat_exactly(tmp_path):
    workload = WORKLOADS["noise-sweep"]
    ctx = workload.setup(3, tmp_path)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        inputs = workload.inputs(3, 0)
        with instrument(tracer, layers.TARGETS):
            ops = workload.run_pass(ctx, inputs, True)
        workload.check(ctx, inputs, ops)
        assert all(op.error is None and not op.problems for op in ops)
        metrics = layers.per_layer_metrics(tracer)
        counts.append({key: metrics[key] for key in COUNT_KEYS})
    assert counts[0] == counts[1]
    # 50 + 200 + 50 noisy runs, one clean point per study, and the no-probe scan
    assert counts[0]["experiment.perturb.calls"] == 300
    assert counts[0]["quadrature.build_table.unique_ratio"] == 0.25
    assert counts[0]["tomography.kernel_evals"] == counts[0]["tomography.reconstruct_at.points"] * 21 * 2401
