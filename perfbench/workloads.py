"""The benchmark workloads.

Each workload is a closed loop with one caller.  A workload knows how to
draw one pass's inputs from the workload seed (``inputs``), how many items
of work a pass holds (``items``), how to set up the state it reuses across
passes (``setup``), how to run one timed pass (``run_pass``), and how to
check each operation of that pass (``check``), which runs outside the timed
region.  ``in_process`` says whether catscan runs in the harness process.

Workload seed 0 keeps the committed seeds of the presets (noise seed
20250814 in ``configs/noise25.cfg`` and ``configs/noise50.cfg``), so the
Monte Carlo mean and stddev can be checked against the goldens; any other
seed draws fresh noise seeds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
GOLDEN = CONFIGS / "golden"

# Tolerance the tier-1 golden test uses (tests/test_cli.py).
GOLDEN_REL = 1e-9
GOLDEN_ABS = 1e-12
# |reconstructed - closed form| over the theta90 grid [-3, 3]^2, phys
# convention, measured when this benchmark was introduced: 0.109 at seed 0 and
# about 0.12 at worst over the sub-step offsets; the cutoff kc blurs the peaks.
WIGNER_MAP_TOL = 0.13
# The no-probe study scans at step 0.01 over (0, 2r); the theta90 golden was
# found at step 0.005 over (0.05, 0.85).  Both refine the same parabola.
NO_PROBE_LOC_TOL = 1e-4
NO_PROBE_VALUE_REL = 1e-6
# |mean - clean| of an unbiased estimator stays within this many standard errors.
UNBIASED_SIGMAS = 5.0


@dataclass
class Op:
    """One timed operation of a pass and what it produced."""

    name: str
    seconds: float
    output: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)


def _timed(name: str, fn) -> Op:
    start = time.perf_counter()
    try:
        output = fn()
    except Exception:  # a failing operation is counted, not fatal
        return Op(name, time.perf_counter() - start, error=traceback.format_exc(limit=3))
    return Op(name, time.perf_counter() - start, output)


def _record(op: Op, check) -> None:
    """Add the problems ``check()`` finds; malformed output is a problem too."""
    if op.error is not None:
        return
    try:
        op.problems += check()
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        op.problems.append(f"malformed output: {exc!r}")


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


def _offset_axis(lo: float, hi: float, count: int, offset_steps: float) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step + offset_steps * step for i in range(count)]


def _close(got, want, rel=GOLDEN_REL, abs_=GOLDEN_ABS) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_)


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON")


def load_report(text: str) -> dict:
    """Parse a report JSON, refusing NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def load_golden(name: str) -> dict:
    return load_report((GOLDEN / name).read_text())


def check_report(got: dict, want: dict, keys=("value", "mean", "stddev")) -> list[str]:
    """Compare a minimum report with a golden at the tier-1 tolerance."""
    problems = []
    for key in ("schema", "convention"):
        if got.get(key) != want[key]:
            problems.append(f"{key} {got.get(key)!r} != golden {want[key]!r}")
    for key in keys:
        if not _close(got[key], want[key]):
            problems.append(f"{key} {got[key]!r} != golden {want[key]!r}")
    for axis in (0, 1):
        if not _close(got["location"][axis], want["location"][axis]):
            problems.append(f"location {got['location']!r} != golden {want['location']!r}")
            break
    return problems


def check_unbiased(report: dict, runs: int) -> list[str]:
    """|mean - clean value| <= UNBIASED_SIGMAS * stddev / sqrt(runs)."""
    limit = UNBIASED_SIGMAS * report["stddev"] / math.sqrt(runs)
    gap = abs(report["mean"] - report["value"])
    if not gap <= limit:
        return [f"|mean - value| = {gap:.3e} exceeds {limit:.3e}"]
    return []


def check_noise_report(got: dict, golden: dict, runs: int, committed: bool) -> list[str]:
    """Clean value and location match the golden; the mean is unbiased.

    Under the committed noise seed the mean and stddev match the golden too.
    """
    keys = ("value", "mean", "stddev") if committed else ("value",)
    return check_report(got, golden, keys) + check_unbiased(got, runs)


def check_grid(values, reference, tol: float) -> list[str]:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != reference.shape:
        return [f"grid shape {values.shape} != {reference.shape}"]
    if not np.all(np.isfinite(values)):
        return ["grid holds non-finite values"]
    worst = float(np.max(np.abs(values - reference)))
    if not worst <= tol:
        return [f"max |W - closed form| = {worst:.3e} exceeds {tol:.1e}"]
    return []


def _closed_form(spec, alpha):
    from catscan import wigner

    return wigner.wigner_superposition(wigner.cat_wigner_terms(spec), alpha)


def _preset(name: str):
    from catscan import cli

    return cli.parse_config(CONFIGS / f"{name}.cfg")


# --------------------------------------------------------------------------
# cli-presets


@dataclass(frozen=True)
class CliCommand:
    kind: str
    preset: str | None
    artifact: str | None


CLI_COMMANDS = (
    CliCommand("reconstruct", "theta90", "theta90_minimum.json"),
    CliCommand("reconstruct", "theta63", "theta63_minimum.json"),
    CliCommand("reconstruct", "theta02", "theta02_minimum.json"),
    CliCommand("reconstruct", "nbar10", "nbar10_minimum.json"),
    CliCommand("noise-study", "noise25", "noise25_noise.json"),
    CliCommand("noise-study", "noise50", "noise50_noise.json"),
    CliCommand("wigner-oracle", "theta90", "theta90_wigner.csv"),
    CliCommand("verify", None, None),
)


def child_env() -> dict:
    """Environment for a child interpreter that must import the checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class CliPresets:
    """Every golden preset, wigner-oracle and verify, each in a fresh CLI process."""

    name = "cli-presets"
    in_process = False

    def inputs(self, seed: int, pass_index: int) -> dict:
        rng = _rng(seed, pass_index)
        order = [int(i) for i in rng.permutation(len(CLI_COMMANDS))]
        drawn = [int(s) for s in rng.integers(0, 2**31 - 1, size=len(CLI_COMMANDS))]
        runs = []
        for i in order:
            cmd = CLI_COMMANDS[i]
            argv = [cmd.kind]
            if cmd.preset is not None:
                argv += ["--config", str(CONFIGS / f"{cmd.preset}.cfg")]
            if seed != 0 and cmd.kind in ("noise-study", "verify"):
                argv += ["--seed", str(drawn[i])]
            runs.append({"command": i, "argv": argv})
        return {"runs": runs}

    def items(self, inputs: dict) -> int:
        return len(inputs["runs"])

    def setup(self, seed: int, out_dir: Path) -> dict:
        """Harness set-up: output directory, goldens, and the child's import path."""
        out_dir.mkdir(parents=True, exist_ok=True)
        goldens = {
            cmd.artifact: load_golden(cmd.artifact)
            for cmd in CLI_COMMANDS
            if cmd.artifact and cmd.artifact.endswith(".json")
        }
        noise_seeds = {
            cmd.preset: _preset_value(cmd.preset, "noise_seed")
            for cmd in CLI_COMMANDS
            if cmd.kind == "noise-study"
        }
        probe = subprocess.run(
            [sys.executable, "-c",
             "import importlib.util; print(importlib.util.find_spec('catscan').origin)"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        )
        origin = Path(probe.stdout.strip()).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"CLI children would import catscan from {origin}, not {SRC}")
        return {"out": out_dir, "goldens": goldens, "noise_seeds": noise_seeds}

    def run_pass(self, ctx: dict, inputs: dict, cli_in_process: bool) -> list[Op]:
        runner = _cli_in_process if cli_in_process else _cli_subprocess
        return [
            _timed(CLI_COMMANDS[run["command"]].kind,
                   functools.partial(runner, run["argv"] + ["--out", str(ctx["out"])]))
            for run in inputs["runs"]
        ]

    def check(self, ctx: dict, inputs: dict, ops: list[Op]) -> None:
        for run, op in zip(inputs["runs"], ops):
            _record(op, functools.partial(self._check_run, ctx, run, op.output))
        for artifact in ctx["out"].iterdir():
            artifact.unlink()

    def _check_run(self, ctx: dict, run: dict, output: tuple) -> list[str]:
        code, stdout, stderr = output
        cmd = CLI_COMMANDS[run["command"]]
        if code != 0:
            return [f"{cmd.kind} exited {code}: {stderr.strip()[-300:]}"]
        if "Traceback (most recent call last)" in stderr:
            return [f"{cmd.kind} printed a traceback"]
        if cmd.kind == "verify":
            total = len([line for line in stdout.splitlines() if line.startswith("[")])
            if total < 4 or f"{total}/{total} checks passed" not in stdout:
                return [f"verify did not pass all checks: {stdout.strip()[-200:]}"]
            return []
        path = ctx["out"] / cmd.artifact
        if not path.is_file():
            return [f"{cmd.kind} wrote no {cmd.artifact}"]
        if cmd.kind == "wigner-oracle":
            return check_oracle_csv(path, _preset(cmd.preset).cat)
        got = load_report(path.read_text())
        golden = ctx["goldens"][cmd.artifact]
        if cmd.kind == "reconstruct":
            return check_report(got, golden)
        committed = "--seed" not in run["argv"]
        if committed and got.get("seed") != ctx["noise_seeds"][cmd.preset]:
            return [f"seed {got.get('seed')!r} is not the committed seed"]
        return check_noise_report(got, golden, golden["config"]["runs"], committed)


def _preset_value(preset: str, key: str) -> int:
    """An integer key of a preset, read without importing catscan."""
    for line in (CONFIGS / f"{preset}.cfg").read_text().splitlines():
        name, _, value = line.split("#", 1)[0].partition("=")
        if name.strip() == key:
            return int(value)
    raise KeyError(f"{preset}.cfg sets no {key}")


def _cli_subprocess(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "catscan.cli", *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    from catscan import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_oracle_csv(path: Path, spec) -> list[str]:
    """The oracle CSV is a complete square grid of the closed-form W (phys).

    Its values match the closed form at every node, stay within |W| <= 2/pi,
    and integrate to 1 over the grid.
    """
    with open(path) as fh:
        head = [fh.readline().strip(), fh.readline().strip()]
    if head != ["# convention: phys", "re,im,w"]:
        return [f"unexpected CSV header {head!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    if data.shape[1] != 3 or not np.all(np.isfinite(data)):
        return ["CSV rows are not three finite numbers"]
    re_axis = np.unique(data[:, 0])
    im_axis = np.unique(data[:, 1])
    complete = np.unique(data[:, :2], axis=0).shape[0] == data.shape[0]
    if not complete or data.shape[0] != re_axis.size * im_axis.size or re_axis.size < 3:
        return [f"CSV is not a complete grid ({data.shape[0]} rows)"]
    w = data[:, 2]
    problems = check_grid(w, _closed_form(spec, data[:, 0] + 1j * data[:, 1]), GOLDEN_ABS)
    if np.max(np.abs(w)) > 2.0 / math.pi + GOLDEN_ABS:
        problems.append("|W| exceeds 2/pi")
    area = float(np.sum(w)) * (re_axis[1] - re_axis[0]) * (im_axis[1] - im_axis[0])
    if abs(area - 1.0) > 1e-6:
        problems.append(f"W integrates to {area:.9f}, not 1")
    return problems


# --------------------------------------------------------------------------
# in-process workloads


class WignerMap:
    """theta90 table, back projection onto a 41x41 grid over [-3, 3]^2."""

    name = "wigner-map"
    in_process = True
    size = 41

    def inputs(self, seed: int, pass_index: int) -> dict:
        du, dv = _rng(seed, pass_index).uniform(-0.5, 0.5, size=2)
        return {
            "re_axis": _offset_axis(-3.0, 3.0, self.size, float(du)),
            "im_axis": _offset_axis(-3.0, 3.0, self.size, float(dv)),
        }

    def items(self, inputs: dict) -> int:
        return len(inputs["re_axis"]) * len(inputs["im_axis"])

    def setup(self, seed: int, out_dir: Path) -> dict:
        from catscan import circuit, quadrature, tomography

        cfg = _preset("theta90")
        state = circuit.make_cat(cfg.cat, cfg.n_max)
        table = tomography.extend_phases(
            quadrature.build_table(state, cfg.phases(), cfg.x_grid())
        )
        return {"cfg": cfg, "table": table}

    def run_pass(self, ctx: dict, inputs: dict, cli_in_process: bool) -> list[Op]:
        from catscan import tomography

        return [_timed("reconstruct", lambda: tomography.reconstruct(
            ctx["table"], inputs["re_axis"], inputs["im_axis"], ctx["cfg"].recon
        ))]

    def check(self, ctx: dict, inputs: dict, ops: list[Op]) -> None:
        alpha = np.add.outer(inputs["re_axis"], 1j * np.asarray(inputs["im_axis"]))
        ref = _closed_form(ctx["cfg"].cat, alpha)
        for op in ops:
            _record(op, lambda op=op: check_grid(op.output.values, ref, WIGNER_MAP_TOL))


class NoiseSweep:
    """Three Monte Carlo studies on theta90: each reconstructs one point per table."""

    name = "noise-sweep"
    in_process = True
    # (preset, keep the preset's probe); the third study searches for the minimum.
    studies = (("noise25", True), ("noise50", True), ("noise25", False))

    def inputs(self, seed: int, pass_index: int) -> dict:
        drawn = _rng(seed, pass_index).integers(0, 2**31 - 1, size=len(self.studies))
        return {"noise_seeds": [None if seed == 0 else int(s) for s in drawn]}

    def items(self, inputs: dict) -> int:
        return sum(_preset_value(preset, "noise_runs") for preset, _ in self.studies)

    def setup(self, seed: int, out_dir: Path) -> dict:
        presets = {name: _preset(name) for name in ("noise25", "noise50")}
        goldens = {name: load_golden(f"{name}_noise.json") for name in presets}
        goldens["theta90"] = load_golden("theta90_minimum.json")
        return {"presets": presets, "goldens": goldens}

    def run_pass(self, ctx: dict, inputs: dict, cli_in_process: bool) -> list[Op]:
        from catscan import experiment

        ops = []
        for (preset, with_probe), noise_seed in zip(self.studies, inputs["noise_seeds"]):
            cfg = ctx["presets"][preset]
            noise = cfg.noise
            if noise_seed is not None:
                noise = experiment.NoiseSpec(noise.magnitude, noise.runs, noise_seed, noise.model)
            study = functools.partial(
                experiment.monte_carlo_study, cfg.cat, noise, recon_config=cfg.recon,
                probe_point=cfg.probe if with_probe else None, convention="paper",
                n_max=cfg.n_max, phases=cfg.phases(), x_grid=cfg.x_grid(),
            )
            ops.append(_timed("monte_carlo_study", study))
        return ops

    def check(self, ctx: dict, inputs: dict, ops: list[Op]) -> None:
        for study, noise_seed, op in zip(self.studies, inputs["noise_seeds"], ops):
            _record(op, functools.partial(self._check_study, ctx, study, noise_seed, op.output))

    def _check_study(self, ctx: dict, study, noise_seed, report) -> list[str]:
        preset, with_probe = study
        got = load_report(report.to_json())
        runs = ctx["presets"][preset].noise.runs
        if with_probe:
            return check_noise_report(got, ctx["goldens"][preset], runs, noise_seed is None)
        want = ctx["goldens"]["theta90"]
        problems = check_unbiased(got, runs)
        if abs(got["location"][0] - want["location"][0]) > NO_PROBE_LOC_TOL:
            problems.append(f"minimum at {got['location']!r}, golden {want['location']!r}")
        if not _close(got["value"], want["value"], rel=NO_PROBE_VALUE_REL):
            problems.append(f"value {got['value']!r} != golden {want['value']!r}")
        return problems


WORKLOADS = {w.name: w for w in (CliPresets(), WignerMap(), NoiseSweep())}
