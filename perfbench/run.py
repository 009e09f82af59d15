"""catscan benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a catscan checkout.  With ``--trace 0`` it sets up the
workload, runs timed passes until they add up to S seconds, checks every
output, and prints the end-to-end metrics.  With ``--trace 1`` it runs a warm-up pass, an
untraced pass and a traced pass of the same inputs in this process (the CLI
through ``catscan.cli.main``), wrapping the package's public functions from
outside, and prints the per-layer metrics together with the tracing overhead.  The last line of standard output is the result
JSON; the line before it records the environment.  Full records and spans go
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import TARGETS, per_layer_metrics
from tracing import Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_MIN_SAMPLES = 3
SETUP_MIN_SECONDS = 2.0
IMPORT_SAMPLES = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def probe(args: list[str]) -> float:
    """Seconds a fresh interpreter reports for a cold start (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"probe {args} failed:\n{proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if SRC.resolve() not in Path(record["origin"]).resolve().parents:
        fail(f"probe imported catscan from {record['origin']}, not {SRC}")
    return record["seconds"]


def setup_samples(workload, seed: int, out_dir: Path) -> list[float]:
    """Set-up times, at least SETUP_MIN_SAMPLES of them over SETUP_MIN_SECONDS.

    In-process workloads pay the import, so each of their samples is a cold
    start in a fresh interpreter.
    """
    samples: list[float] = []
    while len(samples) < SETUP_MIN_SAMPLES or sum(samples) < SETUP_MIN_SECONDS:
        if workload.in_process:
            samples.append(probe(["setup", workload.name, str(seed)]))
            continue
        shutil.rmtree(out_dir, ignore_errors=True)
        start = time.perf_counter()
        workload.setup(seed, out_dir)
        samples.append(time.perf_counter() - start)
    return samples


def run_pass(workload, ctx, seed: int, index: int, cli_in_process: bool, tracer=None) -> dict:
    """One timed pass, traced when a tracer is given, then its checks."""
    inputs = workload.inputs(seed, index)
    with instrument(tracer, TARGETS) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        ops = workload.run_pass(ctx, inputs, cli_in_process)
        wall = time.perf_counter() - start
    workload.check(ctx, inputs, ops)
    return {"wall_s": wall, "items": workload.items(inputs), "ops": ops}


def untraced(workload, seed: int, seconds: float, out_dir: Path):
    setups = setup_samples(workload, seed, out_dir / "artifacts")
    ctx = workload.setup(seed, out_dir / "artifacts")
    passes = []
    while sum(p["wall_s"] for p in passes) < seconds:
        passes.append(run_pass(workload, ctx, seed, len(passes), cli_in_process=False))
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    op_seconds = [op.seconds for p in passes for op in p["ops"]]
    # For cli-presets this is the median CLI run, subprocess start and import included.
    detail = {"setup_samples": setups, "pass_walls": walls, "op_s_p50": statistics.median(op_seconds)}
    return metrics, passes, detail


def traced(workload, seed: int, out_dir: Path):
    imports = [probe(["import"]) for _ in range(IMPORT_SAMPLES)]
    ctx = workload.setup(seed, out_dir / "artifacts")
    # The first pass in a process pays lazy imports and first-touch memory.
    warm = run_pass(workload, ctx, seed, 0, cli_in_process=True)
    plain = run_pass(workload, ctx, seed, 0, cli_in_process=True)
    tracer = Tracer()
    timed = run_pass(workload, ctx, seed, 0, cli_in_process=True, tracer=tracer)
    tracer.write_jsonl(out_dir / "spans.jsonl")
    metrics = {
        "cli.import_s": statistics.median(imports),
        **per_layer_metrics(tracer),
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.wall_s": timed["wall_s"],
        "trace.overhead_s": timed["wall_s"] - plain["wall_s"],
    }
    detail = {"import_samples": imports, "warm_up_wall_s": warm["wall_s"], "spans": len(tracer.spans)}
    return metrics, [warm, plain, timed], detail


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": git_commit(),
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py"))
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "catscan" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"{ROOT} is not a catscan checkout (no src/catscan or configs)")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    if args.trace:
        measured, passes, detail = traced(workload, args.seed, out_dir)
    else:
        measured, passes, detail = untraced(workload, args.seed, args.seconds, out_dir)
    ops = [op for p in passes for op in p["ops"]]
    failures = [op for op in ops if op.error or op.problems]
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env = environment()
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": env, "detail": detail, "result": result,
        "failures": [{"op": op.name, "error": op.error, "problems": op.problems}
                     for op in failures],
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    for op in failures:
        print(f"FAILED {op.name}: {op.error or '; '.join(op.problems)}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
