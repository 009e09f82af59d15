"""Which catscan functions the traced run wraps, and the per-layer metrics.

Metric names are ``<module>.<function>.<stat>``.  ``calls``, ``busy_s`` and
``self_s`` come from spans; the other stats come from hooks that read each
call's arguments and result at the same boundary.  ``tomography.kernel_evals``
and ``tomography.kernel_bytes`` are computed from the inputs of
``reconstruct_at`` (points x slices x fine x-nodes, 8 bytes per kernel
value), not measured.
"""

from __future__ import annotations

import hashlib
import inspect
import os

import numpy as np

from tracing import Tracer, layer_stats


class Hook:
    """Reads (and may rewrite) a call's arguments before it and its result after."""

    def before(self, tracer: Tracer, bound: inspect.BoundArguments) -> None:
        pass

    def after(self, tracer: Tracer, bound: inspect.BoundArguments, result) -> None:
        pass


class ReconstructAt(Hook):
    def after(self, tracer, bound, result):
        table, config = bound.arguments["table"], bound.arguments["config"]
        points = int(np.size(bound.arguments["re_pts"]))
        n_x = table.x_grid.size
        fine = 2 * (n_x - 1) + 1 if config.fit_model == "cubic_spline" else n_x
        evals = points * table.phases.size * fine
        tracer.counts["tomography.reconstruct_at.points"] += points
        tracer.counts["tomography.kernel_evals"] += evals
        tracer.counts["tomography.kernel_bytes"] += 8 * evals


class FindMinimum(Hook):
    def before(self, tracer, bound):
        target = bound.arguments["target"]
        if not callable(target):
            return

        def counted(u, v):
            tracer.counts["experiment.find_minimum.target_points"] += int(np.size(u))
            return target(u, v)

        bound.arguments["target"] = counted


class BuildTable(Hook):
    def after(self, tracer, bound, result):
        digest = hashlib.sha1()
        for name in ("state", "phases", "x_grid"):
            value = bound.arguments.get(name)
            value = getattr(value, "amplitudes", value)
            digest.update(b"-" if value is None else np.ascontiguousarray(value).tobytes())
        tracer.seen["quadrature.build_table"].add(digest.hexdigest())


class WrittenBytes(Hook):
    def __init__(self, name: str):
        self.name = name

    def after(self, tracer, bound, result):
        path = bound.arguments.get("path")
        size = os.path.getsize(path) if path is not None else len(result.encode())
        tracer.counts[self.name] += size


class DisplacementDim(Hook):
    """The working dimension ``displace`` picks shows only in this private call."""

    def before(self, tracer, bound):
        tracer.counts["fock.displace.work_dim_sum"] += bound.arguments["dim"]


# (module, attribute, span name, hook)
TARGETS = (
    ("catscan.cli", "main", "cli.main", None),
    ("catscan.circuit", "make_cat", "circuit.make_cat", None),
    ("catscan.quadrature", "build_table", "quadrature.build_table", BuildTable()),
    ("catscan.tomography", "extend_phases", "tomography.extend_phases", None),
    ("catscan.tomography", "fit_slices", "tomography.fit_slices", None),
    ("catscan.tomography", "reconstruct_at", "tomography.reconstruct_at", ReconstructAt()),
    ("catscan.tomography", "reconstruct", "tomography.reconstruct", None),
    ("catscan.experiment", "find_minimum", "experiment.find_minimum", FindMinimum()),
    ("catscan.experiment", "perturb", "experiment.perturb", None),
    ("catscan.experiment", "monte_carlo_study", "experiment.monte_carlo_study", None),
    ("catscan.wigner", "evaluate_grid", "wigner.evaluate_grid", None),
    ("catscan.wigner", "wigner_superposition", "wigner.wigner_superposition", None),
    ("catscan.wigner", "wigner_displaced_parity", "wigner.wigner_displaced_parity", None),
    ("catscan.fock", "displace", "fock.displace", None),
    ("catscan.fock", "_displacement_matrix", "fock._displacement_matrix", DisplacementDim()),
    ("catscan.wigner", "WignerGrid.to_csv", "wigner.WignerGrid.to_csv",
     WrittenBytes("wigner.WignerGrid.to_csv.bytes")),
    ("catscan.experiment", "MinimumReport.to_json", "experiment.MinimumReport.to_json",
     WrittenBytes("experiment.MinimumReport.to_json.bytes")),
)

# span name -> span stats reported for it
SPAN_STATS = {
    "cli.main": ("calls", "busy_s", "self_s"),
    "circuit.make_cat": ("calls", "busy_s"),
    "quadrature.build_table": ("calls", "busy_s"),
    "tomography.extend_phases": ("calls", "busy_s"),
    "tomography.fit_slices": ("calls", "busy_s"),
    "tomography.reconstruct_at": ("calls", "busy_s", "self_s"),
    "tomography.reconstruct": ("calls", "busy_s"),
    "experiment.find_minimum": ("calls", "busy_s", "self_s"),
    "experiment.perturb": ("calls", "busy_s", "self_s"),
    "experiment.monte_carlo_study": ("calls", "busy_s", "self_s"),
    "wigner.evaluate_grid": ("calls", "busy_s", "self_s"),
    "wigner.wigner_superposition": ("calls", "busy_s"),
    "wigner.wigner_displaced_parity": ("calls", "busy_s"),
    "fock.displace": ("calls", "busy_s"),
    "wigner.WignerGrid.to_csv": ("busy_s",),
    "experiment.MinimumReport.to_json": ("busy_s",),
}

COUNTERS = (
    "tomography.reconstruct_at.points",
    "tomography.kernel_evals",
    "tomography.kernel_bytes",
    "experiment.find_minimum.target_points",
    "wigner.WignerGrid.to_csv.bytes",
    "experiment.MinimumReport.to_json.bytes",
)


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except cli.import_s and the trace.* overhead rows."""
    stats = layer_stats(tracer.spans)
    out: dict[str, float] = {}
    for name, wanted in SPAN_STATS.items():
        row = stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat in wanted:
            out[f"{name}.{stat}"] = row[stat]
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    tables = stats.get("quadrature.build_table", {"calls": 0})["calls"]
    distinct = len(tracer.seen.get("quadrature.build_table", ()))
    out["quadrature.build_table.unique_ratio"] = distinct / tables if tables else 0.0
    displaces = stats.get("fock.displace", {"calls": 0})["calls"]
    dims = tracer.counts.get("fock.displace.work_dim_sum", 0)
    out["fock.displace.work_dim"] = dims / displaces if displaces else 0.0
    return out

