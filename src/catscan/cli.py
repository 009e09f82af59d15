"""Command-line front end: named, config-driven experiments emitting CSV/JSON."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .circuit import (
    BellState, CatSpec, _herald, bell_state, diagonal_basis_amplitudes, make_cat, make_ghz,
)
from .errors import CatscanError, InvalidArgument, RegionError, TruncationError
from .experiment import ExperimentConfig, NoiseSpec, _clean_scan, _uniform_draws, monte_carlo_study
from .fock import mean_photon_number, vacuum
from .quadrature import _check_slice_areas, build_table, default_phases, default_x_grid
from .tomography import (
    ReconstructionConfig,
    extend_phases,
    reconstruct_at,
    reconstruct_closed_form,
)
from .wigner import (
    CONVENTIONS,
    PAPER_SCALE,
    calibrate_display_scale,
    cat_wigner_terms,
    evaluate_grid,
    wigner_displaced_parity,
    wigner_superposition,
)

EXIT_CONFIG = 2
EXIT_TRUNCATION = 3
EXIT_REGION = 5
EXIT_OTHER = 6

_SCHEMA = {
    "r": float,
    "theta": float,
    "sign": str,
    "n_max": int,
    "phase_count": int,
    "x_max": float,
    "x_step": float,
    "cutoff_kc": float,
    "noise_magnitude": float,
    "noise_runs": int,
    "noise_seed": int,
    "probe_re": float,
    "probe_im": float,
    "search_re_min": float,
    "search_re_max": float,
    "search_im_min": float,
    "search_im_max": float,
    "wigner_range": float,
    "wigner_step": float,
    "out_prefix": str,
}


def parse_config(path) -> ExperimentConfig:
    """Parse a key = value config file (one pair per line, # comments); every key
    left out takes ExperimentConfig's default."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidArgument(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidArgument(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise InvalidArgument(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise InvalidArgument(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    vals: dict = {}
    for key, value in raw.items():
        caster = _SCHEMA[key]
        try:
            vals[key] = caster(value)
        except ValueError as exc:
            raise InvalidArgument(f"{path}: key {key!r}: {exc}") from exc
        if caster is float and not math.isfinite(vals[key]):
            raise InvalidArgument(f"{path}: key {key!r}: value must be finite, got {value!r}")
    if "r" not in vals or "theta" not in vals:
        raise InvalidArgument(f"{path}: config must set r and theta")
    cat = CatSpec(vals["r"], vals["theta"], vals.get("sign", "plus"))
    if "noise_magnitude" not in vals and ("noise_runs" in vals or "noise_seed" in vals):
        raise InvalidArgument(f"{path}: noise_runs and noise_seed need noise_magnitude")
    noise = probe = None
    if "noise_magnitude" in vals:
        noise = NoiseSpec(
            magnitude=vals["noise_magnitude"],
            runs=vals.get("noise_runs", 50),
            seed=vals.get("noise_seed", 0),
        )
    if "probe_re" in vals or "probe_im" in vals:
        probe = (vals.get("probe_re", 0.0), vals.get("probe_im", 0.0))
    return ExperimentConfig(
        cat,
        recon=ReconstructionConfig(vals["cutoff_kc"]) if "cutoff_kc" in vals else None,
        noise=noise,
        probe=probe,
        search_region=tuple(
            (vals.get(f"search_{axis}_min"), vals.get(f"search_{axis}_max")) for axis in ("re", "im")
        ),
        **{key: value for key, value in vals.items() if key in ExperimentConfig.__dataclass_fields__},
    )


def _out_path(args, suffix: str) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / f"{args.config_data.out_prefix}{suffix}"


def _cmd_cat_state(args) -> int:
    cfg = args.config_data
    state, herald_probability = _herald(cfg.cat, cfg.n_max)
    print(f"r = {cfg.cat.r:.12g}")
    print(f"theta = {cfg.cat.theta:.12g}")
    print(f"sign = {cfg.cat.sign}")
    print(f"norm = {state.norm():.15g}")
    print(f"mean_photon = {mean_photon_number(state):.15g}")
    print(f"herald_probability = {herald_probability:.15g}")
    print("n,re,im")
    for n, amp in enumerate(state.amplitudes):
        print(f"{n},{float(amp.real)!r},{float(amp.imag)!r}")
    return 0


def _cmd_ghz(args) -> int:
    which = BellState.from_label(args.bell_input)
    ghz = make_ghz(which)
    print(f"input = {which.value}")
    print("three-photon state (H/V basis):")
    for label in ghz.basis_labels():
        amp = ghz.amplitude(label)
        if abs(amp) > 1e-12:
            print(f"  |{label}> : {amp.real:+.6f}{amp.imag:+.6f}j")
    diag = diagonal_basis_amplitudes(ghz, 2)
    print("photon 3 in the 45/135 basis (third slot: H=45, V=135):")
    ok = True
    for label in diag.basis_labels():
        amp = diag.amplitude(label)
        if abs(amp) > 1e-12:
            shown = label[:2] + ("45" if label[2] == "H" else "135")
            print(f"  |{shown}> : {amp.real:+.6f}{amp.imag:+.6f}j")
            # perfect correlation: photons 1 and 2 always share a polarization
            if label[:2] not in ("HH", "VV"):
                ok = False
    pair = bell_state(which)
    print(f"input pair |{which.value}> norm = {pair.norm():.12g}")
    print(f"correlation check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else EXIT_OTHER


def _config_table(cfg: ExperimentConfig):
    """The config's cat measured on its phases and x grid, each slice kept on the grid."""
    table = build_table(make_cat(cfg.cat, cfg.n_max), cfg.phases(), cfg.x_grid())
    return _check_slice_areas(table)


def _cmd_quadrature(args) -> int:
    cfg = args.config_data
    table = _config_table(cfg)
    path = _out_path(args, "_quadrature.csv")
    table.to_csv(path)
    print(f"wrote {path} ({table.phases.size} phases x {table.x_grid.size} points)")
    return 0


def _cmd_wigner_oracle(args) -> int:
    cfg = args.config_data
    axis = cfg._wigner_axis()
    grid = evaluate_grid(cat_wigner_terms(cfg.cat), axis, axis, args.convention)
    path = _out_path(args, "_wigner.csv")
    grid.to_csv(path)
    print(f"wrote {path} ({axis.size} x {axis.size}, convention {grid.convention})")
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = args.config_data
    table = _config_table(cfg)
    report = _clean_scan(table, cfg.recon, cfg.search_region, convention=args.convention)
    path = _out_path(args, "_minimum.json")
    report.to_json(path)
    print(f"wrote {path}")
    print(
        f"minimum at ({report.location[0]:.4f}, {report.location[1]:.4f}): "
        f"{report.value:.6f} ({report.convention})"
    )
    return 0


def _cmd_noise_study(args) -> int:
    cfg = args.config_data
    if cfg.noise is None:
        raise InvalidArgument("noise-study requires noise_magnitude in the config")
    noise = cfg.noise if args.seed is None else replace(cfg.noise, seed=args.seed)
    report = monte_carlo_study(
        cfg.cat,
        noise,
        recon_config=cfg.recon,
        probe_point=cfg.probe,
        convention=args.convention,
        n_max=cfg.n_max,
        phases=cfg.phases(),
        x_grid=cfg.x_grid(),
        search_region=cfg.search_region,
    )
    path = _out_path(args, "_noise.json")
    report.to_json(path)
    print(f"wrote {path}")
    print(
        f"clean {report.value:.6f}, mean {report.mean:.6f}, "
        f"stddev {report.stddev:.6f} ({report.convention}, {noise.runs} runs)"
    )
    return 0


def _cmd_verify(args) -> int:
    checks: list[tuple[str, bool, str]] = []
    seed = 20250814 if args.seed is None else args.seed
    if seed < 0:
        raise InvalidArgument(f"seed must be a non-negative integer, got {seed}")
    # check points uniform on [-2.5, 2.5], from the noise study's seeded draws
    alpha_re, alpha_im, u, v = -2.5 + 5.0 * _uniform_draws(seed, range(4), 20)

    experiment = ExperimentConfig(CatSpec(math.sqrt(5.0), 1.11))
    terms = cat_wigner_terms(experiment.cat)
    state = make_cat(experiment.cat, experiment.n_max)
    alphas = alpha_re + 1j * alpha_im
    closed = wigner_superposition(terms, alphas)
    worst = max(abs(w - wigner_displaced_parity(state, a)) for w, a in zip(closed, alphas))
    checks.append(("closed form vs displaced parity (20 pts)", worst < 1e-6, f"max diff {worst:.2e}"))

    table = extend_phases(build_table(state, experiment.phases(), experiment.x_grid()))
    recon = experiment.recon
    engine = reconstruct_at(table, u, v, recon)
    worst = float(np.max(np.abs(engine - reconstruct_closed_form(terms, table.phases, u, v, recon))))
    checks.append(("reconstruction vs same-phase closed form (20 pts)", worst < 1e-6, f"max diff {worst:.2e}"))

    table = extend_phases(build_table(vacuum(20), default_phases(), default_x_grid(0.0)))
    peak = reconstruct_at(table, 0.0, 0.0, ReconstructionConfig(cutoff_kc=8.0))
    dev = abs(peak / (2.0 / math.pi) - 1.0)
    checks.append(("vacuum reconstruction peak vs 2/pi", dev < 0.01, f"rel dev {dev:.2e}"))

    cal = calibrate_display_scale()
    worst = max(abs(f / PAPER_SCALE - 1.0) for f in cal["factors"].values())
    detail = (
        f"fitted {cal['fitted']:.5f} ({cal['deviation_from_2pi']:+.3%} vs 2 pi), "
        f"worst anchor {worst:.3%}"
    )
    checks.append(("display-scale factor consistent with 2 pi", worst < 0.02, detail))

    failed = 0
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else EXIT_OTHER


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line instead of the usage block."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: usage: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catscan",
        description="Conditional cat-state generation, homodyne tomography, noise studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if needs_config:
            p.add_argument("--config", required=True, help="key = value config file")
        # cat-state and ghz print their results; verify writes nothing either,
        # but it takes --out because perfbench passes it to every command
        if name not in ("cat-state", "ghz"):
            p.add_argument("--out", default=".", help="output directory (default: cwd)")
        return p

    def add_convention(p, default):
        p.add_argument(
            "--convention",
            choices=CONVENTIONS,
            default=default,
            help=f"Wigner normalization for emitted values (default: {default})",
        )

    add("cat-state", _cmd_cat_state, "print cat Fock amplitudes, norm, mean photon number")
    ghz = add("ghz", _cmd_ghz, "print the three-photon state and correlation checks", needs_config=False)
    ghz.add_argument("bell_input", help="phi-plus | phi-minus | psi-plus | psi-minus")
    add("quadrature", _cmd_quadrature, "emit the quadrature distribution CSV")
    add_convention(add("wigner-oracle", _cmd_wigner_oracle, "emit a dense closed-form Wigner CSV"), "phys")
    add_convention(add("reconstruct", _cmd_reconstruct, "clean tomography plus minimum JSON"), "paper")
    p_noise = add("noise-study", _cmd_noise_study, "Monte Carlo noise JSON")
    p_noise.add_argument("--seed", type=int, default=None, help="override the config's noise_seed")
    add_convention(p_noise, "paper")
    p_verify = add("verify", _cmd_verify, "run oracle cross-checks and the scale calibration", needs_config=False)
    p_verify.add_argument("--seed", type=int, default=None, help="seed of the random check points")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "config"):
            args.config_data = parse_config(args.config)
        return args.func(args)
    except InvalidArgument as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationError as exc:
        print(f"error: truncation: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except RegionError as exc:
        print(f"error: search region: {exc}", file=sys.stderr)
        return EXIT_REGION
    except CatscanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER
    except OSError as exc:  # the output path: parse_config reports an unreadable config
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
