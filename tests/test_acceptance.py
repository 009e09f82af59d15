"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the ledger lines.
All comparisons are against closed-form oracles or published reference
values; tolerances are stated inline next to each check.
"""

import math

import numpy as np
import pytest

from catscan import (
    BellState,
    CatSpec,
    NoiseSpec,
    PAPER_SCALE,
    REFERENCE_MINIMA,
    ReconstructionConfig,
    bell_state,
    build_table,
    calibrate_display_scale,
    cat_wigner_terms,
    conditional_project,
    default_phases,
    default_x_grid,
    diagonal_basis_amplitudes,
    entangle_kerr,
    extend_phases,
    find_minimum,
    make_cat,
    make_ghz,
    monte_carlo_study,
    perturb,
    published_branch_weight,
    quadrature_distribution,
    reconstruct_at,
    reconstruct_closed_form,
    wigner_displaced_parity,
    wigner_superposition,
)

SQRT5 = math.sqrt(5.0)
SQRT10 = math.sqrt(10.0)
SEED = 20250814

# published reference summaries for the 25% noise Monte Carlo studies
REFERENCE_MEAN_90, REFERENCE_STD_90 = -3.08, 0.29
REFERENCE_MEAN_63, REFERENCE_STD_63 = -3.83, 0.48


def _report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _oracle_target(spec: CatSpec):
    terms = cat_wigner_terms(spec)

    def target(u, v):
        return wigner_superposition(terms, u + 1j * v)

    return target


def _recon_target(spec: CatSpec, n_max: int, phase_count: int = 11):
    state = make_cat(spec, n_max)
    table = extend_phases(
        build_table(state, default_phases(phase_count), default_x_grid(spec.mean_photon))
    )
    config = ReconstructionConfig.for_mean_photon(spec.mean_photon)

    def target(u, v):
        return reconstruct_at(table, u, v, config)

    return target, table, config


def test_criterion_1_cat_minima_oracle():
    cal = calibrate_display_scale()
    scale_devs = {
        label: abs(f / PAPER_SCALE - 1.0) for label, f in cal["factors"].items()
    }
    ok = all(dev < 0.02 for dev in scale_devs.values())
    details = [f"scale factors within {max(scale_devs.values()):.2%} of 2*pi"]

    for ref in REFERENCE_MINIMA:
        weight = published_branch_weight(ref.spec)
        if ref.kind == "absolute":
            report = find_minimum(
                _oracle_target(ref.spec), ((0.02, 2.0 * ref.spec.r), (0.0, 0.0))
            )
            loc_dev = abs(report.location[0] - ref.location[0])
            val_dev = abs(PAPER_SCALE * weight * report.value / ref.value - 1.0)
            ok = ok and loc_dev < 5e-4 and val_dev < 0.01
            details.append(f"{ref.label} loc {loc_dev:.1e} val {val_dev:.2%}")
        else:
            # the published local pair is internally inconsistent with the
            # other three anchors (no cat matches all four simultaneously);
            # its value is checked against the fitted common scale factor;
            # the search is the window of 0.12 around the published location
            u0 = ref.location[0]
            report = find_minimum(_oracle_target(ref.spec), ((u0 - 0.12, u0 + 0.12), (0.0, 0.0)))
            val_dev = abs(cal["fitted"] * weight * report.value / ref.value - 1.0)
            ok = ok and val_dev < 0.01
            details.append(
                f"{ref.label} val {val_dev:.2%} (found at u={report.location[0]:.4f})"
            )
    _report("1 (cat minima vs published values)", ok, "; ".join(details))


def test_criterion_2_tomographic_accuracy_clean():
    details = []
    ok = True
    for spec, region in (
        (CatSpec(SQRT5, math.pi / 2), ((0.05, 0.85), (0.0, 0.0))),
        (CatSpec(SQRT5, 1.11), ((0.4, 1.4), (0.0, 0.0))),
    ):
        oracle = find_minimum(_oracle_target(spec), region)
        recon_target, _, _ = _recon_target(spec, 50)
        recon = find_minimum(recon_target, region)
        dev = abs(recon.value / oracle.value - 1.0)
        ok = ok and dev < 0.03
        details.append(f"theta={spec.theta:.2f}: |rec/oracle - 1| = {dev:.2%}")
    _report("2 (clean reconstruction within 3%)", ok, "; ".join(details))


def test_criterion_3_noise_studies():
    spec90 = CatSpec(SQRT5, math.pi / 2)
    spec63 = CatSpec(SQRT5, 1.11)
    mc90_25 = monte_carlo_study(
        spec90, NoiseSpec(0.25, 50, SEED), probe_point=(0.3346, 0.0)
    )
    mc63_25 = monte_carlo_study(
        spec63, NoiseSpec(0.25, 50, SEED), probe_point=(0.8954, 0.0)
    )
    mc90_50 = monte_carlo_study(
        spec90, NoiseSpec(0.50, 50, SEED), probe_point=(0.3346, 0.0)
    )
    band90 = 2.0 * math.hypot(mc90_25.stddev, REFERENCE_STD_90)
    band63 = 2.0 * math.hypot(mc63_25.stddev, REFERENCE_STD_63)
    dev90 = abs(mc90_25.mean - REFERENCE_MEAN_90)
    dev63 = abs(mc63_25.mean - REFERENCE_MEAN_63)
    ratio = mc90_50.stddev / mc90_25.stddev
    ok = dev90 < band90 and dev63 < band63 and 1.4 <= ratio <= 2.8
    _report(
        "3 (noise studies)",
        ok,
        f"25% means {mc90_25.mean:.3f}/{mc63_25.mean:.3f} vs {REFERENCE_MEAN_90}/"
        f"{REFERENCE_MEAN_63} (bands {band90:.3f}/{band63:.3f}); "
        f"50%/25% stddev ratio {ratio:.2f} in [1.4, 2.8]",
    )


def test_criterion_4_negativity_survives_noise():
    spec = CatSpec(SQRT5, math.pi / 2)
    state = make_cat(spec, 50)
    table = build_table(state, default_phases(), default_x_grid(spec.mean_photon))
    config = ReconstructionConfig.for_mean_photon(spec.mean_photon)
    noise = NoiseSpec(0.50, 200, SEED)
    negatives = 0
    for run in range(noise.runs):
        noisy = extend_phases(perturb(table, noise, run))
        value = reconstruct_at(noisy, 0.3346, 0.0, config)
        if value < 0.0:
            negatives += 1
    fraction = negatives / noise.runs
    _report(
        "4 (negativity at 50% noise)",
        fraction >= 0.95,
        f"minimum negative in {negatives}/{noise.runs} runs ({fraction:.1%})",
    )


def test_criterion_5_nbar_10():
    spec = CatSpec(SQRT10, math.pi / 2)
    region = ((0.05, 0.7), (0.0, 0.0))
    oracle = find_minimum(_oracle_target(spec), region)
    # frozen oracle anchor for r = sqrt(10): minimum near (0.24232, -0.56443)
    loc_dev = abs(oracle.location[0] - 0.24231856)
    val_dev = abs(oracle.value / -0.56442565 - 1.0)
    recon_target, table, _ = _recon_target(spec, 60)
    recon = find_minimum(recon_target, region)
    rec_dev = abs(recon.value / oracle.value - 1.0)
    ok = loc_dev < 5e-4 and val_dev < 0.01 and rec_dev < 0.03
    assert table.x_grid[-1] == pytest.approx(8.0)
    _report(
        "5 (nbar = 10 pipeline)",
        ok,
        f"oracle loc dev {loc_dev:.1e}, val dev {val_dev:.2%}, "
        f"reconstruction dev {rec_dev:.2%}",
    )


def test_criterion_6_oracle_equivalence():
    spec = CatSpec(SQRT5, 1.11)
    terms = cat_wigner_terms(spec)
    state = make_cat(spec, 70)
    rng = np.random.default_rng(SEED)
    worst_w = 0.0
    for u, v in rng.uniform(-2.5, 2.5, size=(100, 2)):
        closed = wigner_superposition(terms, complex(u, v))
        parity = wigner_displaced_parity(state, complex(u, v))
        worst_w = max(worst_w, abs(closed - parity))
    _, table, config = _recon_target(spec, 50)
    u, v = rng.uniform(-2.5, 2.5, size=(2, 20))
    engine = reconstruct_at(table, u, v, config)
    worst_r = float(np.max(np.abs(engine - reconstruct_closed_form(terms, table.phases, u, v, config))))
    ok = worst_w < 1e-6 and worst_r < 1e-6
    _report(
        "6 (oracle equivalence)",
        ok,
        f"closed vs parity max {worst_w:.1e} (tol 1e-6) on 100 points; "
        f"reconstruction vs same-phase closed form max {worst_r:.1e} (tol 1e-6) on 20 points",
    )


def test_criterion_7_physics_invariants():
    spec = CatSpec(SQRT5, 1.11)
    state = make_cat(spec, 60)
    table = build_table(state, default_phases(), default_x_grid(spec.mean_photon))
    norm_dev = max(
        abs(np.trapezoid(row, table.x_grid) - 1.0) for row in table.density
    )

    terms = cat_wigner_terms(CatSpec(SQRT5, math.pi / 2))
    axis = np.arange(-6.0, 6.0 + 0.02, 0.02)
    values = wigner_superposition(terms, axis[:, None] + 1j * axis[None, :])
    w_total_dev = abs(np.trapezoid(np.trapezoid(values, axis, axis=1), axis) - 1.0)

    t = np.linspace(-7.0, 7.0, 1401)
    x_vals = np.array([-0.5, 0.0, 0.9, 2.1])
    terms63 = cat_wigner_terms(spec)
    marg_dev = 0.0
    for phi in (0.0, 0.7, 1.4):
        direct = quadrature_distribution(state, phi, x_vals)
        for k, x_val in enumerate(x_vals):
            u = x_val * math.cos(phi) - t * math.sin(phi)
            v = x_val * math.sin(phi) + t * math.cos(phi)
            marginal = np.trapezoid(wigner_superposition(terms63, u + 1j * v), t)
            marg_dev = max(marg_dev, abs(marginal - direct[k]))

    prob_dev = 0.0
    for theta in (0.2, 0.7, 1.11, math.pi / 2):
        hybrid = entangle_kerr(SQRT5 * np.exp(-1j * theta), 2.0 * theta, 50)
        _, p_plus = conditional_project(hybrid, "plus45")
        _, p_minus = conditional_project(hybrid, "minus45")
        prob_dev = max(prob_dev, abs(p_plus + p_minus - 1.0))

    ok = norm_dev < 1e-6 and w_total_dev < 1e-4 and marg_dev < 1e-4 and prob_dev < 1e-10
    _report(
        "7 (physics invariants)",
        ok,
        f"slice norm dev {norm_dev:.1e} (tol 1e-6); integral of W dev "
        f"{w_total_dev:.1e} (tol 1e-4); marginal dev {marg_dev:.1e} (tol 1e-4); "
        f"outcome probability dev {prob_dev:.1e} (tol 1e-10)",
    )


def test_criterion_8_ghz_algebra():
    ghz = make_ghz(BellState.PHI_PLUS)
    want = np.zeros(8, dtype=complex)
    want[0b000] = want[0b001] = want[0b110] = 0.5
    want[0b111] = -0.5
    fidelity = abs(np.vdot(want, ghz.amplitudes)) ** 2
    correlations_ok = True
    for which in BellState:
        diag = diagonal_basis_amplitudes(make_ghz(which), 2)
        support = [
            label
            for label in diag.basis_labels()
            if abs(diag.amplitude(label)) > 1e-12
        ]
        pairs = {label[:2] for label in support}
        want_pairs = {"HH", "VV"} if which.value.startswith("phi") else {"HV", "VH"}
        probs_ok = all(
            abs(abs(diag.amplitude(label)) ** 2 - 0.5) < 1e-12 for label in support
        )
        correlations_ok = correlations_ok and (
            len(support) == 2 and pairs == want_pairs and probs_ok
        )
    ok = fidelity >= 1.0 - 1e-12 and correlations_ok
    _report(
        "8 (GHZ algebra)",
        ok,
        f"fidelity to the reference three-photon state 1 - {1.0 - fidelity:.1e}; "
        f"perfect correlations for all four Bell inputs: {correlations_ok}",
    )
