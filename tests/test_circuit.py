import math

import numpy as np
import pytest

from catscan import (
    BellState,
    CatSpec,
    HybridState,
    InvalidArgument,
    ZeroNorm,
    append_diagonal_photon,
    bell_state,
    cat_branch_overlap,
    coherent_state,
    conditional_project,
    diagonal_basis_amplitudes,
    entangle_kerr,
    inner_product,
    kerr_two_photon_gate,
    make_cat,
    make_ghz,
    measurement_probabilities,
)

SQRT5 = math.sqrt(5.0)


def test_cat_spec_validation():
    with pytest.raises(InvalidArgument):
        CatSpec(-1.0, 0.5)
    with pytest.raises(InvalidArgument):
        CatSpec(1e200, 0.5)
    with pytest.raises(InvalidArgument):
        CatSpec(1.0, 0.0)
    with pytest.raises(InvalidArgument):
        CatSpec(1.0, 2.0)
    with pytest.raises(InvalidArgument):
        CatSpec(1.0, 0.5, "even")
    assert CatSpec(SQRT5, 0.2).mean_photon == pytest.approx(5.0)


def test_entangle_kerr_branch_weights():
    hybrid = entangle_kerr(1.5, 0.8, 40)
    assert hybrid.amp_h.norm() == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert hybrid.amp_v.norm() == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert hybrid.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.2, 0.7, 1.11, math.pi / 2])
def test_conditional_probabilities_sum_to_one(theta):
    hybrid = entangle_kerr(SQRT5 * np.exp(-1j * theta), 2.0 * theta, 50)
    _, p_plus = conditional_project(hybrid, "plus45")
    _, p_minus = conditional_project(hybrid, "minus45")
    assert abs(p_plus + p_minus - 1.0) < 1e-10


@pytest.mark.parametrize("theta", [0.2, 1.11, math.pi / 2])
def test_conditional_probability_closed_form(theta):
    # p(+/-45) = (1 +/- Re<b2|b1>)/2 for branches b1 = r e^{i t}, b2 = r e^{-i t}
    hybrid = entangle_kerr(SQRT5 * np.exp(-1j * theta), 2.0 * theta, 50)
    _, p_plus = conditional_project(hybrid, "plus45")
    overlap = cat_branch_overlap(CatSpec(SQRT5, theta))
    assert p_plus == pytest.approx(0.5 * (1.0 + overlap.real), abs=1e-10)


def test_conditional_project_bad_outcome():
    hybrid = entangle_kerr(1.0, 1.0, 30)
    with pytest.raises(InvalidArgument):
        conditional_project(hybrid, "diagonal")


def test_conditional_project_exact_zero_raises():
    # no Kerr phase: both branches are the same coherent state
    with pytest.raises(ZeroNorm):
        conditional_project(entangle_kerr(1.0, 0.0, 30), "minus45")


def test_hybrid_state_rejects_mixed_truncation():
    with pytest.raises(InvalidArgument):
        HybridState(coherent_state(1.0, 20), coherent_state(1.0, 21))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
@pytest.mark.parametrize("theta", [0.2, 0.7, 1.11, math.pi / 2])
def test_make_cat_matches_coherent_superposition(theta, sign):
    spec = CatSpec(SQRT5, theta, "plus" if sign > 0 else "minus")
    raw = (
        coherent_state(SQRT5 * np.exp(1j * theta), 50).amplitudes
        + sign * coherent_state(SQRT5 * np.exp(-1j * theta), 50).amplitudes
    )
    want = raw / np.linalg.norm(raw)
    got = make_cat(spec, 50)
    assert np.max(np.abs(got.amplitudes - want)) < 1e-12


def test_cat_branch_overlap_matches_inner_product():
    spec = CatSpec(SQRT5, 0.9)
    numeric = inner_product(
        coherent_state(SQRT5 * np.exp(-0.9j), 70), coherent_state(SQRT5 * np.exp(0.9j), 70)
    )
    assert abs(cat_branch_overlap(spec) - numeric) < 1e-12


def test_bell_state_labels_and_norms():
    for which in BellState:
        pair = bell_state(which)
        assert pair.norm() == pytest.approx(1.0, abs=1e-15)
        assert BellState.from_label(which.value) is which
    with pytest.raises(InvalidArgument):
        BellState.from_label("phi-both")


def test_polarization_amplitude_lookup():
    pair = bell_state(BellState.PSI_MINUS)
    assert pair.amplitude("HV") == pytest.approx(1.0 / math.sqrt(2.0))
    assert pair.amplitude("VH") == pytest.approx(-1.0 / math.sqrt(2.0))
    assert pair.amplitude("HH") == 0.0
    with pytest.raises(InvalidArgument):
        pair.amplitude("HX")
    with pytest.raises(InvalidArgument):
        pair.amplitude("HVH")


def test_append_diagonal_photon():
    triple = append_diagonal_photon(bell_state(BellState.PHI_PLUS))
    assert triple.k == 3
    assert triple.norm() == pytest.approx(1.0, abs=1e-15)
    half = 0.5
    for label in ("HHH", "HHV", "VVH", "VVV"):
        assert triple.amplitude(label) == pytest.approx(half)
    for label in ("HVH", "HVV", "VHH", "VHV"):
        assert triple.amplitude(label) == 0.0


def test_kerr_gate_phases_only_double_v():
    triple = append_diagonal_photon(bell_state(BellState.PHI_PLUS))
    gated = kerr_two_photon_gate(triple, (1, 2), 0.6)
    for label in triple.basis_labels():
        before = triple.amplitude(label)
        after = gated.amplitude(label)
        if label[1] == "V" and label[2] == "V":
            assert after == pytest.approx(before * np.exp(0.6j))
        else:
            assert after == pytest.approx(before)


def test_kerr_gate_composition():
    triple = append_diagonal_photon(bell_state(BellState.PHI_MINUS))
    twice = kerr_two_photon_gate(
        kerr_two_photon_gate(triple, (1, 2), math.pi / 2), (1, 2), math.pi / 2
    )
    once = kerr_two_photon_gate(triple, (1, 2), math.pi)
    assert np.max(np.abs(twice.amplitudes - once.amplitudes)) < 1e-15


def test_kerr_gate_index_errors():
    triple = append_diagonal_photon(bell_state(BellState.PHI_PLUS))
    with pytest.raises(IndexError):
        kerr_two_photon_gate(triple, (1, 1), 0.5)
    with pytest.raises(IndexError):
        kerr_two_photon_gate(triple, (0, 3), 0.5)


def test_ghz_phi_plus_exact_form():
    ghz = make_ghz(BellState.PHI_PLUS)
    # (|HH,45> + |VV,135>)/sqrt(2) written in the H/V basis
    want = np.zeros(8, dtype=complex)
    want[0b000] = 0.5
    want[0b001] = 0.5
    want[0b110] = 0.5
    want[0b111] = -0.5
    fidelity = abs(np.vdot(want, ghz.amplitudes)) ** 2
    assert fidelity >= 1.0 - 1e-12


@pytest.mark.parametrize("which", list(BellState))
def test_ghz_perfect_correlations(which):
    ghz = make_ghz(which)
    assert ghz.norm() == pytest.approx(1.0, abs=1e-12)
    diag = diagonal_basis_amplitudes(ghz, 2)
    support = {
        label: amp for label in diag.basis_labels()
        if abs(amp := diag.amplitude(label)) > 1e-12
    }
    # two equally weighted outcomes, and the diagonal result of photon 3
    # determines the (anti)correlated pair outcome uniquely
    assert len(support) == 2
    pair_support = {label[:2] for label in support}
    want_pairs = {"HH", "VV"} if which.value.startswith("phi") else {"HV", "VH"}
    assert pair_support == want_pairs
    third = {label[2] for label in support}
    assert third == {"H", "V"}
    for amp in support.values():
        assert abs(amp) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_measurement_probabilities_sum():
    probs = measurement_probabilities(make_ghz(BellState.PSI_PLUS))
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert set(probs) == set(make_ghz(BellState.PSI_PLUS).basis_labels())


def test_diagonal_basis_is_involution():
    ghz = make_ghz(BellState.PHI_MINUS)
    back = diagonal_basis_amplitudes(diagonal_basis_amplitudes(ghz, 1), 1)
    assert np.max(np.abs(back.amplitudes - ghz.amplitudes)) < 1e-15
