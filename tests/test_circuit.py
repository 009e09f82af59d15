import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catscan import (
    BellState,
    CatSpec,
    HybridState,
    InvalidArgument,
    PolarizationState,
    ZeroNorm,
    append_diagonal_photon,
    bell_state,
    coherent_state,
    conditional_project,
    diagonal_basis_amplitudes,
    entangle_kerr,
    inner_product,
    kerr_two_photon_gate,
    make_cat,
    make_ghz,
    measurement_probabilities,
    published_branch_weight,
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
    # p(+/-45) = (1 +/- Re<b2|b1>)/2 = N/4 for branches b1 = r e^{i t}, b2 = r e^{-i t}
    hybrid = entangle_kerr(SQRT5 * np.exp(-1j * theta), 2.0 * theta, 50)
    for outcome, sign in (("plus45", "plus"), ("minus45", "minus")):
        _, prob = conditional_project(hybrid, outcome)
        weight = published_branch_weight(CatSpec(SQRT5, theta, sign))
        assert prob == pytest.approx(weight / 2.0, abs=1e-10)


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


def test_published_branch_weight_matches_inner_product():
    numeric = inner_product(
        coherent_state(SQRT5 * np.exp(-0.9j), 70), coherent_state(SQRT5 * np.exp(0.9j), 70)
    )
    assert abs(published_branch_weight(CatSpec(SQRT5, 0.9)) - (1.0 + numeric.real)) < 1e-12
    assert abs(published_branch_weight(CatSpec(SQRT5, 0.9, "minus")) - (1.0 - numeric.real)) < 1e-12


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


def _bit_labels(k):
    """basis_labels with photon i as bit k - 1 - i of the basis index."""
    return ["".join("V" if (i >> (k - 1 - j)) & 1 else "H" for j in range(k)) for i in range(2**k)]


def _bit_index(label):
    idx = 0
    for ch in label:
        idx = (idx << 1) | (ch == "V")
    return idx


def _bit_kerr(amps, k, i, j, phase):
    idx = np.arange(2**k)
    both_v = ((idx >> (k - 1 - i)) & 1) & ((idx >> (k - 1 - j)) & 1)
    return amps * np.where(both_v == 1, np.exp(1j * phase), 1.0)


def _bit_diagonal(amps, k, photon):
    amps = amps.copy()
    bit = k - 1 - photon
    idx = np.arange(2**k)
    low = idx[(idx >> bit) & 1 == 0]
    high = low | (1 << bit)
    a_h, a_v = amps[low].copy(), amps[high].copy()
    amps[low] = (a_h + a_v) / math.sqrt(2.0)
    amps[high] = (a_h - a_v) / math.sqrt(2.0)
    return amps


_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def _photon_states(draw):
    k = draw(st.integers(1, 5))
    parts = draw(st.lists(st.tuples(_PART, _PART), min_size=2**k, max_size=2**k))
    return PolarizationState(k, np.array([complex(re, im) for re, im in parts]))


@settings(max_examples=150)
@given(state=_photon_states(), data=st.data())
def test_photon_axes_match_the_bit_index_layout(state, data):
    # bit for bit, so a -0.0 that the bit-index forms keep is kept too
    k = state.k
    assert state.basis_labels() == _bit_labels(k)
    for label in _bit_labels(k):
        want = np.complex128(state.amplitudes[_bit_index(label)])
        assert np.complex128(state.amplitude(label)).tobytes() == want.tobytes()
    photon = data.draw(st.integers(0, k - 1))
    got = diagonal_basis_amplitudes(state, photon).amplitudes
    assert got.tobytes() == _bit_diagonal(state.amplitudes, k, photon).tobytes()
    if k >= 2:
        i, j = data.draw(st.permutations(range(k)))[:2]
        phase = data.draw(st.floats(-7.0, 7.0))
        got = kerr_two_photon_gate(state, (i, j), phase).amplitudes
        assert got.tobytes() == _bit_kerr(state.amplitudes, k, i, j, phase).tobytes()
