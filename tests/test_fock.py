import math

import numpy as np
import pytest

from catscan import (
    DimensionMismatch,
    FockVector,
    InvalidArgument,
    TruncationError,
    coherent_state,
    displace,
    inner_product,
    mean_photon_number,
    number_state,
    parity_expectation,
    vacuum,
)


def test_vacuum_and_number_states():
    vac = vacuum(10)
    assert vac.n_max == 10
    assert vac.amplitudes[0] == 1.0
    assert np.all(vac.amplitudes[1:] == 0.0)
    three = number_state(3, 10)
    assert three.amplitudes[3] == 1.0
    assert abs(three.norm() - 1.0) < 1e-15
    assert abs(inner_product(vac, three)) == 0.0


def test_number_state_out_of_range():
    with pytest.raises(InvalidArgument):
        number_state(11, 10)
    with pytest.raises(InvalidArgument):
        number_state(-1, 10)


@pytest.mark.parametrize("beta", [0.5, 1.2 + 0.7j, -2.0 + 0.3j, 2.2360679774997896j])
def test_coherent_amplitudes_match_direct_formula(beta):
    state = coherent_state(beta, 40)
    prefactor = math.exp(-abs(beta) ** 2 / 2.0)
    for n in range(21):
        direct = prefactor * beta**n / math.sqrt(math.factorial(n))
        assert abs(state.amplitudes[n] - direct) < 1e-13


def test_coherent_norm_close_to_one():
    state = coherent_state(2.0 + 1.0j, 60)
    assert abs(state.norm() - 1.0) < 1e-10


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError):
        coherent_state(6.0, 20)


def test_coherent_overlap_closed_form():
    b1, b2 = 1.1 + 0.4j, -0.6 + 0.9j
    got = inner_product(coherent_state(b1, 60), coherent_state(b2, 60))
    want = np.exp(-abs(b1) ** 2 / 2 - abs(b2) ** 2 / 2 + np.conj(b1) * b2)
    assert abs(got - want) < 1e-12


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(11)
    a = FockVector(rng.normal(size=8) + 1j * rng.normal(size=8))
    b = FockVector(rng.normal(size=8) + 1j * rng.normal(size=8))
    assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-14


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product(vacuum(5), vacuum(6))


def test_fock_vector_validation():
    with pytest.raises(InvalidArgument):
        FockVector(np.zeros((2, 3), dtype=complex))
    with pytest.raises(InvalidArgument):
        FockVector(np.array([1.0, np.nan], dtype=complex))


@pytest.mark.parametrize("alpha", [0.3, -0.8 + 0.5j, 1.5j, 2.0 - 1.0j])
def test_displace_vacuum_gives_coherent(alpha):
    got = displace(vacuum(40), alpha)
    want = coherent_state(alpha, 40)
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-10


def test_displace_zero_is_identity():
    state = coherent_state(1.0 + 0.2j, 30)
    assert displace(state, 0.0) is state


def test_displace_inverse_roundtrip():
    # random low-lying state with truncation headroom for the excursion
    rng = np.random.default_rng(23)
    raw = np.zeros(51, dtype=complex)
    raw[:10] = rng.normal(size=10) + 1j * rng.normal(size=10)
    state = FockVector(raw / np.linalg.norm(raw))
    back = displace(displace(state, 0.9 - 0.4j), -(0.9 - 0.4j))
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10


def test_displace_preserves_norm():
    state = coherent_state(1.2, 50)
    shifted = displace(state, 1.0 + 1.0j)
    assert abs(shifted.norm() - 1.0) < 1e-8


def test_displace_truncation_guard():
    # displacing far beyond the cutoff must not silently lose weight
    with pytest.raises(TruncationError):
        displace(coherent_state(2.0, 12), 5.0)


@pytest.mark.parametrize("n,expected", [(0, 1.0), (1, -1.0), (4, 1.0), (7, -1.0)])
def test_parity_number_states(n, expected):
    assert parity_expectation(number_state(n, 10)) == expected


def test_parity_coherent_closed_form():
    beta = 1.1
    # <parity> = exp(-2 |beta|^2) for a coherent state
    got = parity_expectation(coherent_state(beta, 50))
    assert abs(got - math.exp(-2.0 * beta**2)) < 1e-12


def test_mean_photon_number_coherent():
    beta = 1.7 - 0.4j
    got = mean_photon_number(coherent_state(beta, 60))
    assert abs(got - abs(beta) ** 2) < 1e-9


def test_amplitudes_are_read_only():
    state = vacuum(5)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5
