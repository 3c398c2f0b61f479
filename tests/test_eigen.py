"""Eigensolver contract and spectrum classification."""

import numpy as np
import pytest

import conftest as shared
from etaqm import eigen
from etaqm.errors import ParameterError


def test_two_by_two_symmetric():
    rep = eigen.eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(rep.eigenvalues, [-1.0, 1.0], atol=1e-14)
    assert rep.classification == ("real", "real")


def test_rotation_generator_gives_conjugate_pair():
    rep = eigen.eig(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    got = sorted(rep.eigenvalues, key=lambda z: z.imag)
    np.testing.assert_allclose(got, [-1j, 1j], atol=1e-14)
    assert rep.classification == ("pair-member", "pair-member")
    assert rep.pairing == {0: 1, 1: 0}


def test_diagonal_mixed_spectrum():
    rep = eigen.eig(np.diag([3.0, 2.0 + 1.0j, 2.0 - 1.0j]))
    assert sorted(rep.classification) == ["pair-member", "pair-member", "real"]
    # eigenvalues sorted by (Re, Im)
    np.testing.assert_allclose(rep.eigenvalues, [2.0 - 1.0j, 2.0 + 1.0j, 3.0])


def test_eigenvector_backward_error_contract():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
    rep = eigen.eig(M, want_vectors=True)
    bound = 1e-10 * np.linalg.norm(M, "fro")
    for j in range(300):
        v = rep.vectors[:, j]
        res = np.linalg.norm(M @ v - rep.eigenvalues[j] * v)
        assert res <= bound * np.linalg.norm(v)


def test_eigenvalue_sum_matches_trace():
    M = shared.hamiltonian("scarf2", 2.0, 1.0, 800).toarray()
    vals = shared.eig_values("scarf2", 2.0, 1.0, 800)
    tr = np.trace(M)
    assert abs(vals.sum() - tr) <= 1e-8 * abs(tr)


def test_classify_examples():
    tags, _ = eigen.classify_spectrum(np.array([-4.0, -1.0, -0.25]), 1e-6)
    assert tags == ["real", "real", "real"]
    tags, pairing = eigen.classify_spectrum(np.array([2 + 0.5j, 2 - 0.5j]), 1e-6)
    assert tags == ["pair-member", "pair-member"] and pairing == {0: 1, 1: 0}
    tags, _ = eigen.classify_spectrum(np.array([1 + 1e-9j]), 1e-6)
    assert tags == ["real"]


def test_classify_leaves_leftovers_unpaired():
    tags, pairing = eigen.classify_spectrum(np.array([1.0 + 0.3j, 5.0 - 0.3j]), 1e-6)
    assert tags == ["unpaired", "unpaired"] and pairing == {}


def test_classify_rejects_bad_tolerance():
    with pytest.raises(ParameterError):
        eigen.classify_spectrum(np.array([1.0]), 0.0)


def test_pairing_satisfies_conjugate_bound():
    rng = np.random.default_rng(2)
    base = rng.normal(size=6) + 1j * rng.normal(size=6)
    vals = np.concatenate([base, np.conj(base), rng.normal(size=4)])
    tags, pairing = eigen.classify_spectrum(vals, 1e-8)
    assert all(t in ("real", "pair-member", "unpaired") for t in tags)
    for i, j in pairing.items():
        assert abs(vals[i] - np.conj(vals[j])) <= 1e-8 * (1 + abs(vals[i]))
        assert pairing[j] == i


@pytest.mark.parametrize("kind,p1,p2", [
    ("scarf2", 2.0, 1.0),
    ("first-order", 2.5, 0.0),
])
@pytest.mark.parametrize("N", [800, 1600])
def test_lowest_levels_never_unpaired_for_pt_fixtures(kind, p1, p2, N):
    vals = shared.eig_values(kind, p1, p2, N)
    lowest = vals[np.argsort(vals.real)[:10]]
    tags, _ = eigen.classify_spectrum(lowest, 1e-6)
    assert "unpaired" not in tags


def test_bound_filter_keeps_stable_negative_eigenvalues():
    coarse = np.array([-4.001, -0.9995, 0.3, 1.2], dtype=complex)
    fine = np.array([-4.0003, -0.99991, -0.05, 0.31, 1.21], dtype=complex)
    b = eigen.converged_bound_states(coarse, fine, tol_move=1e-3)
    np.testing.assert_allclose(b.values, [-4.0003, -0.99991])
    assert list(np.round(b.rejected.real, 3)) == [-0.05]


def test_bound_filter_scarf2_fixture():
    b = shared.bound_states("scarf2", 2.0, 1.0, 1600)
    assert len(b.values) == 3
    for target in (-4.0, -1.0, -0.25):
        assert np.min(np.abs(b.values - target)) <= 1e-3


def test_eig_rejects_non_square():
    with pytest.raises(ParameterError):
        eigen.eig(np.zeros((3, 4), dtype=complex))


def test_reality_beyond_threshold_produces_pair():
    # |V2| > V1 + 1/4: a conjugate pair appears among bound candidates
    b = shared.bound_states("scarf2-raw", 2.0, 3.0, 800)
    tags, _ = eigen.classify_spectrum(b.values, 1e-6)
    assert tags.count("pair-member") >= 2
    assert np.max(np.abs(b.values.imag)) >= 1e-3
