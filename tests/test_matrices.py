"""Exact matrix operations and the eigen-free spectral certificates."""

import random

import numpy as np
import pytest

from transdirac.exact import I, ONE, ZERO, rational
from transdirac.matrices import Mat, apply_to_vector, commutator


def random_int_mat(rng, n, lo=-4, hi=4, hermitian=False):
    entries = {}
    for i in range(n):
        for j in range(n):
            entries[(i, j)] = rational(rng.randint(lo, hi)) + I * rational(rng.randint(lo, hi))
    M = Mat(n, n, entries)
    return M + M.dagger() if hermitian else M


def to_numpy(M):
    out = np.zeros((M.n, M.m), dtype=complex)
    for (i, j), v in M.d.items():
        out[i, j] = complex(v)
    return out


def test_basic_algebra():
    A = Mat.from_rows([[1, 2], [3, 4]])
    B = Mat.from_rows([[0, 1], [1, 0]])
    assert (A @ B).rows()[0][0] == rational(2)
    assert (A + B - B) == A
    assert A.scale(rational(2)) == A + A
    assert Mat.identity(2) @ A == A
    assert A.trace() == rational(5)


def test_dagger_and_flags():
    H = Mat.from_rows([[rational(2), I], [-I, rational(1)]])
    assert H.is_hermitian()
    S = Mat.from_rows([[ZERO, ONE], [-ONE, ZERO]])
    assert S.is_skew_hermitian() and S.is_antisymmetric()


def numpy_inertia(M):
    evs = np.linalg.eigvalsh(to_numpy(M))
    return (int(np.sum(evs > 1e-9)), int(np.sum(abs(evs) <= 1e-9)),
            int(np.sum(evs < -1e-9)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_charpoly_and_det_against_numpy(n):
    """The charpoly matches numpy's, and so does its constant coefficient
    (-1)^n det M; the inertia of the Hermitian part matches the signs of
    numpy's eigenvalues."""
    rng = random.Random(n)
    M = random_int_mat(rng, n)
    cp = M.charpoly()
    np_cp = np.poly(to_numpy(M))
    assert max(abs(complex(c) - z) for c, z in zip(cp, np_cp)) < 1e-6
    assert abs((-1) ** n * complex(cp[n]) - np.linalg.det(to_numpy(M))) < 1e-6
    H = M + M.dagger()
    assert H.inertia() == numpy_inertia(H)


def test_det_singular():
    """A singular Hermitian matrix: charpoly constant zero, one zero
    eigenvalue, and positive semidefinite but not definite."""
    M = Mat.from_rows([[1, 2], [2, 4]])
    assert M.charpoly()[2] == ZERO
    assert M.inertia() == (1, 1, 0)
    assert M.is_psd() and not M.is_pd()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inertia_matches_numpy_on_singular_and_indefinite(n):
    """X D X^dagger with an invertible integer X has the inertia of the
    diagonal D (Sylvester's law of inertia); D mixes positive, zero and
    negative entries, so the cases are rank-deficient and indefinite."""
    rng = random.Random(100 + n)
    for _ in range(30):
        X = random_int_mat(rng, n)
        if abs(np.linalg.det(to_numpy(X))) < 0.5:
            continue
        D = Mat(n, n, {(i, i): rational(rng.choice((-3, -1, 0, 0, 1, 2))) for i in range(n)})
        H = X @ D @ X.dagger()
        signs = [float(v) for v in (D.entry(i, i) for i in range(n))]
        want = (sum(v > 0 for v in signs), signs.count(0.0), sum(v < 0 for v in signs))
        assert H.inertia() == want == numpy_inertia(H)
        assert H.is_psd() == (want[2] == 0)


def test_inertia_rejects_non_hermitian():
    with pytest.raises(ValueError):
        Mat.from_rows([[0, 1], [0, 0]]).inertia()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_psd_certificate_matches_numpy(n):
    rng = random.Random(10 + n)
    for _ in range(20):
        A = random_int_mat(rng, n)
        G = A @ A.dagger()  # PSD by construction
        assert G.is_psd()
        H = random_int_mat(rng, n, hermitian=True)
        want = np.linalg.eigvalsh(to_numpy(H)).min() >= -1e-9
        assert H.is_psd() == want


def test_pd_certificate():
    G = Mat.from_rows([[2, 1], [1, 2]])
    assert G.is_pd()
    assert not Mat.from_rows([[1, 2], [2, 1]]).is_pd()  # eigenvalue -1
    assert not Mat.from_rows([[0, 0], [0, 1]]).is_pd()  # semidefinite only
    with pytest.raises(ValueError):
        Mat.from_rows([[0, 1], [0, 0]]).is_pd()


def test_kron_and_vector_apply():
    A = Mat.from_rows([[1, 2], [3, 4]])
    B = Mat.identity(2)
    K = A.kron(B)
    assert K.n == 4 and K.entry(0, 0) == ONE and K.entry(2, 0) == rational(3)
    v = {0: ONE, 1: rational(2)}
    w = apply_to_vector(A, v)
    assert w == {0: rational(5), 1: rational(11)}


def test_commutator():
    A = Mat.from_rows([[0, 1], [0, 0]])
    B = Mat.from_rows([[0, 0], [1, 0]])
    C = commutator(A, B)
    assert C == Mat.from_rows([[1, 0], [0, -1]])
