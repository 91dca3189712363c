"""Exact matrix operations and the eigen-free spectral certificates."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle as eo
from transdirac.exact import I, ONE, ZERO, Scalar, rational
from transdirac.matrices import Mat, apply_to_vector, combination, commutator, product_sum


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


# Entries in Q, Q(sqrt2), i Q(sqrt2) and all of the field, with denominators
# that divide one another (2, 4) and that do not (2, 3): the product kernel
# adds equal denominators, scales one side when one divides the other, and
# cross-multiplies otherwise.  Few small values make sums cancel often.
_part = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3, 4]))
field_entries = st.one_of(
    st.builds(Scalar, _part),
    st.builds(Scalar, _part, _part),
    st.builds(lambda c, d: Scalar(0, 0, c, d), _part, _part),
    st.builds(Scalar, _part, _part, _part, _part))


def sparse_mats(n, m):
    keys = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    return st.dictionaries(keys, field_entries, max_size=n * m).map(lambda d: Mat(n, m, d))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matmul_matches_naive_oracle(data):
    """`@` sums each entry once; the oracle reduces every product and every
    partial sum.  The values agree, and the result stores no zero."""
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    L = data.draw(sparse_mats(n, k))
    R = data.draw(sparse_mats(k, m))
    got = L @ R
    assert (got.n, got.m) == (n, m)
    assert got == eo.naive_matmul(L, R)
    assert all(not v.is_zero() for v in got.d.values())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_product_sum_and_combination_match_naive_oracle(data):
    n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    pairs = [(data.draw(sparse_mats(n, k)), data.draw(sparse_mats(k, m))) for _ in range(3)]
    want = Mat(n, m)
    for L, R in pairs:
        want = want + eo.naive_matmul(L, R)
    got = product_sum(pairs)
    assert got == want and all(not v.is_zero() for v in got.d.values())
    coeffs = [data.draw(field_entries) for _ in range(3)]
    mats = [data.draw(sparse_mats(n, m)) for _ in range(3)]
    want = Mat(n, m)
    for c, M in zip(coeffs, mats):
        want = want + M.scale(c)
    got = combination(coeffs, mats)
    assert got == want and all(not v.is_zero() for v in got.d.values())


H, T, Q = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)


@pytest.mark.parametrize("rows, cols, want", [
    ([[1, 1]], [[1], [-1]], []),                    # equal denominators, cancelling
    ([[H, H]], [[1], [1]], [[1]]),                  # 2/2 must reduce to 1
    ([[Q, H]], [[1], [1]], [[Fraction(3, 4)]]),     # the new denominator divides the sum's
    ([[H, Q]], [[1], [1]], [[Fraction(3, 4)]]),     # the sum's denominator divides the new
    ([[H, T]], [[1], [1]], [[Fraction(5, 6)]]),     # coprime denominators cross-multiply
    ([[H, T]], [[T], [-H]], []),                    # and cancel
])
def test_matmul_cancels_and_reduces(rows, cols, want):
    """Equal Scalars have equal (lowest-terms) tuples, so == also checks the
    one reduction; a sum that cancels stores nothing."""
    got = Mat.from_rows(rows) @ Mat.from_rows(cols)
    assert got.d == (Mat.from_rows(want).d if want else {})


def test_product_sum_rejects_mixed_shapes():
    A = Mat.identity(2)
    with pytest.raises(ValueError):
        product_sum([(A, A), (Mat.identity(3), Mat.identity(3))])
    with pytest.raises(ValueError):
        Mat.identity(2) @ Mat.identity(3)


def test_product_sum_skips_empty_factors_after_the_shape_checks():
    """A pair with an empty factor adds nothing, but its shapes still count:
    the sum has their shape, and a mismatch still raises."""
    A = Mat.from_rows([[1, 2, 3], [4, 5, 6]])
    empty_left, empty_right = Mat(2, 3), Mat(3, 4)
    assert product_sum([(empty_left, Mat.from_rows([[1]] * 3))]) == Mat(2, 1)
    assert product_sum([(A, empty_right), (empty_left, empty_right)]) == Mat(2, 4)
    B = Mat.from_rows([[1], [0], [-1]])
    assert product_sum([(A, Mat(3, 1)), (A, B)]) == A @ B
    with pytest.raises(ValueError):
        product_sum([(empty_left, Mat(2, 3))])
    with pytest.raises(ValueError):
        product_sum([(A, B), (empty_left, empty_right)])
    with pytest.raises(ValueError):
        Mat(2, 2) @ Mat(3, 3)


def test_combination_rejects_mixed_shapes():
    """A 3 x 3 term is not folded into a 2 x 2 sum, whatever its
    coefficient."""
    with pytest.raises(ValueError, match="shapes"):
        combination([1, 1], [Mat.identity(2), Mat.identity(3)])
    with pytest.raises(ValueError, match="shapes"):
        combination([1, 0], [Mat.identity(2), Mat(2, 3)])


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
