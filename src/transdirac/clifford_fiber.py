"""Exact Clifford and exterior algebra of the normal fiber.

Basis bookkeeping is by bitmask: the exterior monomial f_{i1} ^ ... ^ f_{ik}
(indices ascending, bits 0-based) is the integer with those bits set.  Every
action is a matrix on that basis; the two fibers in play are

* the full exterior algebra on q generators (dimension 2^q), on which the
  Clifford algebra acts by c(f) = ext(f*) - int(f), and
* the spinor fiber attached to an orthogonal complex structure J: the
  exterior algebra on the l = q/2 anti-holomorphic covectors, on which
  c(f) = sqrt(2) (ext of the (1,0)-part dual - int of the (0,1)-part).
  `spinor_cliffords` writes each c(f_a) straight from the mask moves of
  ext_j and int_j on the l generators (positions and signs, cached per l
  by `_mask_moves`), with chi_ja and -conj(chi_ja) as values.

A vector v acts through the generators by linearity, c(v) = sum_a v_a c(f_a)
(`matrices.combination`).  `pair_action(X, left, right)` sums a scalar
two-form X between two lists of generator actions, sum_{a<b} X_ab left[a]
right[b], as sum_a left[a] (sum_{b>a} X_ab right[b]): q - 1 matrix products,
summed with one reduction per entry.  With c on both sides it is the action
of a two-form, and a skew endomorphism A acts through its spin lift
(1/4) sum A_gb c(f_b) c(f_g) = -(1/2) pair_action(A, c, c) (`spin_lift`).
Multivector and Clifford-element arithmetic is not part of the package:
tests/multivector_oracle.py computes the same actions term by term, as an
independent oracle for these matrices.

Everything is exact; the module also certifies the two fiberwise facts the
vanishing argument rests on: the curvature action is the constant -lambda
on the bottom component, and its restriction to the odd part is bounded
below by -(lambda - 2 min mu), both as zero-residual statements.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cache

from .exact import I, ONE, SQRT2, ZERO, Scalar, format_scalar, rational
from .matrices import Mat, accumulate, apply_to_vector, combination, product_sum


class DegenerateCurvature(ValueError):
    """The two-form is degenerate (not symplectic on the fiber)."""


class IncompatiblePair(ValueError):
    """(B, J) fails the compatibility hypothesis B(J., J.) = B, iB(v, Jv) > 0."""


# ---------------------------------------------------------------------------
# bitmask exterior/interior actions

def _sign_below(mask: int, j: int) -> int:
    """(-1)^(number of set bits below j)."""
    return -1 if (mask & ((1 << j) - 1)).bit_count() & 1 else 1


def ext_bit(mask: int, j: int) -> tuple[int, int]:
    """Wedge by generator j (0-based): returns (new_mask, sign), sign 0 kills."""
    bit = 1 << j
    if mask & bit:
        return 0, 0
    return mask | bit, _sign_below(mask, j)


def int_bit(mask: int, j: int) -> tuple[int, int]:
    """Contract by generator j (0-based): returns (new_mask, sign), sign 0 kills."""
    bit = 1 << j
    if not mask & bit:
        return 0, 0
    return mask & ~bit, _sign_below(mask, j)


@cache
def _mask_moves(n_gen: int) -> tuple:
    """Per generator j of the exterior algebra on n_gen generators, the
    positions (new, mask) of the +1 and of the -1 entries of ext_j and of
    int_j: ((ext_plus, ext_minus), (int_plus, int_minus)), masks ascending."""
    def moves(action, j):
        moved = [(action(mask, j), mask) for mask in range(1 << n_gen)]
        return tuple(tuple((new, mask) for (new, sg), mask in moved if sg == sign)
                     for sign in (1, -1))
    return tuple((moves(ext_bit, j), moves(int_bit, j)) for j in range(n_gen))


def _sign_matrix(n_gen: int, moves) -> Mat:
    plus, minus = moves
    return Mat._of(1 << n_gen, 1 << n_gen,
                   {**dict.fromkeys(plus, ONE), **dict.fromkeys(minus, -ONE)})


def ext_matrix(n_gen: int, j: int) -> Mat:
    """Wedge by generator j (0-based) on the exterior algebra of n_gen."""
    return _sign_matrix(n_gen, _mask_moves(n_gen)[j][0])


def int_matrix(n_gen: int, j: int) -> Mat:
    """Contraction by generator j (0-based) on the exterior algebra of n_gen."""
    return _sign_matrix(n_gen, _mask_moves(n_gen)[j][1])


def pair_action(X: Mat, left: tuple[Mat, ...], right: tuple[Mat, ...]) -> Mat:
    """sum_{a<b} X_ab left[a] right[b], as sum_a left[a] (sum_{b>a} X_ab right[b]):
    q - 1 matrix products, summed with one reduction per entry, reading the
    upper triangle of X only.  With the Clifford generators on both sides and
    an antisymmetric X this is (1/2) sum_{a,b} X_ab c(f_a) c(f_b)."""
    q = len(left)
    return product_sum(
        (left[a], combination([X.entry(a, b) for b in range(a + 1, q)], right[a + 1:]))
        for a in range(q - 1))


def spin_lift(A: Mat, cliffords: tuple[Mat, ...]) -> Mat:
    """(1/4) sum_{g,b} A_gb c(f_b) c(f_g) for a skew endomorphism A of the
    horizontal space; its commutator with c(v) is c(A v).  The Clifford
    generators anticommute, so this is -(1/2) sum_{a<b} A_ab c(f_a) c(f_b)."""
    return pair_action(A, cliffords, cliffords).scale(rational(-1, 2))


# ---------------------------------------------------------------------------
# complex structures and the spinor fiber

def _times_block_skew(O: Mat, betas) -> Mat:
    """O S for the block-diagonal skew S with S[2j, 2j+1] = betas[j] =
    -S[2j+1, 2j], as column moves: column 2j+1 of O S is betas[j] times
    column 2j of O, and column 2j is -betas[j] times column 2j+1; a zero
    beta moves nothing, so no zero entry is stored.  With O = I this is S
    itself: the standard J0 (betas -1, `ComplexStructure.standard`) and
    `block_two_form(mus)` (betas -i mu_j)."""
    if O.m != 2 * len(betas):
        raise ValueError(f"{O.m} columns do not split into {len(betas)} 2 x 2 skew blocks")
    d = {}
    for (i, a), v in O.d.items():
        beta = betas[a // 2]
        if not beta:
            continue
        if a % 2:
            d[(i, a - 1)] = -(v * beta)
        else:
            d[(i, a + 1)] = v * beta
    return Mat._of(O.n, O.m, d)


def _dot(u: tuple[Scalar, ...], v: tuple[Scalar, ...]) -> Scalar:
    s = ZERO
    for a, b in zip(u, v):
        s = s + a * b
    return s


class ComplexStructure:
    """Orthogonal complex structure J on R^q together with an exact adapted
    orthonormal frame (v_1, J v_1, ..., v_l, J v_l).

    The adapted frame fixes a basis of the spinor fiber; different frames give
    unitarily equivalent actions.  It must consist of field vectors, which the
    `from_matrix` constructor can only produce when the Gram-Schmidt norms are
    perfect squares in Q(sqrt2)."""

    __slots__ = ("q", "jmat", "frame")

    def __init__(self, jmat: Mat, frame: tuple[tuple[Scalar, ...], ...]):
        q = jmat.n
        if q % 2 or not q:
            raise ValueError("codimension must be even and >= 2")
        if jmat.m != q:
            raise ValueError("J must be square")
        if jmat @ jmat != Mat.scalar(q, -ONE):
            raise ValueError("J^2 != -Identity")
        if not jmat.is_antisymmetric():  # with J^2 = -1, J^T J = 1 is J^T = -J
            raise ValueError("J not orthogonal")
        if len(frame) != q:
            raise ValueError("adapted frame must have q vectors")
        fmat = Mat._of(q, q, {(i, a): frame[a][i] for a in range(q)
                              for i in range(q) if frame[a][i]})
        if fmat.transpose() @ fmat != Mat.identity(q):
            raise ValueError("adapted frame not orthonormal")
        jf = jmat @ fmat
        for j in range(q // 2):
            for i in range(q):
                if jf.entry(i, 2 * j) != frame[2 * j + 1][i]:
                    raise ValueError("frame not J-adapted")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "jmat", jmat)
        object.__setattr__(self, "frame", frame)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ComplexStructure is immutable")

    @property
    def l(self) -> int:
        return self.q // 2

    @staticmethod
    def standard(q: int) -> "ComplexStructure":
        """J0 f_{2j-1} = f_{2j}, with the standard basis as adapted frame."""
        return ComplexStructure.from_orthogonal(Mat.identity(q))

    @staticmethod
    def from_orthogonal(O: Mat) -> "ComplexStructure":
        """Conjugate the standard structure: J = O J0 O^T, frame = columns of O."""
        q = O.n
        Ot = O.transpose()
        jm = _times_block_skew(O, [-ONE] * (q // 2)) @ Ot
        return ComplexStructure(jm, tuple(map(tuple, Ot.rows())))

    @staticmethod
    def from_matrix(jmat: Mat) -> "ComplexStructure":
        """Build an adapted frame by exact Gram-Schmidt over J-invariant planes."""
        q = jmat.n
        frame: list[tuple[Scalar, ...]] = []

        def proj_out(v):
            for u in frame:
                c = _dot(u, v)
                if not c.is_zero():
                    v = tuple(a - c * b for a, b in zip(v, u))
            return v

        for seed in range(q):
            if len(frame) == q:
                break
            v = tuple(ONE if t == seed else ZERO for t in range(q))
            v = proj_out(v)
            norm2 = _dot(v, v)
            if norm2.is_zero():
                continue
            try:
                inv_norm = norm2.sqrt().inverse()
            except ValueError as exc:
                raise ValueError(
                    "no exact adapted frame: Gram-Schmidt norm is not a square "
                    "in Q(sqrt2)") from exc
            v = tuple(inv_norm * a for a in v)
            frame.append(v)
            jv = apply_to_vector(jmat, dict(enumerate(v)))
            frame.append(tuple(jv.get(i, ZERO) for i in range(q)))
        return ComplexStructure(jmat, tuple(frame))


def spinor_cliffords(J: ComplexStructure) -> tuple[Mat, ...]:
    """c(f_a) for the standard basis vectors, a = 1..q.  In the adapted frame
    the sqrt2 cancels: c(f_a) = sum_j chi_ja ext_j - conj(chi_ja) int_j with
    chi_ja = g(f_a, v_j) + i g(f_a, J v_j), a lookup of frame components.

    No two of the ext/int moves `_mask_moves(l)` share a matrix position, so
    each entry of c(f_a) is +-chi_ja (ext_j) or -+conj(chi_ja) (int_j),
    written where its move puts it."""
    l = J.l
    out = []
    for a in range(J.q):
        d = {}
        for j, ((ext_plus, ext_minus), (int_plus, int_minus)) in enumerate(_mask_moves(l)):
            x, y = J.frame[2 * j][a], J.frame[2 * j + 1][a]
            chi = x + I * y if y else x
            if chi:
                bar = chi.conjugate()
                d.update(dict.fromkeys(ext_plus, chi))
                d.update(dict.fromkeys(ext_minus, -chi))
                d.update(dict.fromkeys(int_plus, -bar))
                d.update(dict.fromkeys(int_minus, bar))
        out.append(Mat._of(1 << l, 1 << l, d))
    return tuple(out)


def parity_indices(l: int) -> tuple[list[int], list[int]]:
    """(even, odd) basis indices of the exterior algebra on l generators."""
    even, odd = [], []
    for mask in range(1 << l):
        (odd if mask.bit_count() & 1 else even).append(mask)
    return even, odd


# ---------------------------------------------------------------------------
# two-forms and their invariants

def validate_two_form(B: Mat):
    if B.n != B.m:
        raise ValueError("two-form matrix must be square")
    if not B.is_antisymmetric():
        raise ValueError("two-form matrix must be antisymmetric")
    for v in B.d.values():
        if not v.is_imaginary():
            raise ValueError("two-form entries must be purely imaginary")


def k_matrix(B: Mat) -> Mat:
    """The real skew matrix K with g(v, Kw) = i B(v, w)."""
    validate_two_form(B)
    return B.scale(I)


def two_form_action(B: Mat, J: ComplexStructure) -> Mat:
    """Clifford action (1/2) sum_{ab} c(f_a) c(f_b) B_ab on the spinor fiber:
    the curvature action of B that both fiber certificates read.

    By antisymmetry this is sum_{a<b} B_ab c(f_a) c(f_b); the result is
    Hermitian and grading-even."""
    validate_two_form(B)
    if B.n != J.q:
        raise ValueError(f"two-form rank {B.n} != q={J.q}")
    cs = spinor_cliffords(J)
    return pair_action(B, cs, cs)


# -- exact root extraction for the skew eigenproblem -------------------------

def _real_roots_in_field(coeffs: list[Scalar]) -> list[Scalar]:
    """All roots of a monic real polynomial (descending coefficients) of
    degree at most 2, known to split over Q(sqrt2) with real roots.

    This covers the mu^2-polynomial of a two-form and the parity blocks of
    its curvature action for q <= 4.  Degrees 1 and 2 are closed-form, the
    square root of the discriminant exact; a root outside Q(sqrt2) raises,
    and so does a degree above 2."""
    deg = len(coeffs) - 1
    if deg > 2:
        raise ValueError("exact roots implemented up to degree 2 (q <= 4), "
                         f"not degree {deg}")
    if deg == 0:
        return []
    if deg == 1:
        return [-coeffs[1]]
    b, c = coeffs[1], coeffs[2]
    s = (b * b - rational(4) * c).sqrt()
    half = rational(1, 2)
    return [(-b + s) * half, (-b - s) * half]


def skew_invariants(B: Mat) -> tuple[tuple[Scalar, ...], Scalar, Scalar]:
    """Exact (mu-list descending, lambda, m) for a non-degenerate two-form
    of rank q <= 4.

    The mu_j are the positive numbers with spec(K) = {+-i mu_j}; lambda is
    their sum and m their minimum.  The mu_j^2 are the roots of a polynomial
    of degree q/2, found in closed form (`_real_roots_in_field`), so a
    larger q raises ValueError."""
    K = k_matrix(B)
    q = K.n
    if q % 2:
        raise ValueError("two-form rank must be even")
    cp = K.charpoly()
    for k in range(1, q + 1, 2):
        if not cp[k].is_zero():
            raise ValueError("characteristic polynomial of a skew matrix must be even")
    l = q // 2
    # char(K) = prod (x^2 + mu^2)  =>  phi(y) = prod (y - mu^2), y = -x^2
    phi = [cp[2 * j] if j % 2 == 0 else -cp[2 * j] for j in range(l + 1)]
    if phi[-1].is_zero():
        raise DegenerateCurvature("degenerate curvature: zero eigenvalue")
    roots = _real_roots_in_field(phi)
    mus = []
    for y in roots:
        if not y.is_real() or y.sign() <= 0:
            raise DegenerateCurvature("degenerate curvature: nonpositive mu^2")
        mus.append(y.sqrt())
    mus.sort(reverse=True)  # exact order: distinct mus may round to one float
    return tuple(mus), sum(mus, ZERO), mus[-1]


def check_compatible(B: Mat, J: ComplexStructure) -> Mat:
    """Validate the standing hypothesis and return the positive matrix K J."""
    validate_two_form(B)
    jm = J.jmat
    BJ = B @ jm
    if BJ != jm @ B:  # for orthogonal J, J^T B J = B is B J = J B
        raise IncompatiblePair("B(J., J.) != B")
    P = BJ.scale(I)  # K J = i B J, symmetric: (K J)^T = J^T K^T = J K = K J
    if not P.is_pd():
        raise IncompatiblePair("i B(v, Jv) not positive definite")
    return P


def trace_plus(B: Mat, J: ComplexStructure) -> Scalar:
    """lambda = sum of the mu_j, computed as tr(K J)/2 without eigenvalues."""
    P = check_compatible(B, J)
    return P.trace() * rational(1, 2)


class BottomEigenReport(namedtuple("BottomEigenReport", "lam exact_zero max_abs")):
    """Residual of (curvature action + lambda) on the bottom component."""
    __slots__ = ()


def check_rl1(A: Mat, lam: Scalar) -> BottomEigenReport:
    """Verify that the curvature action A = two_form_action(B, J) is
    multiplication by -lambda on the bottom (0-degree) component of the
    spinor fiber, exactly, with lambda = tr(KJ)/2 from `trace_plus`."""
    out = {i: v for (i, j), v in A.d.items() if j == 0}
    accumulate(out, 0, lam)  # residual = action + lambda on the bottom vector
    residual_max = max((v.abs_float() for v in out.values()), default=0.0)
    return BottomEigenReport(lam=lam, exact_zero=not out, max_abs=residual_max)


class OddBoundReport(namedtuple("OddBoundReport", "bound lam m psd_ok attained")):
    """Exact lower-bound certificate for the curvature action on the odd
    part: bound = -(lambda - 2m); psd_ok, the action restricted to the odd
    part is >= bound; attained, the bound is an eigenvalue."""
    __slots__ = ()


def odd_lower_bound(A: Mat, mus: tuple[Scalar, ...]) -> OddBoundReport:
    """Certify (A u, u) >= -(lambda - 2m) |u|^2 on the odd part, for the
    curvature action A = two_form_action(B, J) of a compatible pair whose
    two-form B has the invariants `mus` (see `skew_invariants`).

    One characteristic polynomial of the shifted odd-odd block of A gives
    its inertia: the bound holds when no eigenvalue is negative, and is
    attained when one is zero."""
    lam = sum(mus, ZERO)
    m = min(mus)  # exact order, as in `skew_invariants`
    bound = m + m - lam
    _, odd = parity_indices(A.n.bit_length() - 1)
    sub = A.submatrix(odd, odd)
    _, zero, negative = (sub - Mat.scalar(sub.n, bound)).inertia()
    return OddBoundReport(bound=bound, lam=lam, m=m, psd_ok=negative == 0,
                          attained=zero > 0)


# ---------------------------------------------------------------------------
# random exact data for batteries

_HALF_SQRT2 = SQRT2 * rational(1, 2)


def random_orthogonal(rng: random.Random, q: int) -> Mat:
    """Exact orthogonal matrix: two rational Givens rotations, each
    occasionally a sqrt2/2 rotation, and a signed permutation.

    Two rounds with small tangents keep downstream fraction heights low;
    the signed permutation still mixes every coordinate.  The rotations act
    on the columns of the identity and the permutation on its rows, as the
    products P G1 G2 would."""
    O = {(a, a): ONE for a in range(q)}
    for _ in range(2):
        i, j = rng.sample(range(q), 2)
        if rng.random() < 0.25:
            c, s = _HALF_SQRT2, _HALF_SQRT2
        else:
            num = rng.randint(-3, 3)  # tangent t = num / den
            den = rng.randint(1, 3)
            norm = den * den + num * num
            c = rational(den * den - num * num, norm)
            s = rational(2 * num * den, norm)
        for r in range(q):  # columns i, j of O times [[c, -s], [s, c]]
            x, y = O.pop((r, i), None), O.pop((r, j), None)
            if x is None:
                if y is None:
                    continue
                new = (s * y, c * y)
            elif y is None:
                new = (c * x, -(s * x))
            else:
                new = (c * x + s * y, c * y - s * x)
            for col, v in zip((i, j), new):
                if v:
                    O[(r, col)] = v
    perm = list(range(q))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(q)]
    # row r moves to row perm[r], times signs[r]
    return Mat._of(q, q, {(perm[r], col): v if signs[r] == 1 else -v
                          for (r, col), v in O.items()})



def random_mu(rng: random.Random) -> Scalar:
    """Positive field element; occasionally with a sqrt2 part."""
    base = rational(rng.randint(1, 9), rng.randint(1, 4))
    if rng.random() < 0.2:
        return base + SQRT2 * rational(rng.randint(0, 2))
    return base


def block_two_form(mus) -> Mat:
    """Standard-frame two-form with B(f_{2j-1}, f_{2j}) = -i mu_j."""
    return _times_block_skew(Mat.identity(2 * len(mus)), [-I * Scalar.of(mu) for mu in mus])


def random_compatible_pair(rng: random.Random, q: int) \
        -> tuple[Mat, ComplexStructure, tuple[Scalar, ...]]:
    """Sample (B, J, mu-list) satisfying the compatibility hypothesis exactly:
    conjugate the standard structure and a block two-form by one exact
    orthogonal matrix."""
    if q % 2:
        raise ValueError("codimension must be even")
    mus = tuple(random_mu(rng) for _ in range(q // 2))
    O = random_orthogonal(rng, q)
    J = ComplexStructure.from_orthogonal(O)
    B = _times_block_skew(O, [-I * mu for mu in mus]) @ O.transpose()
    return B, J, mus


class BatteryResult(namedtuple("BatteryResult", "trials all_exact all_margin_nonneg failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def fiber_battery(rng: random.Random, q: int, trials: int) -> BatteryResult:
    """Randomized exact battery: for `trials` compatible pairs check that the
    curvature action is -lambda on the bottom component (zero residual) and
    that the odd-part lower bound holds with nonnegative margin.

    Compatibility is validated once per pair, the curvature action built
    once and read by both certificates; the mu-list sampled by the
    generator is cross-checked against tr(KJ)/2."""
    if q % 2:
        raise ValueError("codimension must be even")
    failures = []
    all_exact = True
    all_nonneg = True
    for trial in range(trials):
        B, J, mus = random_compatible_pair(rng, q)
        lam = trace_plus(B, J)
        A = two_form_action(B, J)
        rep = check_rl1(A, lam)
        if not rep.exact_zero or lam != sum(mus, ZERO):
            all_exact = False
            failures.append(_pair_failure(trial, "bottom-eigenvalue", B, J))
            continue
        ob = odd_lower_bound(A, mus)
        if not (ob.psd_ok and ob.attained):
            all_nonneg = all_nonneg and ob.psd_ok
            failures.append(_pair_failure(trial, "odd-lower-bound", B, J))
    return BatteryResult(trials=trials, all_exact=all_exact,
                         all_margin_nonneg=all_nonneg, failures=tuple(failures))


def _pair_failure(trial: int, kind: str, B: Mat, J: ComplexStructure) -> dict:
    def fmt(M: Mat):
        return [[format_scalar(M.entry(i, j)) for j in range(M.m)] for i in range(M.n)]

    return {"trial": trial, "check": kind, "B": fmt(B), "J": fmt(J.jmat)}
