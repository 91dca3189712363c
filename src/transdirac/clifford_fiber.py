"""Exact Clifford and exterior algebra of the normal fiber.

Basis bookkeeping is by bitmask: the exterior monomial f_{i1} ^ ... ^ f_{ik}
(indices ascending, bits 0-based) is the integer with those bits set.  Every
action is a matrix on that basis; the two fibers in play are

* the full exterior algebra on q generators (dimension 2^q), on which the
  Clifford algebra acts by c(f) = ext(f*) - int(f), and
* the spinor fiber attached to an orthogonal complex structure J: the
  exterior algebra on the l = q/2 anti-holomorphic covectors, on which
  c(f) = sqrt(2) (ext of the (1,0)-part dual - int of the (0,1)-part),
  built from ext/int on the l generators (`spinor_cliffords`).

A vector v acts through the generators by linearity, c(v) = sum_a v_a c(f_a)
(`vector_action`), a two-form X by sum_{a<b} X_ab c(f_a) c(f_b)
(`pair_action`), and a skew endomorphism A through its spin lift
(1/4) sum A_gb c(f_b) c(f_g), which is -(1/2) pair_action(A) (`spin_lift`).
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
from fractions import Fraction

from .exact import I, ONE, SQRT2, ZERO, Scalar, rational
from .matrices import Mat, accumulate, apply_to_vector


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


def _bit_matrix(n_gen: int, j: int, action) -> Mat:
    dim = 1 << n_gen
    entries = {}
    for mask in range(dim):
        new, sg = action(mask, j)
        if sg:
            entries[(new, mask)] = rational(sg)
    return Mat(dim, dim, entries)


def ext_matrix(n_gen: int, j: int) -> Mat:
    """Wedge by generator j (0-based) on the exterior algebra of n_gen."""
    return _bit_matrix(n_gen, j, ext_bit)


def int_matrix(n_gen: int, j: int) -> Mat:
    """Contraction by generator j (0-based) on the exterior algebra of n_gen."""
    return _bit_matrix(n_gen, j, int_bit)


def vector_action(vec, gens: tuple[Mat, ...]) -> Mat:
    """sum_a vec_a gens[a]: the action of the vector with components `vec`
    through the actions `gens` of the basis vectors (Clifford, wedge or
    contraction alike)."""
    acc = Mat.zero(gens[0].n)
    for a, comp in enumerate(vec):
        comp = Scalar.of(comp)
        if not comp.is_zero():
            acc = acc + gens[a].scale(comp)
    return acc


def pair_action(X: Mat, cliffords: tuple[Mat, ...]) -> Mat:
    """sum_{a<b} X_ab c(f_a) c(f_b); for an antisymmetric X this is
    (1/2) sum_{a,b} X_ab c(f_a) c(f_b)."""
    acc = Mat.zero(cliffords[0].n)
    for (a, b), coeff in X.d.items():
        if a < b:
            acc = acc + (cliffords[a] @ cliffords[b]).scale(coeff)
    return acc


def spin_lift(A: Mat, cliffords: tuple[Mat, ...]) -> Mat:
    """(1/4) sum_{g,b} A_gb c(f_b) c(f_g) for a skew endomorphism A of the
    horizontal space; its commutator with c(v) is c(A v).  The Clifford
    generators anticommute, so this is -(1/2) sum_{a<b} A_ab c(f_a) c(f_b)."""
    return pair_action(A, cliffords).scale(rational(-1, 2))


# ---------------------------------------------------------------------------
# complex structures and the spinor fiber

def standard_j_matrix(q: int) -> Mat:
    entries = {}
    for j in range(q // 2):
        entries[(2 * j + 1, 2 * j)] = ONE       # J f_{2j+1} = f_{2j+2}
        entries[(2 * j, 2 * j + 1)] = -ONE      # J f_{2j+2} = -f_{2j+1}
    return Mat(q, q, entries)


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
        eye = Mat.identity(q)
        if jmat @ jmat != eye.scale(rational(-1)):
            raise ValueError("J^2 != -Identity")
        if jmat.transpose() @ jmat != eye:
            raise ValueError("J not orthogonal")
        if len(frame) != q:
            raise ValueError("adapted frame must have q vectors")
        fmat = Mat(q, q, {(i, a): frame[a][i] for a in range(q)
                          for i in range(q) if not frame[a][i].is_zero()})
        if fmat.transpose() @ fmat != eye:
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
        jm = standard_j_matrix(q)
        frame = tuple(tuple(ONE if t == a else ZERO for t in range(q)) for a in range(q))
        return ComplexStructure(jm, frame)

    @staticmethod
    def from_orthogonal(O: Mat) -> "ComplexStructure":
        """Conjugate the standard structure: J = O J0 O^T, frame = columns of O."""
        q = O.n
        j0 = standard_j_matrix(q)
        jm = O @ j0 @ O.transpose()
        frame = tuple(tuple(O.entry(i, a) for i in range(q)) for a in range(q))
        return ComplexStructure(jm, frame)

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
    chi_ja = g(f_a, v_j) + i g(f_a, J v_j), a lookup of frame components."""
    l = J.l
    ext = tuple(ext_matrix(l, j) for j in range(l))
    cont = tuple(int_matrix(l, j) for j in range(l))
    out = []
    for a in range(J.q):
        chi = [J.frame[2 * j][a] + I * J.frame[2 * j + 1][a] for j in range(l)]
        out.append(vector_action(chi, ext)
                   - vector_action([x.conjugate() for x in chi], cont))
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
    return pair_action(B, spinor_cliffords(J))


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
    mus.sort(key=lambda s: float(s), reverse=True)
    return tuple(mus), sum(mus, ZERO), mus[-1]


def check_compatible(B: Mat, J: ComplexStructure) -> Mat:
    """Validate the standing hypothesis and return the positive matrix K J."""
    K = k_matrix(B)
    jm = J.jmat
    if jm.transpose() @ B @ jm != B:
        raise IncompatiblePair("B(J., J.) != B")
    P = K @ jm
    if not P.is_symmetric():
        raise IncompatiblePair("K J not symmetric")
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
    m = min(mus, key=float)
    bound = rational(2) * m - lam
    _, odd = parity_indices(A.n.bit_length() - 1)
    sub = A.submatrix(odd, odd)
    _, zero, negative = (sub - Mat.identity(sub.n).scale(bound)).inertia()
    return OddBoundReport(bound=bound, lam=lam, m=m, psd_ok=negative == 0,
                          attained=zero > 0)


# ---------------------------------------------------------------------------
# random exact data for batteries

def random_orthogonal(rng: random.Random, q: int) -> Mat:
    """Exact orthogonal matrix: two rational Givens rotations, each
    occasionally a sqrt2/2 rotation, and a signed permutation.

    Two rounds with small tangents keep downstream fraction heights low;
    the signed permutation still mixes every coordinate."""
    O = Mat.identity(q)
    half_sqrt2 = SQRT2 * rational(1, 2)
    for _ in range(2):
        i, j = rng.sample(range(q), 2)
        if rng.random() < 0.25:
            c, s = half_sqrt2, half_sqrt2
        else:
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            c = rational(1 - t * t) / rational(1 + t * t)
            s = rational(2 * t) / rational(1 + t * t)
        G = {(a, a): ONE for a in range(q) if a not in (i, j)}
        G[(i, i)] = c
        G[(j, j)] = c
        G[(i, j)] = -s
        G[(j, i)] = s
        O = O @ Mat(q, q, G)
    perm = list(range(q))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(q)]
    P = Mat(q, q, {(perm[a], a): rational(signs[a]) for a in range(q)})
    return P @ O


def random_mu(rng: random.Random) -> Scalar:
    """Positive field element; occasionally with a sqrt2 part."""
    base = rational(rng.randint(1, 9), rng.randint(1, 4))
    if rng.random() < 0.2:
        return base + SQRT2 * rational(rng.randint(0, 2))
    return base


def block_two_form(mus) -> Mat:
    """Standard-frame two-form with B(f_{2j-1}, f_{2j}) = -i mu_j."""
    entries = {}
    for j, mu in enumerate(mus):
        v = -I * Scalar.of(mu)
        entries[(2 * j, 2 * j + 1)] = v
        entries[(2 * j + 1, 2 * j)] = -v
    q = 2 * len(mus)
    return Mat(q, q, entries)


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
    B0 = block_two_form(mus)
    B = O @ B0 @ O.transpose()
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
    from .exact import format_scalar

    def fmt(M: Mat):
        return [[format_scalar(M.entry(i, j)) for j in range(M.m)] for i in range(M.n)]

    return {"trial": trial, "check": kind, "B": fmt(B), "J": fmt(J.jmat)}
