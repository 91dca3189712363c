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

import math
import random
from collections import namedtuple
from fractions import Fraction

from .exact import F0, I, ONE, SQRT2, ZERO, Scalar, _pair_sign, rational
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

def _poly_eval(coeffs: list[Scalar], x: Scalar) -> Scalar:
    acc = ZERO
    for c in coeffs:
        acc = acc * x + c
    return acc


def _real_roots_in_field(coeffs: list[Scalar]) -> list[Scalar]:
    """All roots of a monic real polynomial (descending coefficients) known
    to split over Q(sqrt2) with real roots.

    Degrees 1 and 2 are closed-form.  Higher degrees find one root exactly
    (`_find_field_root`), deflate, and recurse; a root outside Q(sqrt2)
    raises."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-coeffs[1]]
    if deg == 2:
        b, c = coeffs[1], coeffs[2]
        disc = b * b - rational(4) * c
        s = disc.sqrt()
        half = rational(1, 2)
        return [(-b + s) * half, (-b - s) * half]
    root = _find_field_root(coeffs)
    rest = _poly_divmod(coeffs, [ONE, -root])[0]
    return [root] + _real_roots_in_field(rest)


def _poly_divmod(num: list[Scalar], den: list[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
    """Quotient and remainder of num by den, the remainder's leading zeros
    stripped."""
    num = list(num)
    inv = den[0].inverse()
    quot = []
    while len(num) >= len(den):
        f = num[0] * inv
        quot.append(f)
        num = [a - f * b for a, b in zip(num[1:], den[1:])] + num[len(den):]
    while num and num[0].is_zero():
        num.pop(0)
    return quot, num


def _integral(poly: list[Scalar]) -> list[tuple[int, int]]:
    """poly times the common denominator of its coefficients, as integer
    pairs (a, b) of a + b sqrt2."""
    den = math.lcm(*(x.denominator for c in poly for x in (c.ra, c.rb)))
    return [(int(c.ra * den), int(c.rb * den)) for c in poly]


def _sturm_chain(coeffs: list[Scalar]) -> tuple[list[list[tuple[int, int]]], list[tuple[int, int]]]:
    """Sturm sequence p, p', -rem(p, p'), ... and the squarefree part
    p / gcd(p, p'), each scaled by a positive number to integer
    coefficients, which keeps its signs."""
    deg = len(coeffs) - 1
    chain = [coeffs, [c * (deg - i) for i, c in enumerate(coeffs[:-1])]]
    while len(chain[-1]) > 1:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    gcd = chain[-1]
    squarefree = _poly_divmod(coeffs, [c / gcd[0] for c in gcd])[0]
    return [_integral(poly) for poly in chain], _integral(squarefree)


def _sign_at(poly: list[tuple[int, int]], num: int, e: int) -> int:
    """Exact sign of poly at num / 2^e: Horner on 2^(e deg) poly(num / 2^e)."""
    a = b = 0
    scale = 1
    for ca, cb in poly:
        a, b = a * num + ca * scale, b * num + cb * scale
        scale <<= e
    return _pair_sign(a, b)


def _sign_changes(chain: list[list[tuple[int, int]]], num: int, e: int) -> int:
    signs = [sg for sg in (_sign_at(poly, num, e) for poly in chain) if sg]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _isolate(coeffs: list[Scalar], den: int) -> list[tuple[Fraction, Fraction]] | Scalar:
    """Open intervals narrower than 1/den, one around each distinct real root
    of a monic polynomial; or a rational root that a bisection point hit.

    Sturm counts split (-2^k, 2^k) until each interval holds one root, and
    `_refine` narrows it.  Points are dyadic, num / 2^e, so every sign is an
    exact integer computation."""
    chain, squarefree = _sturm_chain(coeffs)
    # 2^k above the Cauchy bound 1 + max |c_i|, with 3/2 > sqrt2
    bound = 1 + max(abs(c.ra) + Fraction(3, 2) * abs(c.rb) for c in coeffs[1:])
    top = 1 << math.ceil(bound).bit_length()
    stack = [(-top, _sign_changes(chain, -top, 0), top, _sign_changes(chain, top, 0), 0)]
    out = []
    while stack:
        lo, vlo, hi, vhi, e = stack.pop()
        if vlo - vhi == 1:
            found = _refine(squarefree, lo, hi, e, den)
            if isinstance(found, Scalar):
                return found
            out.append(found)
        elif vlo - vhi > 1:
            mid = lo + hi
            if _sign_at(squarefree, mid, e + 1) == 0:
                return Scalar._mk(Fraction(mid, 2 << e), F0, F0, F0)
            vmid = _sign_changes(chain, mid, e + 1)
            stack += [(2 * lo, vlo, mid, vmid, e + 1), (mid, vmid, 2 * hi, vhi, e + 1)]
    return out


def _refine(squarefree: list[tuple[int, int]], lo: int, hi: int, e: int,
            den: int) -> tuple[Fraction, Fraction] | Scalar:
    """Halve (lo, hi) / 2^e, which holds one root of the squarefree part, by
    the sign change there, until narrower than 1/den; or return the root if
    a midpoint hits it."""
    sg_lo = _sign_at(squarefree, lo, e)
    while (hi - lo) * den >= 1 << e:
        mid = lo + hi
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        sg = _sign_at(squarefree, mid, e)
        if sg == 0:
            return Scalar._mk(Fraction(mid, 1 << e), F0, F0, F0)
        if sg == sg_lo:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, 1 << e), Fraction(hi, 1 << e)


def _find_field_root(coeffs: list[Scalar]) -> Scalar:
    """One root in Q(sqrt2) of a monic real polynomial, found and verified
    exactly.

    D (the common denominator of the coefficients) times a root in Q(sqrt2)
    is an algebraic integer of Q(sqrt2), that is in Z[sqrt2], so the root is
    (m + k sqrt2)/D with m, k integers; its Galois conjugate (m - k sqrt2)/D
    is a root of the conjugate polynomial.  The real roots of both are
    isolated in intervals narrower than 1/(2D); each pairing of a root with
    a conjugate root then leaves one candidate m = D(r + s)/2 and one k with
    k sqrt2 = D r - m, checked by exact evaluation."""
    D = math.lcm(*(x.denominator for c in coeffs for x in (c.ra, c.rb)))
    roots = _isolate(coeffs, 2 * D)
    if isinstance(roots, Scalar):
        return roots
    # a rational root of the conjugate polynomial is a root of this one
    conj = _isolate([Scalar._mk(c.ra, -c.rb, F0, F0) for c in coeffs], 2 * D)
    if isinstance(conj, Scalar):
        return conj
    for lo_r, hi_r in roots:
        for lo_s, hi_s in conj:
            for m in range(math.ceil(D * (lo_r + lo_s) / 2),
                           math.floor(D * (hi_r + hi_s) / 2) + 1):
                # k sqrt2 lies in (t, t + 1/2) for t = D lo_r - m, and t/sqrt2
                # is irrational unless t = 0, so k = floor(t/sqrt2) + 1
                t = D * lo_r - m
                j = math.isqrt(math.floor(t * t / 2))
                k = j + 1 if t >= 0 else -j
                cand = Scalar._mk(Fraction(m, D), Fraction(k, D), F0, F0)
                if _poly_eval(coeffs, cand).is_zero():
                    return cand
    raise ValueError("eigenvalue data does not lie in Q(sqrt2)")


def skew_invariants(B: Mat) -> tuple[tuple[Scalar, ...], Scalar, Scalar]:
    """Exact (mu-list descending, lambda, m) for a non-degenerate two-form.

    The mu_j are the positive numbers with spec(K) = {+-i mu_j}; lambda is
    their sum and m their minimum."""
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
