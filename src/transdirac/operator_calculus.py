"""Normal-ordered calculus of invariant differential operators on fiber
bundles over a frame model, and the exact verification of the operator
identities relating Dirac squares, Bochner Laplacians and curvature terms.

An operator is a finite sum  sum_w  M_w * nabla_{w_1} ... nabla_{w_d}
with constant endomorphism coefficients M_w and nondecreasing index words w
(leaf directions sort before horizontal ones).  Composition rewrites into
this normal form with the two exchange rules

    nabla_u M       = M nabla_u + [Gamma_u, M],
    nabla_u nabla_v = nabla_v nabla_u + nabla_[u,v] + F(u, v),

where Gamma_u are the setup's connection matrices and F its curvature: that
of the Gamma_u, F_Gamma(u, v) = [Gamma_u, Gamma_v] - sum_m c^m_uv Gamma_m,
plus on horizontal pairs the formal scalar k B of the k-th power of the line
bundle, which is NOT the curvature of any constant connection matrix.

The rewriting is confluent, so equal operators reach identical normal forms
and identity checking is a finite exact matrix comparison, and a BundleSetup
checks none of it.  Confluence needs, on every triple (x, y, z), the cyclic
sum of sum_m c^m_xy F(m, z) - [Gamma_z, F(x, y)] to vanish.  For F_Gamma
this is an identity once Jacobi holds, whatever the constant Gamma_u; k B
commutes with every Gamma_z and leaves -k dB(x, y, z).  Only
`derive_connection` makes a ConnectionData, and `frame_geometry.validate`
refuses a model without Jacobi or with dB != 0.  A valid model (antisymmetric,
Jacobi, involutive, bundle-like) also makes every A_u skew, and both lifts,
`spin_lift` and the forms derivation sum_{g,b} (A_u)_gb eps_g iota_b, are
Lie-algebra homomorphisms of so(q).  So each Gamma_u is skew-Hermitian,
satisfies [Gamma_u, c(v)] = c(A_u v), and has curvature F_Gamma = lift(R),
which vanishes on leaf pairs because the Bott connection is leafwise flat.
`tests/exact_oracle.setup_consistency` checks all four on the setups of the
bundled and generated models.

`compose` rewrites a sum of products into one normal form, so the two
products of the Hodge Laplacian d_H d_H^* + d_H^* d_H are never held at
once.  The rewriting adds no matrices: it records the factor pair (L, R) of
every product under the word it reaches, and each word of the normal form is
then one `matrices.product_sum` over its pairs.

The Bochner operator sum_a (nabla_{f_a})^* nabla_{f_a} is written in closed
form, -sum_a (nabla_{f_a}^2 + div(f_a) nabla_{f_a}), from the formal adjoint
(nabla_u)^* = -nabla_u - div(u) of a skew-Hermitian connection for the L^2
pairing with invariant volume.  Each constant coefficient that is a sum of
matrices or of matrix products (the forms connection, the curvature and tau
contractions, the integrability term) is one call of `matrices.combination`
or `matrices.product_sum`, which reduce each entry once.  So is the constant term of each Dirac-square right-hand side: a
multiple of the identity, whose scalar sums the |tau|^2, d_H^* tau and K
terms, plus in (a) and (c) the contraction sum_a c(f_a) c(nabla_{f_a} tau).
These quantities, the divergences and the integrability two-forms R^i are
read from the model's ConnectionData, and the rewriting rule for
nabla_[u,v] reads the terms of the model's bracket table: outside that rule
and `frame_geometry.curvature`, which makes F_Gamma, nothing here reads a
structure constant.  One helper,
`_pair_term`, builds every pair term
sum_{a<b} left[a] right[b] (X_ab - nabla_{R(f_a,f_b)}) of the right-hand
sides: the Clifford curvature terms of the Dirac squares, the curvature and
integrability terms of the transversal Bochner formula, and d_H^2, (d_H^*)^2.
Its leaf word nabla_{e_i} is minus `clifford_fiber.pair_action` of R^i,
and its endomorphism part sum_{a<b} left[a] right[b] X_ab is
`_pair_contraction`, which forms a product only where X_ab != 0 and also
builds the curvature contraction of item (d) and the wedge-wedge and
contraction-contraction traces of item (h) of the suite.
"""

from __future__ import annotations

from collections import namedtuple

from .clifford_fiber import ext_matrix, int_matrix, pair_action, spin_lift, spinor_cliffords
from .exact import ZERO, Scalar, rational
from .frame_geometry import (ConnectionData, FrameModel, complex_structure, curvature,
                             derive_connection, require_valid, spin_connection)
from .matrices import Mat, accumulate, combination, commutator, product_sum


class SetupError(ValueError):
    """Bundle data that cannot be used: a connection matrix of the wrong
    fiber dimension, k != 0 without a line bundle, operators over different
    setups, or a forms operator on the spinor fiber."""


class BundleSetup:
    """Frozen bundle data for the operator calculus over one frame model.

    Fields:
      model, geom    -- the validated model and its derived connection data
      cliff[a]       -- Clifford action of the horizontal basis vector f_(a+1);
                        the fiber dimension `dim` is the size of these
      eps/iota[a]    -- wedge/contraction operators, None on a spinor fiber:
                        a setup with eps is on the forms fiber
      gamma[u]       -- connection matrix per frame direction (n of them)
      k              -- power of the model's line bundle, whose two-form
                        model.line_b (units of 2*pi) then enters the curvature
      J              -- the complex structure of a spinor fiber, else None
      curv[(u,v)]    -- full curvature F(u_u, u_v), for every ordered pair

    A setup trusts its ConnectionData, which proves the model valid; the
    module docstring derives why that makes it consistent.  It checks only
    what a caller building one by hand can get wrong: that every gamma[u]
    acts on the fiber of the generators, and that k != 0 comes with a line
    bundle.
    """

    __slots__ = ("model", "geom", "cliff", "eps", "iota", "gamma", "k", "J", "curv")

    def __init__(self, model: FrameModel, geom: ConnectionData, cliff, gamma, k, J,
                 eps, iota):
        self.model = model
        self.geom = geom
        self.cliff = tuple(cliff)
        self.eps = tuple(eps) if eps is not None else None
        self.iota = tuple(iota) if iota is not None else None
        self.gamma = tuple(gamma)
        self.k = k
        self.J = J
        for u, G in enumerate(self.gamma):
            if (G.n, G.m) != (self.dim, self.dim):
                raise SetupError(f"gamma[{u}] has wrong fiber dimension")
        self.curv = self._curvatures()

    @property
    def dim(self) -> int:
        return self.cliff[0].n

    def _curvatures(self) -> dict[tuple[int, int], Mat]:
        """Curvature of the declared connection plus the formal scalar piece
        k B of L^k on every pair of horizontal directions (B is antisymmetric,
        so each orientation takes its own entry)."""
        out = curvature(self.model, self.gamma)
        if self.k:
            line_b = self.model.line_b
            if line_b is None:
                raise SetupError("k != 0 requires a line bundle on the model")
            p, eye = self.model.p, Mat.identity(self.dim)
            for (a, b), s in line_b.d.items():
                key = (p + a, p + b)
                out[key] = out[key] + eye.scale(s * rational(self.k))
        return out


def spinor_setup(model: FrameModel, geom: ConnectionData, k: int) -> BundleSetup:
    """Bundle setup on the spinor fiber twisted by the k-th power of the
    model's line bundle (its curvature enters as a formal scalar), over the
    connection data `geom` of the model."""
    require_valid(model)
    J = complex_structure(model)
    cs = spinor_cliffords(J)
    gamma = spin_connection(J, cs, geom.transverse)
    return BundleSetup(model, geom, cs, gamma, k, J, None, None)


def forms_setup(model: FrameModel, geom: ConnectionData) -> BundleSetup:
    """Bundle setup on the full horizontal exterior algebra (untwisted), over
    the connection data `geom` of the model."""
    require_valid(model)
    q = model.q
    eps = tuple(ext_matrix(q, a) for a in range(q))
    iota = tuple(int_matrix(q, a) for a in range(q))
    cliff = tuple(eps[a] - iota[a] for a in range(q))
    # Gamma_u = sum_{g,b} (A_u)_gb eps_g iota_b = sum_g eps_g (sum_b (A_u)_gb iota_b)
    gamma = [product_sum(zip(eps, (combination(row, iota) for row in Au.rows())))
             for Au in geom.transverse]
    return BundleSetup(model, geom, cliff, gamma, 0, None, eps, iota)


# ---------------------------------------------------------------------------
# the operator algebra

class DiffOp:
    """Invariant differential operator in normal form over a BundleSetup."""

    __slots__ = ("setup", "terms")

    def __init__(self, setup: BundleSetup, terms: dict[tuple, Mat]):
        self.setup = setup
        self.terms = {w: M for w, M in terms.items() if not M.is_zero()}

    def _check(self, other: "DiffOp"):
        if self.setup is not other.setup:
            raise SetupError("operators live over different bundle setups")

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        out = dict(self.terms)
        for w, M in other.terms.items():
            accumulate(out, w, M)
        return DiffOp(self.setup, out)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + other.scale(rational(-1))

    def __neg__(self) -> "DiffOp":
        return self.scale(rational(-1))

    def scale(self, s) -> "DiffOp":
        s = Scalar.of(s)
        return DiffOp(self.setup, {w: M.scale(s) for w, M in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.setup is other.setup and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        return compose(((self, other),))

    def __repr__(self):
        words = sorted(self.terms, key=lambda w: (len(w), w))
        return f"DiffOp[{', '.join(monomial(w) for w in words)}]"


def monomial(word: tuple) -> str:
    """The name of nabla_word, as "∇1*∇2" (directions from 1), "1" when empty."""
    return "*".join(f"∇{u + 1}" for u in word) if word else "1"


def endo_op(setup: BundleSetup, M: Mat) -> DiffOp:
    return DiffOp(setup, {(): M})


def nabla(setup: BundleSetup, u: int) -> DiffOp:
    if not 0 <= u < setup.model.n:
        raise SetupError(f"direction {u} out of range")
    return DiffOp(setup, {(u,): Mat.identity(setup.dim)})


def _push(setup: BundleSetup, seq: tuple, M: Mat) -> list[tuple[tuple, Mat]]:
    """nabla_seq o M as sum C_w nabla_w over order-preserving subwords w."""
    if not seq:
        return [((), M)]
    u = seq[0]
    inner = _push(setup, seq[1:], M)
    Gu = setup.gamma[u]
    out = []
    for w, C in inner:
        out.append(((u,) + w, C))
        comm = commutator(Gu, C)
        if not comm.is_zero():
            out.append((w, comm))
    return out


def _reorder(setup: BundleSetup, L: Mat, R: Mat, word: tuple, acc: dict):
    """Record the factor pair of each term of the normal form of (L R) nabla_word
    in acc, under the term's word."""
    if L.is_zero() or R.is_zero():
        return
    # find first descent
    pos = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
    if pos is None:
        acc.setdefault(word, []).append((L, R))
        return
    u, v = word[pos], word[pos + 1]
    pre, post = word[:pos], word[pos + 2:]
    _reorder(setup, L, R, pre + (v, u) + post, acc)
    for m, coeff in setup.model.brackets.get((u, v), ()):
        _reorder(setup, L, R.scale(coeff), pre + (m,) + post, acc)
    F = setup.curv[(u, v)]
    if not F.is_zero():
        M = L @ R
        for w, C in _push(setup, pre, F):
            _reorder(setup, M, C, w + post, acc)


def compose(pairs) -> DiffOp:
    """Normal form of the sum of the products A B over the (A, B) in `pairs`
    (at least one, all over one setup): the factor pairs of every product
    are gathered per word and each word summed once; exact, associative (the
    rewriting is confluent over a valid model, see the module docstring)."""
    pairs = tuple(pairs)
    first = pairs[0][0]
    setup = first.setup
    acc: dict[tuple, list[tuple[Mat, Mat]]] = {}
    for A, B in pairs:
        first._check(A)
        A._check(B)
        for wA, MA in A.terms.items():
            for wB, MB in B.terms.items():
                for w1, C in _push(setup, wA, MB):
                    _reorder(setup, MA, C, w1 + wB, acc)
    return DiffOp(setup, {w: product_sum(factors) for w, factors in acc.items()})


# ---------------------------------------------------------------------------
# residuals

class Residual(namedtuple("Residual", "exact_zero max_abs worst_monomial", defaults=("",))):
    __slots__ = ()

    def __str__(self):
        if self.exact_zero:
            return "0 (exact)"
        return f"{self.max_abs:.3e} at {self.worst_monomial}"


def residual(A: DiffOp, B: DiffOp) -> Residual:
    """Max coefficient deviation per monomial between two operators, formed
    only on words whose coefficients differ (ties: A's words first, in order)."""
    A._check(B)
    devs = [(w, M.max_abs_float() if N is None else (M - N).max_abs_float())
            for w, M in A.terms.items() if M != (N := B.terms.get(w))]
    devs += [(w, N.max_abs_float()) for w, N in B.terms.items() if w not in A.terms]
    if not devs:
        return Residual(True, 0.0)
    worst_w, worst = max(devs, key=lambda t: t[1])
    return Residual(False, worst, monomial(worst_w))


# ---------------------------------------------------------------------------
# operator builders

def dirac_prime(setup: BundleSetup) -> DiffOp:
    """D' = sum_a c(f_a) nabla_{f_a}."""
    p = setup.model.p
    return DiffOp(setup, {(p + a,): setup.cliff[a] for a in range(setup.model.q)})


def dirac(setup: BundleSetup) -> DiffOp:
    """The transverse Dirac operator D = D' - (1/2) c(tau)."""
    half = rational(1, 2)
    ctau = combination(setup.geom.tau, setup.cliff)
    return dirac_prime(setup) - endo_op(setup, ctau.scale(half))


def bochner(setup: BundleSetup) -> DiffOp:
    """sum_a (nabla_{f_a})^* nabla_{f_a} = -sum_a (nabla_{f_a}^2 + div(f_a) nabla_{f_a}),
    by (nabla_u)^* = -nabla_u - div(u); each word is already in normal form."""
    eye = Mat.identity(setup.dim)
    terms = {}
    for u in range(setup.model.p, setup.model.n):
        terms[(u,)] = eye.scale(-setup.geom.div[u])
        terms[(u, u)] = -eye
    return DiffOp(setup, terms)


def _pair_contraction(setup: BundleSetup, left: tuple[Mat, ...], right: tuple[Mat, ...],
                      two_form) -> Mat:
    """sum_{a<b} left[a] right[b] X_ab for a matrix-valued two-form given as a
    function (setup, a, b) -> Mat.  With the Clifford actions on both sides
    this is (1/2) sum_{a,b} c(f_a) c(f_b) X_ab, by antisymmetry of X."""
    q = len(left)
    pairs = [(left[a] @ right[b], X) for a in range(q) for b in range(a + 1, q)
             if not (X := two_form(setup, a, b)).is_zero()]
    return product_sum(pairs) if pairs else Mat.zero(left[0].n)


def _tau_derivative_term(setup: BundleSetup, left: tuple[Mat, ...],
                         right: tuple[Mat, ...]) -> Mat:
    """sum_a left[a] right(nabla_{f_a} tau), with right(v) the action of the
    vector v through the generator actions `right`."""
    return product_sum(zip(left, (combination(vec, right) for vec in setup.geom.nabla_tau)))


def horizontal_curvature(setup: BundleSetup, a: int, b: int) -> Mat:
    """F(f_a, f_b), the full curvature on horizontal basis vectors."""
    p = setup.model.p
    return setup.curv[(p + a, p + b)]


def c_of_R(setup: BundleSetup, a: int, b: int) -> Mat:
    """c(R)(f_a, f_b) = (1/4) sum_{g,d} (R(f_a,f_b))_{dg} c(f_g) c(f_d)."""
    p = setup.model.p
    return spin_lift(setup.geom.curvature[(p + a, p + b)], setup.cliff)


def twisting_curvature(setup: BundleSetup, a: int, b: int) -> Mat:
    """R^{E/S}(f_a, f_b) = F(f_a, f_b) - c(R)(f_a, f_b)."""
    return horizontal_curvature(setup, a, b) - c_of_R(setup, a, b)


def _pair_term(setup: BundleSetup, left: tuple[Mat, ...], right: tuple[Mat, ...],
               two_form) -> DiffOp:
    """sum_{a<b} left[a] right[b] (X_ab - nabla_{R(f_a,f_b)}), with R(f_a,f_b) =
    sum_i R^i_ab e_i the leafwise integrability field: each leaf word nabla_{e_i} is
    minus `pair_action` of the two-form R^i, the endomorphism part `_pair_contraction`
    of X, a function (setup, a, b) -> Mat or None for X = 0 (the leaf-only part).  With
    the Clifford actions on both sides this is (1/2) sum c(f_a) c(f_b) (X_ab - nabla_R)."""
    terms = {(i,): -pair_action(R, left, right) for i, R in enumerate(setup.geom.integrability)}
    if two_form is not None:
        terms[()] = _pair_contraction(setup, left, right, two_form)
    return DiffOp(setup, terms)


def lichnerowicz_scalar(setup: BundleSetup) -> Scalar:
    """The curvature scalar entering the Dirac-square identity: -K/4 in the
    index convention of scalar_curvature (equal to a quarter of the usual
    scalar-curvature contraction)."""
    return -setup.geom.K * rational(1, 4)


def _dirac_square_rhs(setup: BundleSetup, two_form, scalar: Scalar) -> DiffOp:
    """Bochner - (1/2) sum_a c(f_a) c(nabla_{f_a} tau) - (1/4)|tau|^2 + scalar
    + the Clifford curvature term of `two_form`: the shared form of the two
    Dirac-square right-hand sides."""
    constant = combination(
        (rational(-1, 2), scalar - setup.geom.tau_norm2 * rational(1, 4)),
        (_tau_derivative_term(setup, setup.cliff, setup.cliff), Mat.identity(setup.dim)))
    return (bochner(setup) + endo_op(setup, constant)
            + _pair_term(setup, setup.cliff, setup.cliff, two_form))


def lichnerowicz_rhs(setup: BundleSetup) -> DiffOp:
    """Right-hand side of the Dirac-square identity:

    Bochner - (1/2) sum_a c(f_a) c(nabla_{f_a} tau) - (1/4)|tau|^2
    + S/4 + (1/2) sum_ab c(f_a) c(f_b) [R^{E/S}(f_a,f_b) - nabla_{R(f_a,f_b)}],

    with S/4 the curvature scalar of `lichnerowicz_scalar` and the last
    nabla along the leafwise integrability field."""
    return _dirac_square_rhs(setup, twisting_curvature, lichnerowicz_scalar(setup))


def dirac_prime_square_rhs(setup: BundleSetup) -> DiffOp:
    """RHS for (D')^2: Bochner - nabla_tau
    + (1/2) sum c c [F(f_a,f_b) - nabla_{R(f_a,f_b)}]."""
    p = setup.model.p
    eye = Mat.identity(setup.dim)
    nabla_tau = DiffOp(setup, {(p + a,): eye.scale(t) for a, t in enumerate(setup.geom.tau)})
    return (bochner(setup) - nabla_tau
            + _pair_term(setup, setup.cliff, setup.cliff, horizontal_curvature))


def dirac_square_full_curvature_rhs(setup: BundleSetup) -> DiffOp:
    """RHS for D^2 with the undecomposed curvature:
    Bochner - (1/2) sum c c(nabla tau) - (1/4)|tau|^2
    + (1/2) sum c c [F(f_a,f_b) - nabla_{R(f_a,f_b)}]."""
    return _dirac_square_rhs(setup, horizontal_curvature, ZERO)


# -- transversal de Rham operators (forms fiber) ------------------------------

def _require_forms(setup: BundleSetup):
    if setup.eps is None:
        raise SetupError("operator requires the exterior-algebra fiber")


def d_horizontal(setup: BundleSetup) -> DiffOp:
    """d_H = sum_a eps(f_a) nabla_{f_a}."""
    _require_forms(setup)
    p = setup.model.p
    return DiffOp(setup, {(p + a,): setup.eps[a] for a in range(setup.model.q)})


def d_horizontal_star(setup: BundleSetup) -> DiffOp:
    """d_H^* = -sum_a iota(f_a) nabla_{f_a} + iota(tau)."""
    _require_forms(setup)
    p = setup.model.p
    terms: dict[tuple, Mat] = {(p + a,): -setup.iota[a] for a in range(setup.model.q)}
    terms[()] = combination(setup.geom.tau, setup.iota)
    return DiffOp(setup, terms)


def hodge_laplacian(setup: BundleSetup) -> DiffOp:
    """Delta_H = d_H d_H^* + d_H^* d_H, both products in one normal form."""
    dH = d_horizontal(setup)
    dHs = d_horizontal_star(setup)
    return compose(((dH, dHs), (dHs, dH)))


def signature_rhs(setup: BundleSetup) -> DiffOp:
    """D_H - (1/2)(eps(tau) + iota(tau)) with the signature operator
    D_H = d_H + d_H^*: the Dirac operator of the exterior fiber."""
    tau = setup.geom.tau
    shift = combination(tau + tau, setup.eps + setup.iota)
    return (d_horizontal(setup) + d_horizontal_star(setup)
            - endo_op(setup, shift.scale(rational(1, 2))))


def hodge_bochner_rhs(setup: BundleSetup) -> DiffOp:
    """RHS of the transversal Bochner formula:
    sum nabla^* nabla + sum_a eps(f_a) iota(nabla_{f_a} tau)
    - sum_{a,b} eps(f_a) iota(f_b) (F(f_a,f_b) - nabla_{R(f_a,f_b)}),
    whose sum over all (a, b) is the (eps, iota) and (iota, eps) pair terms
    over a < b, since eps_b iota_a = -iota_a eps_b for a != b."""
    _require_forms(setup)
    acc = bochner(setup)
    acc = acc + endo_op(setup, _tau_derivative_term(setup, setup.eps, setup.iota))
    for x, y in ((setup.eps, setup.iota), (setup.iota, setup.eps)):
        acc = acc - _pair_term(setup, x, y, horizontal_curvature)
    return acc


def dh_square_rhs(setup: BundleSetup) -> DiffOp:
    """d_H^2 = -(1/2) sum eps eps nabla_{R(f_a,f_b)}."""
    _require_forms(setup)
    return _pair_term(setup, setup.eps, setup.eps, None)


def dh_star_square_rhs(setup: BundleSetup) -> DiffOp:
    """(d_H^*)^2 = -(1/2) sum iota iota nabla_{R(f_a,f_b)}
    - sum_a iota(f_a) iota(nabla_{f_a} tau)."""
    _require_forms(setup)
    acc = _pair_term(setup, setup.iota, setup.iota, None)
    return acc - endo_op(setup, _tau_derivative_term(setup, setup.iota, setup.iota))


def basic_tau_rhs(setup: BundleSetup) -> DiffOp:
    """Simplified Dirac square under a basic mean curvature form:
    Bochner - (1/2) d_H^* tau + (1/4)|tau|^2 + S/4
    + (1/2) sum c c [R^{E/S} - nabla_R]."""
    geom = setup.geom
    scalar = (-geom.codiff_tau * rational(1, 2) + geom.tau_norm2 * rational(1, 4)
              + lichnerowicz_scalar(setup))
    return (bochner(setup) + endo_op(setup, Mat.scalar(setup.dim, scalar))
            + _pair_term(setup, setup.cliff, setup.cliff, twisting_curvature))


# ---------------------------------------------------------------------------
# the identity suite

class IdentityResult(namedtuple("IdentityResult",
                                "key label residual passed skipped reason reported_only",
                                defaults=(False, "", False))):
    __slots__ = ()

    def status(self) -> str:
        if self.skipped:
            return f"skip ({self.reason})"
        return "pass" if self.passed else "FAIL"


class SuiteReport(namedtuple("SuiteReport", "model k items")):
    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(it.passed or it.skipped for it in self.items)

    def counted_passes(self) -> int:
        return sum(1 for it in self.items if it.passed and not it.skipped)


def verify_suite(model: FrameModel, k: int) -> SuiteReport:
    """Run the full exact identity suite on one model, with the k-th power
    of its line bundle (k = 0 on a model without one).

    Items (a)-(g) and (i) are hard identities (exact zero residual
    expected); item (h) holds classically but is checked per model and
    reported rather than assumed."""
    geom = derive_connection(model)
    if model.line_b is None:
        k = 0
    sp = spinor_setup(model, geom, k)
    fo = forms_setup(model, geom)
    items: list[IdentityResult] = []

    D = dirac(sp)
    D2 = D @ D
    Dp = dirac_prime(sp)

    def run(key, label, *pairs):
        """One item from one or more (lhs, rhs) pairs: exact when every
        residual is, else the largest residual, the first one on ties.
        Only (h) is reported rather than assumed."""
        rs = [residual(lhs, rhs) for lhs, rhs in pairs]
        r = max((r for r in rs if not r.exact_zero), key=lambda r: r.max_abs,
                default=rs[0])
        items.append(IdentityResult(key=key, label=label, residual=r,
                                    passed=r.exact_zero, reported_only=key == "h"))

    run("a", "dirac square equals curvature-decomposed right-hand side",
        (D2, lichnerowicz_rhs(sp)))
    run("b", "pre-Dirac square equals Bochner with full curvature term",
        (Dp @ Dp, dirac_prime_square_rhs(sp)))
    run("c", "dirac square with undecomposed curvature",
        (D2, dirac_square_full_curvature_rhs(sp)))
    run("d", "curvature contraction collapses to the scalar term",
        (endo_op(sp, _pair_contraction(sp, sp.cliff, sp.cliff, c_of_R)),
         endo_op(sp, Mat.identity(sp.dim).scale(lichnerowicz_scalar(sp)))))
    run("e", "transversal Laplacian Bochner formula",
        (hodge_laplacian(fo), hodge_bochner_rhs(fo)))
    dh, dhs = d_horizontal(fo), d_horizontal_star(fo)
    run("f", "squares of the transversal differential and codifferential",
        (dh @ dh, dh_square_rhs(fo)), (dhs @ dhs, dh_star_square_rhs(fo)))
    run("g", "Dirac operator of the exterior fiber vs signature operator",
        (dirac(fo), signature_rhs(fo)))

    def trace(ops):
        return endo_op(fo, _pair_contraction(fo, ops, ops, horizontal_curvature))

    zero = DiffOp(fo, {})
    run("h", "wedge-wedge and contraction-contraction curvature traces "
        "vanish (reported per model)", (trace(fo.eps), zero), (trace(fo.iota), zero))

    if geom.tau_basic:
        run("i", "basic mean curvature: simplified Dirac square",
            (D2, basic_tau_rhs(sp)))
    else:
        items.append(IdentityResult(
            key="i", label="basic mean curvature: simplified Dirac square",
            residual=None, passed=False, skipped=True,
            reason="mean curvature form is not basic on this model"))

    return SuiteReport(model=model.name, k=k, items=tuple(items))
