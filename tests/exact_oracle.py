"""Test oracles for the exact layer: second routes to quantities the package
computes one way, the predicates the operator tests assert, random exact
data, and the pinned digest of the suite's operators.  The package itself
has no use for them.  The digest needs neither numpy nor pytest:

    PYTHONPATH=src:tests python -c 'import exact_oracle as eo, sys; \
        sys.exit(eo.operator_digest() != eo.OPERATOR_DIGEST)'
"""

from __future__ import annotations

import hashlib
import random

from transdirac import operator_calculus as oc
from transdirac.clifford_fiber import ComplexStructure, block_two_form, spinor_cliffords
from transdirac.exact import ONE, ZERO, Scalar, parse_real, rational
from transdirac.frame_geometry import (FrameModel, derive_connection, load_bundled, make_model,
                                       mean_curvature, transverse_connection)
from transdirac.matrices import Mat, accumulate, combination, commutator


def naive_matmul(L: Mat, R: Mat) -> Mat:
    """L @ R as one Scalar product and one Scalar sum per term, each
    reduced as it is made: an oracle for the one-reduction
    `Mat.__matmul__`."""
    rows: dict[int, list[tuple[int, Scalar]]] = {}
    for (k, j), v in R.d.items():
        rows.setdefault(k, []).append((j, v))
    acc: dict[tuple[int, int], Scalar] = {}
    for (i, k), u in L.d.items():
        for j, v in rows.get(k, ()):
            prod = u * v
            s = acc.get((i, j))
            acc[(i, j)] = prod if s is None else s + prod
    return Mat(L.n, R.m, acc)


def pair_action_by_pairs(X: Mat, left: tuple[Mat, ...], right: tuple[Mat, ...]) -> Mat:
    """sum_{a<b} X_ab left[a] right[b] with one product per pair a < b of the
    upper triangle of X: an oracle for `clifford_fiber.pair_action`, which
    takes q - 1 products."""
    acc = Mat.zero(left[0].n)
    for (a, b), coeff in X.d.items():
        if a < b:
            acc = acc + naive_matmul(left[a], right[b]).scale(coeff)
    return acc


def random_rational(rng: random.Random, max_num: int = 9, max_den: int = 6) -> Scalar:
    return rational(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def spinor_action(f, J: ComplexStructure) -> Mat:
    """Matrix of c(f) = sqrt2 (ext of the (1,0)-dual - int of the (0,1)-part)
    on the spinor fiber, for a vector f given by components."""
    if len(f) != J.q:
        raise ValueError(f"vector length {len(f)} != q={J.q}")
    return combination(f, spinor_cliffords(J))


def grading_matrix(l: int) -> Mat:
    """Parity operator of the exterior algebra on l generators: +1 on even
    degrees, -1 on odd."""
    return Mat(1 << l, 1 << l,
               {(i, i): -ONE if i.bit_count() & 1 else ONE for i in range(1 << l)})


def dense_constants(n: int, brackets) -> tuple:
    """c[i][j][k], 0-based, of 1-based bracket data [u_i, u_j] += coeff u_k,
    summed into a dense n^3 tensor entry by entry, the reverse pair
    subtracting: an oracle for the folding of a model's bracket table."""
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k, coeff) in brackets:
        v = parse_real(coeff) if isinstance(coeff, str) else Scalar.of(coeff)
        c[i - 1][j - 1][k - 1] = c[i - 1][j - 1][k - 1] + v
        c[j - 1][i - 1][k - 1] = c[j - 1][i - 1][k - 1] - v
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def model_constants(model: FrameModel) -> tuple:
    """The dense tensor of a model, from the pairs u < v of its table."""
    return dense_constants(model.n, [(u + 1, v + 1, m + 1, w) for (u, v), terms
                                     in model.brackets.items() if u < v for m, w in terms])


def levi_civita(c: tuple) -> tuple:
    """Gamma[i][j][k] = <nabla_{u_i} u_j, u_k> of dense structure constants
    c by the invariant Koszul formula 2<nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X>
    + <[Z,X],Y>, on all n^3 index triples."""
    n, half = len(c), rational(1, 2)
    return tuple(tuple(tuple((c[i][j][k] - c[j][k][i] + c[k][i][j]) * half for k in range(n))
                       for j in range(n)) for i in range(n))


def dense_geometry(model: FrameModel, c: tuple) -> dict:
    """The derived geometry of a model with dense structure constants c, by
    loops over every index: the transverse connection A_u, from c along the
    leaves and from Gamma across them, built b outer and g inner; tau; the
    integrability tensor; R(u, v) = [A_u, A_v] - sum_m c^m_uv A_m on every
    ordered pair; div u_i = sum_k c^k_{ki}; and whether tau is basic."""
    n, p, q = model.n, model.p, model.q
    gamma = levi_civita(c)
    A = tuple(Mat(q, q, {(g, b): (c if u < p else gamma)[u][p + b][p + g]
                         for b in range(q) for g in range(q)}) for u in range(n))
    tau = tuple(sum((gamma[i][i][p + a] for i in range(p)), ZERO) for a in range(q))
    live = [(p + a, t) for a, t in enumerate(tau) if t]
    return {
        "transverse": A,
        "tau": tau,
        "integrability": tuple(Mat(q, q, {(a, b): -c[p + a][p + b][i] for a in range(q)
                                          for b in range(q)}) for i in range(p)),
        "curvature": {(u, v): commutator(A[u], A[v]) - combination(c[u][v], A)
                      for u in range(n) for v in range(n)},
        "div": tuple(sum((c[k][i][k] for k in range(n)), ZERO) for i in range(n)),
        "tau_basic": all(sum((c[i][j][b] * t for b, t in live), ZERO).is_zero()
                         for i in range(n) for j in range(i + 1, n)),
    }


def divergence_closed_horizontal(model: FrameModel, a: int) -> Scalar:
    """div f_a = -g(tau + sum_b nabla_{f_b} f_b, f_a), the closed horizontal
    formula; must agree with the trace divergence on every valid model."""
    q, p = model.q, model.p
    A = transverse_connection(model)
    s = mean_curvature(model)[a]
    for b in range(q):
        s = s + A[p + b].entry(a, b)
    return -s


def identity_op(setup: oc.BundleSetup) -> oc.DiffOp:
    return oc.DiffOp(setup, {(): Mat.identity(setup.dim)})


def bochner_divergence_form(setup: oc.BundleSetup) -> oc.DiffOp:
    """The Bochner operator written -sum nabla^2 + nabla_tau +
    nabla_{sum_b nabla_{f_b} f_b}: the divergence of f_a by its closed
    horizontal formula, not read from the derived connection data."""
    model, geom = setup.model, setup.geom
    p, q = model.p, model.q
    eye = Mat.identity(setup.dim)
    acc: dict[tuple, Mat] = {}
    for a in range(q):
        accumulate(acc, (p + a, p + a), -eye)
    # nabla along the horizontal vector tau + sum_b nabla_{f_b} f_b
    for a in range(q):
        comp = geom.tau[a]
        for b in range(q):
            comp = comp + geom.transverse[p + b].entry(a, b)
        if not comp.is_zero():
            accumulate(acc, (p + a,), eye.scale(comp))
    return oc.DiffOp(setup, acc)


def is_grading_odd(op: oc.DiffOp) -> bool:
    """Every coefficient anticommutes with the fiber parity (the derivative
    generators preserve parity since the connection matrices are even)."""
    P = grading_matrix(op.setup.dim.bit_length() - 1)
    return all((P @ M @ P + M).is_zero() for M in op.terms.values())


def adjoint(A: oc.DiffOp) -> oc.DiffOp:
    """Formal L^2 adjoint for operators of degree <= 2, from
    (nabla_u)^* = -nabla_u - div(u) and entrywise conjugate transposes:
    M nabla_w has the adjoint (nabla_w)^* M^dagger, with each factor
    (nabla_u)^* written out and the products normal-ordered by `compose`."""
    setup = A.setup
    eye = Mat.identity(setup.dim)
    pairs = []
    for word, M in A.terms.items():
        if len(word) > 2:
            raise oc.SetupError("adjoint supports degree <= 2 only")
        word_star = identity_op(setup)
        for u in word:
            nabla_star = oc.DiffOp(setup, {(u,): -eye, (): eye.scale(-setup.geom.div[u])})
            word_star = nabla_star @ word_star
        pairs.append((word_star, oc.endo_op(setup, M.dagger())))
    return oc.compose(pairs)


def is_self_adjoint(op: oc.DiffOp) -> bool:
    return adjoint(op) == op


def twisted_spinor_setup(model: FrameModel, k: int, theta: tuple[Mat, ...]) -> oc.BundleSetup:
    """The spinor bundle with L^k, twisted further by a trivial rank-r bundle
    with constant skew-Hermitian connection matrices theta[u] (r x r, one per
    frame direction): Clifford matrices c(f_a) (x) I_r and connection
    Gamma_u (x) I_r + I (x) theta_u.  Its twisting curvature R^{E/S} is not
    a scalar, unlike that of L^k alone."""
    base = oc.spinor_setup(model, derive_connection(model), k)
    eye_r = Mat.identity(theta[0].n)
    eye_s = Mat.identity(base.dim)
    cliff = [c.kron(eye_r) for c in base.cliff]
    gamma = [G.kron(eye_r) + eye_s.kron(t) for G, t in zip(base.gamma, theta)]
    return oc.BundleSetup(model, base.geom, cliff, gamma, k, base.J, None, None)


def setup_consistency(setup: oc.BundleSetup) -> None:
    """The checks a BundleSetup made of itself before it trusted its
    ConnectionData, verbatim but for reading the structure constants off the
    model's bracket table: every gamma[u] is skew-Hermitian, the Clifford
    connection property, leafwise flatness, and the Jacobi consistency
    condition of the curvature that makes the rewriting confluent.  Raises
    SetupError on the first that fails; the operator_calculus docstring
    derives why none can over a valid model."""
    n, p, q = setup.model.n, setup.model.p, setup.model.q
    for u, G in enumerate(setup.gamma):
        if not G.is_skew_hermitian():
            raise oc.SetupError(f"gamma[{u}] is not skew-Hermitian")
    # Clifford connection property [Gamma_u, c(f_a)] = c(nabla_u f_a)
    for u in range(n):
        Au = setup.geom.transverse[u]
        for a in range(q):
            lhs = commutator(setup.gamma[u], setup.cliff[a])
            vec = tuple(Au.entry(g, a) for g in range(q))
            if lhs != combination(vec, setup.cliff):
                raise oc.SetupError(
                    f"Clifford connection property fails along u{u + 1} "
                    f"on f{a + 1}")
    # leafwise flatness
    for i in range(p):
        for j in range(i + 1, p):
            if not setup.curv[(i, j)].is_zero():
                raise oc.SetupError(f"leafwise curvature F(e{i + 1},e{j + 1}) != 0")
    # Jacobi consistency of the declared curvature (confluence of rewriting):
    # the cyclic sum over (x, y, z) of sum_m c^m_xy F(m, z) - [Gamma_z, F(x, y)]
    table = setup.model.brackets
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(v + 1, n):
                cyclic = ((u, v, w), (v, w, u), (w, u, v))
                terms = [(c, setup.curv[(m, z)]) for x, y, z in cyclic
                         for m, c in table.get((x, y), ())]
                terms += [(-1, commutator(setup.gamma[z], setup.curv[(x, y)]))
                          for x, y, z in cyclic]
                if not combination(*zip(*terms)).is_zero():
                    raise oc.SetupError(
                        f"curvature data violates the Jacobi consistency "
                        f"condition on (u{u + 1},u{v + 1},u{w + 1})")


# -- pinned operators --------------------------------------------------------------

# model with non-basic mean curvature: tau = f1 but dtau(e1, f2) = 1
NON_BASIC_BRACKETS = [
    (2, 1, 1, "1"), (2, 1, 3, "-1"),   # [f1, e1] = e1 - f2
    (3, 1, 2, "1"),                    # [f2, e1] = f1
    (2, 3, 3, "-1"),                   # [f1, f2] = -f2
]

# model on which tau and the integrability term are both nonzero, tau basic
TAU_INTEGRABLE_BRACKETS = [(1, 2, 1, "1"), (2, 3, 1, "2"), (2, 3, 3, "1")]


def non_unimodular():
    """[u1,u2] = 2u1, [u2,u3] = u1 with the standard J and B = -i: the only
    fixture with div(f_a) != 0, and with d_H^* tau = 4 a nonzero constant."""
    return make_model("non_unimodular", 1, 2, [(1, 2, 1, "2"), (2, 3, 1, "1")],
                      line_b=block_two_form([ONE]), jmat=ComplexStructure.standard(2).jmat)


# recorded from the operators built term by term, Bochner through the adjoint
# engine, before the exact layer summed each of them in one kernel call
OPERATOR_DIGEST = "1af31e3d9253fc726aead0549e1bd13d2b2fac81d8ce1e0902aae87e8d343772"


def digest_models():
    """The four bundled valid models, h4, a model on which tau and the
    integrability term are both nonzero, the non-basic model, and a
    non-unimodular model: the only one with div(f_a) != 0."""
    return [load_bundled(name) for name in ("flat_t3", "t3_landau", "heisenberg", "sol")] + [
        make_model("h4", 1, 4, [(2, 3, 1, "1"), (4, 5, 1, "1")],
                   line_b=block_two_form([ONE, rational(2)]),
                   jmat=ComplexStructure.standard(4).jmat),
        make_model("tau_integrable", 1, 2, TAU_INTEGRABLE_BRACKETS,
                   line_b=block_two_form([ONE]), jmat=ComplexStructure.standard(2).jmat),
        make_model("non_basic", 1, 2, NON_BASIC_BRACKETS,
                   jmat=Mat.from_rows([[0, -1], [1, 0]])),
        non_unimodular(),
    ]


def digest_setups():
    """(model name, k, spinor setup, forms setup), at k = 0 and 1 where the
    model has a line bundle, else at k = 0."""
    out = []
    for m in digest_models():
        geom = derive_connection(m)
        fo = oc.forms_setup(m, geom)
        for k in ((0, 1) if m.line_b is not None else (0,)):
            out.append((m.name, k, oc.spinor_setup(m, geom, k), fo))
    return out


def suite_operators(sp, fo):
    """(label, DiffOp or {key: Mat}) for every operator the suite compares
    and the data of both setups; of each curvature table, which holds every
    ordered pair, the pairs u < v."""
    D, Dp = oc.dirac(sp), oc.dirac_prime(sp)
    dh, dhs = oc.d_horizontal(fo), oc.d_horizontal_star(fo)
    ops = [("D^2", D @ D), ("D'^2", Dp @ Dp),
           ("lichnerowicz_rhs", oc.lichnerowicz_rhs(sp)),
           ("dirac_prime_square_rhs", oc.dirac_prime_square_rhs(sp)),
           ("dirac_square_full_curvature_rhs", oc.dirac_square_full_curvature_rhs(sp)),
           ("basic_tau_rhs", oc.basic_tau_rhs(sp)),
           ("hodge_laplacian", oc.hodge_laplacian(fo)),
           ("hodge_bochner_rhs", oc.hodge_bochner_rhs(fo)),
           ("d_H^2", dh @ dh), ("dh_square_rhs", oc.dh_square_rhs(fo)),
           ("d_H*^2", dhs @ dhs), ("dh_star_square_rhs", oc.dh_star_square_rhs(fo)),
           ("signature_rhs", oc.signature_rhs(fo))]
    for tag, s in (("spinor", sp), ("forms", fo)):
        ops += [(f"{tag} bochner", oc.bochner(s)),
                (f"{tag} gamma", dict(enumerate(s.gamma))),
                (f"{tag} curvature", {(u, v): F for (u, v), F in s.curv.items() if u < v})]
    return ops


def operator_digest() -> str:
    """SHA-256 over the exact entries (`_v` tuples) of `suite_operators` on
    every digest setup, in sorted word and key order."""
    h = hashlib.sha256()
    for name, k, sp, fo in digest_setups():
        for label, op in suite_operators(sp, fo):
            mats = op.terms if isinstance(op, oc.DiffOp) else op
            entries = [(w, sorted((key, v._v) for key, v in mats[w].d.items()))
                       for w in sorted(mats)]
            h.update(repr((name, k, label, entries)).encode())
    return h.hexdigest()
