"""Test oracles for the exact layer: second routes to quantities the package
computes one way, the predicates the operator tests assert, and random
exact data.  The package itself has no use for them.
"""

from __future__ import annotations

import random

from transdirac import operator_calculus as oc
from transdirac.clifford_fiber import ComplexStructure, spinor_cliffords
from transdirac.exact import ONE, Scalar, rational
from transdirac.frame_geometry import (FrameModel, derive_connection, levi_civita,
                                       mean_curvature, transverse_connection)
from transdirac.matrices import Mat, accumulate, combination


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


def pair_action_by_pairs(X: Mat, cliffords: tuple[Mat, ...]) -> Mat:
    """sum_{a<b} X_ab c(f_a) c(f_b) with one product per pair a < b of the
    upper triangle of X: an oracle for `clifford_fiber.pair_action`, which
    takes q - 1 products."""
    acc = Mat.zero(cliffords[0].n)
    for (a, b), coeff in X.d.items():
        if a < b:
            acc = acc + naive_matmul(cliffords[a], cliffords[b]).scale(coeff)
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


def divergence_closed_horizontal(model: FrameModel, a: int) -> Scalar:
    """div f_a = -g(tau + sum_b nabla_{f_b} f_b, f_a), the closed horizontal
    formula; must agree with the trace divergence on every valid model."""
    q, p = model.q, model.p
    gamma = levi_civita(model)
    A = transverse_connection(model, gamma)
    s = mean_curvature(model, gamma)[a]
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
    (nabla_u)^* expanded and the product normal-ordered by the engine."""
    setup = A.setup
    div = setup.geom.div
    acc: dict[tuple, Mat] = {}
    for word, M in A.terms.items():
        d = len(word)
        if d > 2:
            raise oc.SetupError("adjoint supports degree <= 2 only")
        Md = M.dagger()
        rev = word[::-1]
        for mask in range(1 << d):
            kept = tuple(rev[t] for t in range(d) if mask >> t & 1)
            scalar = ONE if d % 2 == 0 else -ONE
            for t in range(d):
                if not mask >> t & 1:
                    scalar = scalar * div[rev[t]]
            if scalar.is_zero():
                continue
            for w1, C in oc._push(setup, kept, Md):
                oc._reorder(setup, C.scale(scalar), w1, acc)
    return oc.DiffOp(setup, acc)


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
