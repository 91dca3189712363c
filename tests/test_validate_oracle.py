"""`validate` and the derived geometry, which read only the terms of a
model's bracket table, against dense reference loops over every index.

`dense_validate` is `frame_geometry.validate` as it was before the Jacobi
check visited only nonzero structure constants, run on the dense tensor
`exact_oracle.dense_constants` sums from the model's bracket list: the
Jacobiator of every triple i < j < k is summed over all m, zero products
included, and so is dB(u_i, u_j, u_k) = -sum_cyc B([u_i, u_j], u_k) of the
line bundle's curvature.  Its unimodularity warning sums tr(ad u_i) =
sum_k c^k_{ik} in its own loop.
Both must return equal reports -- the same failures and warnings in the
same order -- on any model, admissible or not.  The tensor is
antisymmetric by construction, as the table is, so neither checks
antisymmetry.  `exact_oracle.dense_geometry` is the same kind of reference
for the connection, tau, the integrability tensor, the curvature and the
divergences."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_oracle as eo
from transdirac import clifford_fiber as cf
from transdirac import frame_geometry as fg
from transdirac.clifford_fiber import validate_two_form
from transdirac.exact import SQRT2, ZERO, Scalar, format_scalar
from transdirac.frame_geometry import FrameModel, ValidationReport


def dense_validate(model: FrameModel, c: tuple) -> ValidationReport:
    failures: list[str] = []
    warnings: list[str] = []
    n, p = model.n, model.p

    if model.q % 2:
        failures.append(f"codimension q={model.q} must be even")

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    s = ZERO
                    for m in range(n):
                        s = (s + c[i][j][m] * c[m][k][l]
                             + c[j][k][m] * c[m][i][l]
                             + c[k][i][m] * c[m][j][l])
                    if not s.is_zero():
                        failures.append(
                            f"Jacobi identity fails on (u{i + 1},u{j + 1},u{k + 1}) "
                            f"component u{l + 1}")

    for i in range(p):
        for j in range(p):
            for a in range(p, n):
                if not c[i][j][a].is_zero():
                    failures.append(
                        f"involutivity fails: c^{a + 1}_({i + 1},{j + 1}) != 0")

    for i in range(p):
        for a in range(p, n):
            for b in range(p, n):
                s = c[i][a][b] + c[i][b][a]
                if not s.is_zero():
                    failures.append(
                        f"bundle-like condition fails: c^{b + 1}_({i + 1},{a + 1}) "
                        f"+ c^{a + 1}_({i + 1},{b + 1}) = {format_scalar(s)}")

    for i in range(n):
        tr = ZERO
        for k in range(n):
            tr = tr + c[i][k][k]
        if not tr.is_zero():
            warnings.append(
                f"non-unimodular frame: tr(ad u{i + 1}) = {format_scalar(tr)} != 0 "
                "(no compact quotient with invariant volume)")

    if model.line_b is not None:
        if model.line_b.n != model.q:
            failures.append("line bundle curvature must be q x q")
        else:
            try:
                validate_two_form(model.line_b)
            except ValueError as exc:
                failures.append(f"line bundle curvature: {exc}")
            else:
                def b(x, y):  # B on frame directions, zero on the leaf ones
                    return model.line_b.entry(x - p, y - p) if min(x, y) >= p else ZERO

                for i in range(n):
                    for j in range(i + 1, n):
                        for k in range(j + 1, n):
                            s = ZERO
                            for m in range(n):
                                s = (s - c[i][j][m] * b(m, k) - c[j][k][m] * b(m, i)
                                     - c[k][i][m] * b(m, j))
                            if not s.is_zero():
                                failures.append(
                                    f"line bundle curvature is not closed: dB(u{i + 1},"
                                    f"u{j + 1},u{k + 1}) = {format_scalar(s)}")

    return ValidationReport(ok=not failures, failures=tuple(failures),
                            warnings=tuple(warnings))


coefficients = st.sampled_from([Scalar.of(1), Scalar.of(-1), Scalar.of(2),
                                Scalar.of(Fraction(-1, 2)), SQRT2, -SQRT2])


@st.composite
def bracket_models(draw):
    """(model, bracket list) from random bracket data; most fail Jacobi,
    some do not."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(0, n))
    index = st.integers(1, n)
    brackets = draw(st.lists(st.tuples(index, index, index, coefficients), max_size=8))
    line_b = draw(st.sampled_from([None, "block", "bad"]))
    if line_b == "block":
        line_b = cf.block_two_form([Scalar.of(j + 1) for j in range((n - p) // 2)])
    elif line_b == "bad":
        line_b = cf.block_two_form([Scalar.of(1)]).scale(cf.I)  # real, not a two-form
    return fg.make_model("random", p, n - p, brackets, line_b=line_b), brackets


@st.composite
def two_step_nilpotent_models(draw):
    """(model, bracket list) where brackets of non-central directions land
    in central ones, so Jacobi holds whatever the coefficients; the other
    checks may still fail."""
    n = draw(st.integers(2, 6))
    central = draw(st.integers(1, n - 1))
    outer = st.integers(central + 1, n)
    brackets = draw(st.lists(st.tuples(outer, outer, st.integers(1, central), coefficients),
                             max_size=8))
    p = draw(st.integers(0, n))
    return fg.make_model("nilpotent", p, n - p, brackets), brackets


@given(st.one_of(bracket_models(), two_step_nilpotent_models()))
@settings(max_examples=100, deadline=None)
def test_sparse_validate_matches_dense_loop(case):
    model, brackets = case
    assert fg.validate(model) == dense_validate(model, eo.dense_constants(model.n, brackets))


@given(st.one_of(bracket_models(), two_step_nilpotent_models()))
@example((fg.make_model("non_basic", 1, 2, eo.NON_BASIC_BRACKETS), eo.NON_BASIC_BRACKETS))
@example((fg.make_model("tau_integrable", 1, 2, eo.TAU_INTEGRABLE_BRACKETS),
          eo.TAU_INTEGRABLE_BRACKETS))
@settings(max_examples=100, deadline=None)
def test_table_geometry_matches_dense_oracle(case):
    """A_u (with its entry order, which `residual` breaks ties by), tau, the
    integrability tensor, the curvature and the divergences on any model,
    and on a valid one all of derive_connection's, tau_basic included."""
    model, brackets = case
    want = eo.dense_geometry(model, eo.dense_constants(model.n, brackets))
    A = fg.transverse_connection(model)
    assert A == want["transverse"]
    assert [list(M.d) for M in A] == [list(M.d) for M in want["transverse"]]
    assert fg.mean_curvature(model) == want["tau"]
    assert fg.integrability_tensor(model) == want["integrability"]
    assert fg.curvature(model, A) == want["curvature"]
    assert tuple(fg.divergence(model, u) for u in range(model.n)) == want["div"]
    if fg.validate(model).ok:
        geom = fg.derive_connection(model)
        assert (geom.transverse, geom.tau, geom.integrability, geom.curvature, geom.div,
                geom.tau_basic) == tuple(want[key] for key in (
                    "transverse", "tau", "integrability", "curvature", "div", "tau_basic"))


def test_oracle_sees_jacobi_failures_and_passes():
    brackets = [(1, 2, 3, 1), (2, 3, 4, 1), (3, 4, 1, 1)]
    failing = fg.make_model("f", 0, 4, brackets)
    rep = dense_validate(failing, eo.dense_constants(4, brackets))
    assert any("Jacobi" in f for f in rep.failures)
    assert fg.validate(failing) == rep
    for name in fg.bundled_model_names():
        model = fg.load_bundled(name)
        assert fg.validate(model) == dense_validate(model, eo.model_constants(model))


def test_oracle_sees_a_line_bundle_that_is_not_closed():
    """[u1,u2] = u3 with B(u3,u4) = -i: dB(u1,u2,u4) = -B([u1,u2],u4) = i,
    and nothing else fails.  B(u1,u2) = -i on the same frame is closed."""
    open_b = fg.make_model("open", 0, 4, [(1, 2, 3, 1)],
                           line_b=cf.block_two_form([ZERO, Scalar.of(1)]))
    c = eo.dense_constants(4, [(1, 2, 3, 1)])
    rep = dense_validate(open_b, c)
    assert rep.failures == ("line bundle curvature is not closed: dB(u1,u2,u4) = 1i",)
    assert fg.validate(open_b) == rep
    closed_b = open_b._replace(line_b=cf.block_two_form([Scalar.of(1), ZERO]))
    assert fg.validate(closed_b) == dense_validate(closed_b, c)
    assert fg.validate(closed_b).ok
