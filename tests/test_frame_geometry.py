"""Frame models: admissibility, Koszul data, curvature, divergences."""

import json
import tracemalloc

import pytest

import exact_oracle as eo
from transdirac import clifford_fiber as cf
from transdirac import frame_geometry as fg
from transdirac.exact import ONE, ZERO, Scalar, rational
from transdirac.matrices import Mat

transverse = fg.transverse_connection


@pytest.fixture(scope="module")
def torus():
    return fg.load_bundled("flat_t3")


@pytest.fixture(scope="module")
def heis():
    return fg.load_bundled("heisenberg")


@pytest.fixture(scope="module")
def sol():
    return fg.load_bundled("sol")


# -- validation ----------------------------------------------------------------

def test_fixtures_validate(torus, heis, sol):
    for m in (torus, heis, sol, fg.load_bundled("t3_landau")):
        rep = fg.validate(m)
        assert rep.ok and not rep.warnings


def test_bad_bundlelike_fails():
    rep = fg.validate(fg.load_bundled("bad_bundlelike"))
    assert not rep.ok
    assert "bundle-like" in rep.first_failure()


def test_odd_codimension_fails():
    m = fg.make_model("oddq", 1, 3, [])
    rep = fg.validate(m)
    assert not rep.ok and "even" in rep.first_failure()


@pytest.mark.parametrize("p, q", [(fg.MAX_DIM - 1, 2), (1, fg.MAX_Q + 2)])
def test_oversized_model_is_refused_before_it_is_built(p, q):
    """n = p + q above MAX_DIM or q above MAX_Q is a ModelError before the
    model's bracket table is built."""
    tracemalloc.start()
    try:
        with pytest.raises(fg.ModelError, match="too large"):
            fg.model_from_dict({"p": p, "q": q, "brackets": [[1, 2, 3, "1"]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000
    assert fg.make_model("largest", fg.MAX_DIM - fg.MAX_Q, fg.MAX_Q, []).n == fg.MAX_DIM


def test_jacobi_failure_detected():
    # [u1,u2]=u3 and [u1,u3]=u1 leave [[u1,u2],u3]+cyc = -u3 != 0
    m = fg.make_model("notalie", 1, 2, [(1, 2, 3, "1"), (1, 3, 1, "1")])
    rep = fg.validate(m)
    assert any("Jacobi" in f for f in rep.failures)


def test_involutivity_failure():
    m = fg.make_model("notafoliation", 2, 2, [(1, 2, 3, "1")])
    rep = fg.validate(m)
    assert any("involutivity" in f for f in rep.failures)


def test_unimodularity_warning():
    m = fg.make_model("affine", 1, 2, [(2, 1, 1, "1")])
    rep = fg.validate(m)
    assert rep.ok
    # [u2, u1] = u1: ad u2 is multiplication by 1 on u1, so tr(ad u2) = 1 = -div u2
    assert rep.warnings == ("non-unimodular frame: tr(ad u2) = 1 != 0 "
                            "(no compact quotient with invariant volume)",)
    assert fg.divergence(m, 1) == rational(-1)


def test_bracket_table_folds_the_bracket_list():
    """A repeated bracket adds, [u_j, u_i] subtracts, [u_i, u_i] cancels and
    a zero sum is dropped; keys ascend in (u, v) and terms in m."""
    m = fg.make_model("fold", 1, 2, [(3, 2, 1, "1"), (2, 3, 3, "1"), (2, 3, 1, "2"),
                                     (1, 1, 2, "5"), (1, 2, 3, "1"), (2, 1, 3, "1")])
    assert m.brackets == {(1, 2): ((0, ONE), (2, ONE)), (2, 1): ((0, -ONE), (2, -ONE))}
    assert list(m.brackets) == [(1, 2), (2, 1)]


def test_validate_and_derive_make_no_n3_pass(monkeypatch):
    """On the flat p = 62, q = 2 model (n = MAX_DIM, no brackets) validate
    and derive_connection make at most 10 n^2 Scalar operations, where one
    pass over all n^3 index triples would make n^3 = 262,144."""
    m = fg.make_model("flat_p62", fg.MAX_DIM - 2, 2, [],
                      jmat=cf.ComplexStructure.standard(2).jmat)
    ops = [0]

    def counted(op):
        def wrapper(*args):
            ops[0] += 1
            return op(*args)
        return wrapper

    for name in ("__add__", "__sub__", "__mul__", "__neg__", "__eq__"):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name)))
    assert fg.validate(m).ok
    fg.derive_connection(m)
    assert ops[0] <= 10 * m.n ** 2


# -- Levi-Civita through Koszul, the oracle of the transverse connection ------------

def test_levi_civita_flat(torus):
    g = eo.levi_civita(eo.model_constants(torus))
    assert all(g[i][j][k].is_zero()
               for i in range(3) for j in range(3) for k in range(3))


def test_levi_civita_heisenberg(heis):
    g = eo.levi_civita(eo.model_constants(heis))
    assert g[1][2][0] == rational(1, 2)   # <nabla_{f1} f2, e1>


def test_levi_civita_sol(sol):
    g = eo.levi_civita(eo.model_constants(sol))
    assert g[0][0][1] == ONE              # <nabla_{e1} e1, f1>


@pytest.mark.parametrize("name", ["flat_t3", "heisenberg", "sol"])
def test_levi_civita_torsion_and_metric(name):
    m = fg.load_bundled(name)
    c = eo.model_constants(m)
    g = eo.levi_civita(c)
    n = m.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert g[i][j][k] - g[j][i][k] == c[i][j][k]
                assert (g[i][j][k] + g[i][k][j]).is_zero()


# -- transverse connection --------------------------------------------------------

def test_transverse_connection_values(torus, heis, sol):
    assert all(A.is_zero() for A in transverse(torus))
    A_h = transverse(heis)
    assert all(A.is_zero() for A in A_h)  # nabla_{f1} f2 = P_H(e1/2) = 0
    A_s = transverse(sol)
    assert A_s[1].is_zero()                       # nabla_{f1} = 0
    assert A_s[2] == Mat.from_rows([[0, -1], [1, 0]])  # f1 -> f2, f2 -> -f1


@pytest.mark.parametrize("name", ["heisenberg", "sol"])
def test_transverse_connection_metric(name):
    m = fg.load_bundled(name)
    for A in transverse(m):
        assert (A + A.transpose()).is_zero()


def test_torsion_identity_vs_integrability(heis, sol, torus):
    """nabla_{f_a} f_b - nabla_{f_b} f_a - [f_a, f_b] decomposes as zero
    horizontally and as the integrability tensor leafwise."""
    for m in (heis, sol, torus):
        A = transverse(m)
        c = eo.model_constants(m)
        (R,) = fg.integrability_tensor(m)
        p, q = m.p, m.q
        for a in range(q):
            for b in range(a + 1, q):
                for g in range(q):
                    horiz = (A[p + a].entry(g, b) - A[p + b].entry(g, a)
                             - c[p + a][p + b][p + g])
                    assert horiz.is_zero()
                assert -c[p + a][p + b][0] == R.entry(a, b) == -R.entry(b, a)


def test_mean_curvature(torus, heis, sol):
    assert all(t.is_zero() for t in fg.mean_curvature(torus))
    assert all(t.is_zero() for t in fg.mean_curvature(heis))
    assert fg.mean_curvature(sol) == (ONE, ZERO)


def test_integrability_values(heis, sol):
    assert fg.integrability_tensor(heis) == (Mat.from_rows([[0, -1], [1, 0]]),)
    assert fg.integrability_tensor(sol) == (Mat.zero(2),)


# -- curvature -------------------------------------------------------------------

def test_curvature_flat_and_heisenberg(torus, heis):
    for m in (torus, heis):
        curv = fg.curvature(m, transverse(m))
        assert all(R.is_zero() for R in curv.values())
        assert fg.scalar_curvature(m, fg.curvature(m, transverse(m))).is_zero()


def test_curvature_sol(sol):
    curv = fg.curvature(sol, transverse(sol))
    R12 = curv[(1, 2)]   # R(f1, f2)
    assert R12.entry(1, 0) == ONE    # g(R(f1,f2) f1, f2) = 1
    assert R12.entry(0, 1) == -ONE
    assert fg.scalar_curvature(sol, fg.curvature(sol, transverse(sol))) == rational(2)
    # leaf-direction curvature vanishes (leafwise flat transverse connection)
    assert curv[(0, 1)].is_zero() and curv[(0, 2)].is_zero()


def test_curvature_antisymmetry_as_endomorphism(sol):
    for R in fg.curvature(sol, transverse(sol)).values():
        assert (R + R.transpose()).is_zero()


# -- divergences -------------------------------------------------------------------

DIGEST_MODELS = {m.name: m for m in eo.digest_models()}


@pytest.mark.parametrize("name", list(DIGEST_MODELS))
def test_divergence_dual_route(name):
    """The closed form sum_k c^k_{ku} against the Koszul route
    sum_k Gamma[k][u][k] for every direction, and for the horizontal ones
    also against -g(tau + sum_b nabla_{f_b} f_b, f_a)."""
    m = DIGEST_MODELS[name]
    gamma = eo.levi_civita(eo.model_constants(m))
    div = fg.derive_connection(m).div
    for u in range(m.n):
        koszul_route = sum((gamma[k][u][k] for k in range(m.n)), ZERO)
        assert fg.divergence(m, u) == koszul_route == div[u]
    for a in range(m.q):
        assert fg.divergence(m, m.p + a) == eo.divergence_closed_horizontal(m, a)


def test_divergence_values(torus, heis, sol):
    for m in (torus, heis, sol):
        for u in range(m.n):
            assert fg.divergence(m, u).is_zero()
    assert fg.derive_connection(DIGEST_MODELS["non_unimodular"]).div == (ZERO, rational(2), ZERO)


# -- spin connection ------------------------------------------------------------------

def test_spin_connection_values(torus, heis, sol):
    J = cf.ComplexStructure.standard(2)
    cs = cf.spinor_cliffords(J)
    assert all(G.is_zero() for G in fg.spin_connection(J, cs, transverse(torus)))
    assert all(G.is_zero() for G in fg.spin_connection(J, cs, transverse(heis)))
    spins = fg.spin_connection(J, cs, transverse(sol))
    # oracle: the commutator identity pins the sign, giving
    # Gamma_{f2} = (1/4)(c(f1)c(f2) - c(f2)c(f1))
    expect = (cs[0] @ cs[1] - cs[1] @ cs[0]).scale(rational(1, 4))
    assert spins[2] == expect
    assert spins[0].is_zero() and spins[1].is_zero()


@pytest.mark.parametrize("name", ["heisenberg", "sol"])
def test_spin_connection_commutator_identity(name):
    m = fg.load_bundled(name)
    J = cf.ComplexStructure.standard(2)
    A = transverse(m)
    cs = cf.spinor_cliffords(J)
    spins = fg.spin_connection(J, cs, A)
    for u in range(m.n):
        for b in range(m.q):
            lhs = spins[u] @ cs[b] - cs[b] @ spins[u]
            vec = tuple(A[u].entry(g, b) for g in range(m.q))
            assert lhs == eo.spinor_action(vec, J)


def test_spin_connection_skew_hermitian(sol):
    J = cf.ComplexStructure.standard(2)
    for G in fg.spin_connection(J, cf.spinor_cliffords(J), transverse(sol)):
        assert G.is_skew_hermitian()


def test_spin_connection_requires_parallel_j():
    # leafwise rotation in the (f1, f3) plane does not commute with the
    # standard J pairing (f1,f2)(f3,f4)
    m = fg.make_model("jrot", 1, 4, [(1, 2, 4, "1"), (1, 4, 2, "-1")])
    assert fg.validate(m).ok
    J = cf.ComplexStructure.standard(4)
    with pytest.raises(fg.ModelError, match="u1"):
        fg.spin_connection(J, cf.spinor_cliffords(J), transverse(m))


# -- model files -----------------------------------------------------------------------

def test_bundled_names():
    names = fg.bundled_model_names()
    for expected in ("flat_t3", "heisenberg", "sol", "t3_landau", "bad_bundlelike"):
        assert expected in names


def test_load_model_roundtrip(tmp_path):
    data = {
        "name": "custom",
        "p": 1, "q": 2,
        "brackets": [[2, 3, 1, "1/2+1/4√2"]],
        "line_bundle": {"B": [["0", "-2i"], ["2i", "0"]]},
        "J": [["0", "-1"], ["1", "0"]],
        "twist_dim": 1,   # an unknown key, ignored
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    m = fg.load_model(path)
    c = fg.parse_real("1/2+1/4√2")
    assert m.brackets == {(1, 2): ((0, c),), (2, 1): ((0, -c),)}
    assert m.line_b.entry(0, 1) == fg.parse_imaginary("-2i")
    assert fg.resolve_model(str(path)).name == "custom"


def test_load_model_errors(tmp_path):
    with pytest.raises(fg.ModelError):
        fg.load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(fg.ModelError):
        fg.load_model(bad)
    malformed = tmp_path / "m.json"
    malformed.write_text(json.dumps({"p": 1}))
    with pytest.raises(fg.ModelError):
        fg.load_model(malformed)
    with pytest.raises(fg.ModelError):
        fg.load_bundled("nonexistent_model")


def test_derive_connection_requires_validity():
    with pytest.raises(fg.ModelError):
        fg.derive_connection(fg.load_bundled("bad_bundlelike"))
