"""Normal-ordered operator engine: rewriting, adjoints, identity suite."""

import json
import random
import tracemalloc

import pytest

import exact_oracle as eo
from transdirac import cli
from transdirac import clifford_fiber as cf
from transdirac import frame_geometry as fg
from transdirac import matrices
from transdirac import operator_calculus as oc
from transdirac.exact import I, ONE, ZERO, rational
from transdirac.matrices import Mat


def spinor(model, k):
    return oc.spinor_setup(model, fg.derive_connection(model), k)


def forms(model):
    return oc.forms_setup(model, fg.derive_connection(model))


@pytest.fixture(scope="module")
def heis_plain():
    m = fg.load_bundled("heisenberg")
    return m._replace(line_b=None)


@pytest.fixture(scope="module")
def sol_plain():
    m = fg.load_bundled("sol")
    return m._replace(line_b=None)


@pytest.fixture(scope="module")
def heis_setup(heis_plain):
    return spinor(heis_plain, k=0)


@pytest.fixture(scope="module")
def sol_setup(sol_plain):
    return spinor(sol_plain, k=0)


@pytest.fixture(scope="module")
def twisted_sol():
    return fg.make_model("twisted_sol", 1, 2, eo.NON_BASIC_BRACKETS,
                         jmat=Mat.from_rows([[0, -1], [1, 0]]))


# -- composition ---------------------------------------------------------------

def test_compose_heisenberg_rewrite(heis_setup):
    s = heis_setup
    lhs = oc.nabla(s, 2) @ oc.nabla(s, 1)
    rhs = oc.nabla(s, 1) @ oc.nabla(s, 2) - oc.nabla(s, 0)
    assert oc.residual(lhs, rhs).exact_zero


def test_compose_identity_law(sol_setup):
    s = sol_setup
    D = oc.dirac(s)
    assert eo.identity_op(s) @ D == D
    assert D @ eo.identity_op(s) == D


def test_torus_twisted_commutator():
    m = fg.load_bundled("t3_landau")
    s = spinor(m, k=3)
    lhs = oc.compose(((oc.nabla(s, 1), oc.nabla(s, 2)), (-oc.nabla(s, 2), oc.nabla(s, 1))))
    # F(f1, f2) = k B_12 Id with B_12 = -i in reduced units
    expect = oc.endo_op(s, Mat.identity(s.dim).scale(rational(3) * (-I)))
    assert oc.residual(lhs, expect).exact_zero


def test_compose_associative_degree3(sol_setup):
    s = sol_setup
    rng = random.Random(3)
    ops = [oc.nabla(s, u) for u in range(3)]
    ops.append(oc.endo_op(s, s.cliff[0]))
    for _ in range(10):
        a, b, c = (rng.choice(ops) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def test_compose_setup_mismatch(heis_setup, sol_setup):
    with pytest.raises(oc.SetupError):
        oc.dirac(heis_setup) @ oc.dirac(sol_setup)


def test_normal_form_sorted(sol_setup):
    D = oc.dirac(sol_setup)
    D2 = D @ D
    for word in D2.terms:
        assert all(word[t] <= word[t + 1] for t in range(len(word) - 1))


# -- adjoints -------------------------------------------------------------------

def test_adjoint_of_nabla_flat():
    m = fg.load_bundled("flat_t3")
    s = spinor(m, k=0)
    assert eo.adjoint(oc.nabla(s, 1)) == -oc.nabla(s, 1)


def test_adjoint_of_nabla_sol(sol_setup):
    # div f1 = 0 on the solvable model, so the adjoint is again -nabla
    assert eo.adjoint(oc.nabla(sol_setup, 1)) == -oc.nabla(sol_setup, 1)


def test_adjoint_of_clifford_coefficient(sol_setup):
    c1 = oc.endo_op(sol_setup, sol_setup.cliff[0])
    assert eo.adjoint(c1) == -c1


def test_adjoint_involution_and_antimultiplicativity(sol_setup):
    s = sol_setup
    ops = [oc.dirac(s), oc.nabla(s, 2), oc.endo_op(s, s.cliff[1])]
    for op in ops:
        assert eo.adjoint(eo.adjoint(op)) == op
    n1, n2 = oc.nabla(s, 1), oc.nabla(s, 2)
    assert eo.adjoint(n1 @ n2) == eo.adjoint(n2) @ eo.adjoint(n1)


def test_adjoint_degree_cap(sol_setup):
    s = sol_setup
    cube = oc.nabla(s, 1) @ (oc.nabla(s, 2) @ oc.nabla(s, 2))
    with pytest.raises(oc.SetupError):
        eo.adjoint(cube)


def test_adjoint_with_divergence():
    m = fg.make_model("affine", 1, 2, [(2, 1, 1, "1")],
                      jmat=Mat.from_rows([[0, -1], [1, 0]]))
    s = spinor(m, k=0)
    # div f1 = -1 here, so (nabla_{f1})^* = -nabla_{f1} + 1
    got = eo.adjoint(oc.nabla(s, 1))
    expect = -oc.nabla(s, 1) + eo.identity_op(s)
    assert oc.residual(got, expect).exact_zero


# -- Dirac operators -------------------------------------------------------------

def test_dirac_forms(heis_setup, sol_setup):
    s = sol_setup
    D = oc.dirac(s)
    half = rational(1, 2)
    expect = DiffOp_manual = oc.DiffOp(s, {
        (1,): s.cliff[0], (2,): s.cliff[1], (): -s.cliff[0].scale(half)})
    assert D == expect
    assert oc.dirac(heis_setup) == oc.dirac_prime(heis_setup)  # tau = 0


@pytest.mark.parametrize("name, k", [("flat_t3", 0), ("t3_landau", 2),
                                     ("heisenberg", 1), ("sol", 1)])
def test_dirac_self_adjoint_and_odd(name, k):
    m = fg.load_bundled(name)
    s = spinor(m, k=k if m.line_b is not None else 0)
    D = oc.dirac(s)
    assert eo.is_self_adjoint(D)
    assert eo.is_grading_odd(D)
    Dp = oc.dirac_prime(s)
    assert eo.is_grading_odd(Dp)


def test_dirac_prime_self_adjoint_when_tau_zero(heis_setup):
    assert eo.is_self_adjoint(oc.dirac_prime(heis_setup))


# -- Bochner ---------------------------------------------------------------------

def test_bochner_two_routes_all_models():
    for name in ("flat_t3", "heisenberg", "sol"):
        m = fg.load_bundled(name)
        s = spinor(m, k=1 if m.line_b is not None else 0)
        assert oc.residual(oc.bochner(s), eo.bochner_divergence_form(s)).exact_zero


def test_bochner_sol_is_plain_sum_of_squares(sol_setup):
    s = sol_setup
    eye = Mat.identity(s.dim)
    expect = oc.DiffOp(s, {(1, 1): -eye, (2, 2): -eye})
    assert oc.residual(oc.bochner(s), expect).exact_zero


def test_bochner_second_order_coefficients(sol_setup):
    B = oc.bochner(sol_setup)
    eye = Mat.identity(sol_setup.dim)
    for a in (1, 2):
        assert B.terms[(a, a)] == -eye


# -- Lichnerowicz right-hand side ---------------------------------------------------

def test_lichnerowicz_rhs_torus_with_twist():
    m = fg.load_bundled("t3_landau")
    k = 2
    s = spinor(m, k=k)
    rhs = oc.lichnerowicz_rhs(s)
    # Delta + k c(R^L): curvature action of the reduced two-form times k
    cRL = cf.two_form_action(m.line_b, s.J).scale(rational(k))
    expect = oc.bochner(s) + oc.endo_op(s, cRL)
    assert oc.residual(rhs, expect).exact_zero


def test_lichnerowicz_rhs_heisenberg_integrability_term(heis_setup):
    s = heis_setup
    rhs = oc.lichnerowicz_rhs(s)
    # leaf-direction first-order term: -(1/2) sum cc nabla_{R(f_a,f_b)} with
    # R(f1,f2) = -e1, i.e. + c(f1)c(f2) nabla_{e1}
    assert (0,) in rhs.terms
    assert rhs.terms[(0,)] == s.cliff[0] @ s.cliff[1]


def test_lichnerowicz_rhs_sol_constant(sol_setup):
    # frozen from the independent expansion: the degree-0 endomorphism is
    # (+1/2 - 1/4 - 1/2) Id = -(1/4) Id
    rhs = oc.lichnerowicz_rhs(sol_setup)
    eye = Mat.identity(sol_setup.dim)
    assert rhs.terms[()] == eye.scale(rational(-1, 4))
    D = oc.dirac(sol_setup)
    assert (D @ D).terms[()] == eye.scale(rational(-1, 4))


def test_lichnerowicz_scalar_sign(sol_setup):
    assert oc.lichnerowicz_scalar(sol_setup) == rational(-1, 2)  # -K/4, K = 2


# -- transversal de Rham operators ----------------------------------------------------

def test_dh_star_contains_itau():
    m = fg.load_bundled("sol")
    s = forms(m)
    dhs = oc.d_horizontal_star(s)
    assert dhs.terms[()] == s.iota[0]  # iota(tau) with tau = f1


def test_dh_adjoint_is_dh_star():
    for name in ("flat_t3", "heisenberg", "sol"):
        s = forms(fg.load_bundled(name))
        assert oc.residual(eo.adjoint(oc.d_horizontal(s)),
                           oc.d_horizontal_star(s)).exact_zero


def test_hodge_laplacian_flat_is_sum_of_squares():
    s = forms(fg.load_bundled("flat_t3"))
    eye = Mat.identity(s.dim)
    expect = oc.DiffOp(s, {(1, 1): -eye, (2, 2): -eye})
    assert oc.residual(oc.hodge_laplacian(s), expect).exact_zero


def h_model(q):
    """The generated Heisenberg-type model of codimension q (perfbench)."""
    from perfbench.models import heisenberg_model

    return fg.model_from_dict(heisenberg_model(q))


@pytest.mark.parametrize("model", ["heis_plain", "h4"])
def test_hodge_laplacian_is_one_normal_form_of_both_products(request, model):
    """The two products of Delta_H, accumulated into one normal form, equal
    their separate normal forms added."""
    s = forms(h_model(4) if model == "h4" else request.getfixturevalue(model))
    dH, dHs = oc.d_horizontal(s), oc.d_horizontal_star(s)
    assert oc.hodge_laplacian(s) == oc.compose(((dH, dHs),)) + oc.compose(((dHs, dH),))


def forbid(monkeypatch, *names):
    """Make each named Mat method raise when called."""
    for name in names:
        def refuse(*args, name=name):
            raise AssertionError(f"Mat.{name} called")
        monkeypatch.setattr(Mat, name, refuse)


def test_compose_adds_no_matrices(monkeypatch):
    """compose sums each word of its normal form once, from the factor pairs
    gathered there, and reads each curvature exchange off the whole table:
    with `Mat.__add__` and `Mat.__neg__` raising, D^2 on heisenberg at k = 1
    and Delta_H on h4, from factors built before, still come out as before
    (`_push` subtracts)."""
    sp = spinor(fg.load_bundled("heisenberg"), k=1)
    fo = forms(h_model(4))
    D = oc.dirac(sp)
    dH, dHs = oc.d_horizontal(fo), oc.d_horizontal_star(fo)
    want = (D @ D, oc.hodge_laplacian(fo))
    forbid(monkeypatch, "__add__", "__neg__")
    assert (D @ D, oc.compose(((dH, dHs), (dHs, dH)))) == want


def test_pair_term_forms_no_product_on_a_dead_pair(monkeypatch):
    """d_H^2 on h6 (p = 1, q = 6) passes at most p (q - 1) = 5 factor pairs
    to `product_sum`, `@` included: each leaf word is one `pair_action` of
    q - 1 products, not one product per pair a < b (15 here, most of them
    without an integrability component)."""
    fo = forms(h_model(6))
    dh = oc.d_horizontal(fo)
    want = dh @ dh
    sizes = []
    real = matrices.product_sum

    def counted(pairs):
        pairs = tuple(pairs)
        sizes.append(len(pairs))
        return real(pairs)

    for module in (matrices, cf, oc):
        monkeypatch.setattr(module, "product_sum", counted)
    monkeypatch.setattr(Mat, "__matmul__", lambda L, R: counted(((L, R),)))
    got = oc.dh_square_rhs(fo)
    assert sum(sizes) <= 5
    monkeypatch.undo()
    assert oc.residual(want, got).exact_zero


def test_compose_of_pairs_sums_their_products(sol_setup, heis_setup):
    s = sol_setup
    D, n1 = oc.dirac(s), oc.nabla(s, 1)
    assert oc.compose(((D, n1), (n1, D), (D, D))) == D @ n1 + n1 @ D + D @ D
    with pytest.raises(oc.SetupError):
        oc.compose(((D, D), (oc.dirac(heis_setup), oc.dirac(heis_setup))))


def test_verify_suite_heap_peak_h6():
    """The traced heap peak of the exact suite on h6, past its first run
    (which fills the q = 6 fiber caches).  Measured at 0.13 MiB on
    Python 3.11; it was 0.22 MiB while each product with an empty factor
    still indexed the other one, every +-1 entry was a Scalar of its own and
    both products of Delta_H were alive at once."""
    model = h_model(6)
    oc.verify_suite(model, k=1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = oc.verify_suite(model, k=1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rep.counted_passes() == 9
    assert peak < 0.18 * 2**20


def test_forms_ops_require_forms_fiber(sol_setup):
    with pytest.raises(oc.SetupError):
        oc.d_horizontal(sol_setup)


def test_codifferential_of_tau_sol():
    geom = fg.derive_connection(fg.load_bundled("sol"))
    assert geom.codiff_tau == ZERO
    assert geom.tau_norm2 == ONE


def suite_with(monkeypatch, model, **fields):
    """The suite's items by key on `model` at k = 1, with the given fields of
    its ConnectionData replaced."""
    geom = fg.derive_connection(model)._replace(**fields)
    monkeypatch.setattr(oc, "derive_connection", lambda m: geom)
    return {it.key: it for it in oc.verify_suite(model, k=1).items}


def test_basic_tau_identity_needs_the_codifferential_of_tau(monkeypatch):
    """On a unimodular model d_H^* tau integrates to 0; on the non-unimodular
    fixture it is 4, and identity (i) holds only with its -(1/2) d_H^* tau."""
    m = eo.non_unimodular()
    assert fg.derive_connection(m).codiff_tau == rational(4)
    it = suite_with(monkeypatch, m)["i"]
    assert it.passed and not it.skipped
    items = suite_with(monkeypatch, m, codiff_tau=ZERO)
    assert items["i"].status() == "FAIL"
    assert all(items[key].passed for key in "abcdefgh")


def test_tau_terms_are_read_from_the_connection_data(monkeypatch):
    """tau = -2 f1 on the non-unimodular fixture: |tau|^2 = 4 and d_H^* tau = 4
    are fields of its ConnectionData, and the right-hand sides read them
    there: a wrong |tau|^2 fails (a), (c) and (i), which carry (1/4)|tau|^2,
    and nothing else."""
    m = eo.non_unimodular()
    geom = fg.derive_connection(m)
    assert geom.tau == (rational(-2), ZERO)
    assert (geom.tau_norm2, geom.codiff_tau) == (rational(4), rational(4))
    items = suite_with(monkeypatch, m, tau_norm2=rational(5))
    assert {key for key, it in items.items() if not it.passed} == {"a", "c", "i"}


# -- the identity suite ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["flat_t3", "t3_landau", "heisenberg", "sol"])
def test_suite_all_pass(name):
    m = fg.load_bundled(name)
    rep = oc.verify_suite(m, k=1)
    assert rep.all_passed
    assert rep.counted_passes() == 9
    for it in rep.items:
        if not it.skipped:
            assert it.residual.exact_zero, (name, it.key)


def test_suite_with_rank_two_twist():
    """A rank-2 twist whose curvature R^{E/S} is not scalar: identities (a),
    (b), (c) and (i) hold for any twisting connection, not only for L^k."""
    m = fg.load_bundled("heisenberg")
    t1 = Mat.from_rows([[0, 1], [-1, 0]])             # real antisymmetric
    t2 = Mat(2, 2, {(0, 0): I, (1, 1): -I})           # imaginary diagonal
    theta = (t1, t2, t1.scale(rational(1, 2)))
    s = eo.twisted_spinor_setup(m, 1, theta)
    eo.setup_consistency(s)
    W = oc.twisting_curvature(s, 0, 1)
    assert W != Mat.identity(s.dim).scale(W.entry(0, 0))
    D = oc.dirac(s)
    D2 = D @ D
    Dp = oc.dirac_prime(s)
    for lhs, rhs in ((D2, oc.lichnerowicz_rhs(s)),
                     (Dp @ Dp, oc.dirac_prime_square_rhs(s)),
                     (D2, oc.dirac_square_full_curvature_rhs(s)),
                     (D2, oc.basic_tau_rhs(s))):
        assert oc.residual(lhs, rhs).exact_zero


def test_suite_skips_nonbasic_tau(twisted_sol):
    geom = fg.derive_connection(twisted_sol)
    assert geom.tau == (ONE, ZERO)
    assert not geom.tau_basic
    rep = oc.verify_suite(twisted_sol, k=0)
    by_key = {it.key: it for it in rep.items}
    assert by_key["i"].skipped and "not basic" in by_key["i"].reason
    for key in "abcdefgh":
        assert by_key[key].passed, key
    assert rep.all_passed  # skipped item does not count as failure


def test_suite_basic_tau_runs_on_sol():
    rep = oc.verify_suite(fg.load_bundled("sol"), k=1)
    item = {it.key: it for it in rep.items}["i"]
    assert not item.skipped and item.passed


def test_mutation_sensitivity_localized(monkeypatch):
    m = fg.load_bundled("sol")
    geom = fg.derive_connection(m)
    tweaked = geom._replace(K=geom.K + rational(1, 7))
    monkeypatch.setattr(oc, "derive_connection", lambda model: tweaked)
    rep = oc.verify_suite(m, k=1)
    by_key = {it.key: it for it in rep.items}
    assert not by_key["a"].passed
    assert not by_key["d"].passed
    assert by_key["b"].passed  # K enters only the decomposed right-hand sides
    assert by_key["c"].passed
    r = by_key["a"].residual
    assert not r.exact_zero and r.worst_monomial == "1"  # degree-0 monomial


# the leafwise rotation [e1,f1] = f2, [e1,f2] = -f1 preserves the complex
# structure, but a curvature component on (f2, f3) is not closed:
# dB(e1, f1, f3) = -B([e1,f1], f3) = -B(f2, f3) = i
BADFLUX = {"name": "badflux", "p": 1, "q": 4, "brackets": [[1, 2, 3, "1"], [1, 3, 2, "-1"]],
           "line_bundle": {"B": [["0", "0", "0", "0"], ["0", "0", "-1i", "0"],
                                 ["0", "1i", "0", "0"], ["0", "0", "0", "0"]]},
           "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                 ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]}


def test_inconsistent_formal_curvature_rejected(capsys, tmp_path):
    """A line bundle whose curvature is not closed fails validation, so
    every k is refused, k = 0 included, where B never enters the suite."""
    m = fg.model_from_dict(BADFLUX)
    assert fg.validate(m).failures == ("line bundle curvature is not closed: "
                                       "dB(u1,u2,u4) = 1i",)
    with pytest.raises(fg.ModelError, match="not closed"):
        fg.derive_connection(m)
    path = tmp_path / "badflux.json"
    path.write_text(json.dumps(BADFLUX), encoding="utf-8")
    for k in ("0", "1"):
        assert cli.main(["verify", "--model", str(path), "--k", k]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: invalid model 'badflux': line bundle curvature "
                                "is not closed: dB(u1,u2,u4) = 1i\n")


def consistency_cases():
    """(id, model) for every valid bundled model, every digest model (its h4
    is the generated h4) and the generated h6."""
    models = {m.name: m for m in map(fg.load_bundled, fg.bundled_model_names())
              if fg.validate(m).ok}
    models.update((m.name, m) for m in [*eo.digest_models(), h_model(6)])
    return [pytest.param(m, id=name) for name, m in models.items()]


@pytest.mark.parametrize("model", consistency_cases())
def test_setups_of_valid_models_pass_the_setup_consistency_oracle(model):
    """What a setup does not check of itself holds on the spinor setups,
    at k = 0, 1 and 2 where the model has a line bundle, and on the forms
    setup: each Gamma_u is skew-Hermitian and a Clifford connection, the
    leafwise curvature vanishes and the rewriting is confluent."""
    geom = fg.derive_connection(model)
    eo.setup_consistency(oc.forms_setup(model, geom))
    for k in ((0, 1, 2) if model.line_b is not None else (0,)):
        eo.setup_consistency(oc.spinor_setup(model, geom, k))


def test_setup_rejects_a_connection_of_the_wrong_fiber_dimension(sol_setup):
    """The fiber dimension is that of the Clifford generators; a connection
    matrix of any other size is refused."""
    s = sol_setup
    gamma = [Mat.zero(2 * s.dim)] * s.model.n
    with pytest.raises(oc.SetupError, match="wrong fiber dimension"):
        oc.BundleSetup(s.model, s.geom, s.cliff, gamma, 0, s.J, None, None)


def test_a_twisted_setup_requires_a_line_bundle(heis_plain):
    with pytest.raises(oc.SetupError, match="requires a line bundle"):
        spinor(heis_plain, k=1)


def test_residual_reports_worst_monomial(sol_setup):
    s = sol_setup
    A = oc.dirac(s)
    B = A + oc.nabla(s, 2).scale(rational(1, 3))
    r = oc.residual(A, B)
    assert not r.exact_zero
    assert r.worst_monomial == "∇3"
    assert abs(r.max_abs - 1 / 3) < 1e-12


def test_residual_of_equal_operators_forms_no_difference(monkeypatch):
    """Equal operators are compared word by word: no Mat is added,
    subtracted or negated."""
    sp = spinor(fg.load_bundled("heisenberg"), k=1)
    D = oc.dirac(sp)
    lhs, rhs = D @ D, oc.lichnerowicz_rhs(sp)
    forbid(monkeypatch, "__add__", "__sub__", "__neg__")
    assert oc.residual(lhs, rhs) == oc.Residual(True, 0.0)


def test_residual_ties_go_to_the_first_word_of_the_left_operator(sol_setup):
    """Every word below deviates by 1: A's words come first, in A's order,
    whether B has them or not."""
    s = sol_setup
    A = oc.nabla(s, 0) + oc.nabla(s, 1).scale(2)
    B = oc.nabla(s, 1) + oc.nabla(s, 2)
    assert oc.residual(A, B) == oc.Residual(False, 1.0, "∇1")
    assert oc.residual(B, A) == oc.Residual(False, 1.0, "∇2")


@pytest.mark.parametrize("name", ["flat_t3", "heisenberg", "sol", "t3_landau", "h4"])
def test_curvature_tables_are_whole(name):
    """The model's curvature and that of both setups (the spinor one with
    L^k, k = 1 where there is a line bundle) hold every ordered pair:
    R(v, u) = -R(u, v) and R(u, u) = 0."""
    model = h_model(4) if name == "h4" else fg.load_bundled(name)
    geom = fg.derive_connection(model)
    k = 1 if model.line_b is not None else 0
    n = model.n
    for curv in (geom.curvature, oc.spinor_setup(model, geom, k).curv,
                 oc.forms_setup(model, geom).curv):
        assert len(curv) == n * n
        for u in range(n):
            assert curv[(u, u)].is_zero()
            for v in range(n):
                assert curv[(u, v)] == -curv[(v, u)]


# -- pinned operators --------------------------------------------------------------

def test_suite_operators_pinned():
    """Every exact operator of the suite equals the one it was pinned at: a
    dropped or changed term fails here even where an identity would pass
    vacuously."""
    assert eo.operator_digest() == eo.OPERATOR_DIGEST


def test_bochner_is_sum_of_adjoint_squares():
    """The closed form -sum_a (nabla_a^2 + div(f_a) nabla_a) equals
    sum_a (nabla_a)^* nabla_a with the adjoint from the oracle's engine."""
    for _, _, sp, fo in eo.digest_setups():
        for s in (sp, fo):
            p = s.model.p
            want = oc.DiffOp(s, {})
            for a in range(s.model.q):
                na = oc.nabla(s, p + a)
                want = want + eo.adjoint(na) @ na
            assert oc.bochner(s) == want
