"""Lattice spectra on the flat torus: the fiber term read off the exact
Dirac square, link phases and their flux sign, the Fourier-reduced magnetic
Laplacian, its Sturm counts and its eigensolver against the site-basis
operator, the Kronecker-sum eigenvalues of the Dirac square against a dense
assembly, the squared lattice D, and the gap and crosscheck CLI."""

import json
import math

import numpy as np
import pytest

from transdirac import cli
from transdirac import clifford_fiber as cf
from transdirac import frame_geometry as fg
from transdirac import operator_calculus as oc
from transdirac import spectral
from transdirac.exact import Scalar, rational


@pytest.fixture(scope="module")
def landau():
    return fg.resolve_model("t3_landau")


@pytest.fixture(scope="module")
def geom(landau):
    return spectral.flat_torus(landau)[0]


M_LANDAU = 2 * math.pi  # m = 2*pi|c| of t3_landau, whose Chern number is c = i B_12 = 1


def landau_variant(name, b12, J=(("0", "-1"), ("1", "0"))):
    """t3_landau with B_12 = b12 (a string) and the given J."""
    b21 = b12[1:] if b12.startswith("-") else f"-{b12}"
    return fg.model_from_dict({"name": name, "p": 1, "q": 2, "brackets": [],
                               "line_bundle": {"B": [["0", b12], [b21, "0"]]},
                               "J": [list(row) for row in J]})


def spinors(model, k):
    return oc.spinor_setup(model, spectral.flat_torus(model)[0], k)


def chern(model):
    """Test oracle: c = i B_12 from the model's floats, not from a setup."""
    return round((1j * complex(model.line_b.entry(0, 1))).real)


def constant_endomorphism(model, k):
    """Test oracle: the fiber term of the lattice Dirac square on a torus
    with a line bundle, by hand: k times the curvature action of B in
    physical units, 2*pi*k c(B); on a flat torus every other constant of
    the normal form vanishes."""
    J = fg.complex_structure(model)
    return 2 * math.pi * k * spectral._dense(cf.two_form_action(model.line_b, J))


# -- the fiber term, read off the exact Dirac square ---------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_lattice_constant_is_k_times_the_curvature_action(landau, geom, k):
    setup = oc.spinor_setup(landau, geom, k)
    want = cf.two_form_action(landau.line_b, setup.J).scale(rational(k))
    assert spectral.lattice_constant(setup) == want


def test_lattice_constant_vanishes_without_a_bundle():
    """flat_t3 has no line bundle: E = 0 on the spinors and on the forms."""
    flat = fg.resolve_model("flat_t3")
    geom, m = spectral.flat_torus(flat)
    assert m == 0.0
    for setup in (oc.spinor_setup(flat, geom, 0), oc.forms_setup(flat, geom)):
        E = spectral.lattice_constant(setup)
        assert E.is_zero() and E.n == setup.dim


def test_lattice_constant_refuses_a_leaf_derivative():
    """On the Heisenberg model D^2 carries the integrability term along the
    leaf, nabla_1, which the lattice operator has no place for."""
    heis = fg.resolve_model("heisenberg")
    setup = oc.spinor_setup(heis, fg.derive_connection(heis), 1)
    assert (0,) in (oc.dirac(setup) @ oc.dirac(setup)).terms
    with pytest.raises(fg.ModelError, match="at ∇1: outside the lattice's regime"):
        spectral.lattice_constant(setup)


def test_lattice_constant_refuses_a_wrong_second_order_word(monkeypatch, landau, geom):
    """A Dirac square whose transverse nabla_a^2 does not carry -I, or that
    lacks one, is outside the regime too."""
    setup = oc.spinor_setup(landau, geom, 1)
    square = oc.dirac(setup) @ oc.dirac(setup)
    for change in ({(1, 1): square.terms[(1, 1)].scale(rational(2))}, {(2, 2): None}):
        terms = {w: M for w, M in {**square.terms, **change}.items() if M is not None}
        monkeypatch.setattr(spectral, "compose", lambda pairs: oc.DiffOp(setup, terms))
        with pytest.raises(fg.ModelError, match="outside the lattice's regime"):
            spectral.lattice_constant(setup)


# -- link phases -------------------------------------------------------------

def loop_link_phases(N, flux_quanta):
    """Site-by-site reference for the vectorised link_phases."""
    a = 2.0 * math.pi * flux_quanta
    Ux = np.zeros((N, N), dtype=complex)
    Uy = np.zeros((N, N), dtype=complex)
    for x in range(N):
        for y in range(N):
            Ux[x, y] = np.exp(1j * (a * y / N if x == N - 1 else 0.0))
            Uy[x, y] = np.exp(-1j * (a * x / (N * N)))
    return Ux, Uy


@pytest.mark.parametrize("N,kc", [(4, 0), (6, 1), (10, -3)])
def test_link_phases_match_site_loop(N, kc):
    for got, want in zip(spectral.link_phases(N, kc), loop_link_phases(N, kc)):
        np.testing.assert_array_equal(got, want)


def plaquette_loops(N, kc):
    """U_x U_y U_x^dagger U_y^dagger around the cell at each site [x, y]."""
    Ux, Uy = spectral.link_phases(N, kc)
    return Ux * np.roll(Uy, -1, axis=0) * np.roll(Ux, -1, axis=1).conj() * Uy.conj()


@pytest.mark.parametrize("N,kc", [(8, 1), (12, 5), (10, -3)])
def test_every_plaquette_carries_the_same_holonomy(N, kc):
    angle = np.angle(plaquette_loops(N, kc))
    np.testing.assert_allclose(angle, angle[0, 0], atol=1e-12)
    assert abs(angle[0, 0]) == pytest.approx(2 * math.pi * abs(kc) / N ** 2, abs=1e-12)
    assert abs(angle.sum()) == pytest.approx(2 * math.pi * abs(kc), abs=1e-9)


@pytest.mark.parametrize("k", [1, -1, 3, -3])
def test_plaquette_loop_is_exp_of_the_exact_curvature(landau, geom, k):
    """The loop, at the flux `plane_flux` reads off the setup, is
    exp(h^2 F_12) for the physical curvature F = 2*pi*k*B of the exact
    layer, not its conjugate."""
    N = 10
    F12 = 2 * math.pi * k * complex(landau.line_b.entry(0, 1))
    loops = plaquette_loops(N, spectral.plane_flux(oc.spinor_setup(landau, geom, k)))
    np.testing.assert_allclose(loops, np.exp(F12 / N ** 2), atol=1e-12)


# -- the magnetic Laplacian and its eigensolver -------------------------------

def dense_ring(d):
    """Test oracle: the ring diag(d) - hops, hops -1, as a dense matrix."""
    L = len(d)
    return np.diag(d) - np.roll(np.eye(L), 1, axis=1) - np.roll(np.eye(L), -1, axis=1)


def dense_hops(N, kc):
    """The forward hops U_x, U_y of link_phases as dense site-basis
    matrices, site (x, y) at index x*N + y."""
    site = np.arange(N * N).reshape(N, N)
    hops = []
    for axis, U in enumerate(spectral.link_phases(N, kc)):
        M = np.zeros((N * N, N * N), dtype=complex)
        M[site.ravel(), np.roll(site, -1, axis).ravel()] = U.ravel()
        hops.append(M)
    return hops


def site_bochner(N, kc):
    """Test oracle: the magnetic Bochner Laplacian assembled on the N x N
    sites, sum over the two directions of (2 - U - U^dagger)/h^2, h = 1/N."""
    Ux, Uy = dense_hops(N, kc)
    return (4.0 * np.eye(N * N) - Ux - Ux.conj().T - Uy - Uy.conj().T) * (N * N)


def test_lattice_dirac_matches_the_assembled_central_differences(landau):
    """The matrix-free D_h against sum_a (U_a - U_a^dagger) N/2 (x) c(f_a)
    assembled from the dense hops."""
    N, kc = 6, 2
    gens = [spectral._dense(C) for C in cf.spinor_cliffords(fg.complex_structure(landau))]
    D = sum(np.kron((U - U.conj().T) * (N / 2), C) for U, C in zip(dense_hops(N, kc), gens))
    F = gens[0].shape[0]
    rng = np.random.default_rng(2)
    V = rng.standard_normal((N * N * F, 3)) + 1j * rng.standard_normal((N * N * F, 3))
    got = spectral.lattice_dirac(gens, N, kc, V.reshape(N, N, F, 3))
    np.testing.assert_allclose(got.reshape(-1, 3), D @ V, atol=1e-12)


@pytest.mark.parametrize("N,kc", [(6, 0), (6, 1), (6, 3), (8, -2)])
def test_chain_solver_inverts_each_shifted_chain(N, kc):
    """One open block per chain (kc = 0), two, and N, against a dense solve
    of the cyclic chain with hops -1, at eigen's shift inside the spectrum:
    half of crosscheck's cut."""
    d = (np.array(spectral.magnetic_bochner(N, kc).diagonals)
         - spectral.two_level_cut(kc) / 2 / N ** 2)
    g, L = d.shape
    Y = np.random.default_rng(1).standard_normal((g, L, 3))
    X = spectral._chain_solver(d, N)(Y)
    for c in range(g):
        np.testing.assert_allclose(dense_ring(d[c]) @ X[c], Y[c], atol=1e-10)


CLUSTER_GAP = 1e-9


def dense_levels(N, kc):
    """Eigenvalues of the site-basis oracle, and the midpoints between its
    clusters more than CLUSTER_GAP apart, with the count below each."""
    vals = np.linalg.eigvalsh(site_bochner(N, kc))
    ends = np.flatnonzero(np.diff(vals) > CLUSTER_GAP)
    return vals, [((vals[i] + vals[i + 1]) / 2, i + 1) for i in ends]


def iteration_rate(vals, cut):
    """The convergence factor per step of shift-invert iteration at cut/2
    for the eigenvalues below the cut against those above: a bound on each
    chain's factor, since a chain's eigenvalues are a subset of H's."""
    shift = cut / 2
    return np.max(np.abs(vals[vals < cut] - shift)) / np.min(np.abs(vals[vals >= cut] - shift))


@pytest.mark.parametrize("kc", [0, 1, -1, 2, 3, 4, 6, 8])
@pytest.mark.parametrize("N", [4, 6, 8, 12, 16])
def test_eigen_matches_the_site_basis_operator(N, kc):
    """The reduction and its solver against dense eigh of the site-basis H,
    with g = gcd(kc, N) chains from 1 to N.  The cuts: crosscheck's, where
    crosscheck accepts the flux (2|kc|/N^2 <= 0.05); the first cluster
    midpoints that the iteration resolves in a few dozen steps; and at N = 4
    one above the whole spectrum, where every chain is solved whole.
    Eigenvectors mapped back to the sites must be eigenvectors of H, which
    a reversed flux would break."""
    H = spectral.magnetic_bochner(N, kc)
    assert H.shape == (N * N, N * N)
    assert len(H.diagonals) == math.gcd(kc, N)
    site = site_bochner(N, kc)
    dense, gaps = dense_levels(N, kc)
    cuts = [x for x, _ in gaps[:6] if iteration_rate(dense, x) < 0.5]
    if 2 * abs(kc) <= 0.05 * N * N:
        cuts.append(spectral.two_level_cut(kc))
    if N == 4:
        cuts.append(2 * dense[-1] + 1)
    assert cuts
    for cut in cuts:
        vals, vecs = spectral.eigen(H, cut)
        count = np.sum(dense < cut)
        assert vals.shape == (count,) and vecs.shape == (N * N, count)
        np.testing.assert_allclose(vals, dense[:count], rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(count), atol=1e-10)
        residual = np.linalg.norm(site @ vecs - vecs * vals, axis=0)
        assert np.all(residual <= 1e-8 * np.maximum(1.0, vals))
        again = spectral.eigen(spectral.magnetic_bochner(N, kc), cut)
        np.testing.assert_array_equal(again[0], vals)
        np.testing.assert_array_equal(again[1], vecs)


def test_crosscheck_cut_holds_two_levels_over_its_domain():
    """Over every (N, kc) that crosscheck accepts at its default tolerance,
    the cut keeps exactly the two lowest levels: 2|kc| eigenvalues, or 5 at
    kc = 0."""
    for N in range(4, 34, 2):
        for kc in (kc for kc in range(N * N) if 2 * (kc / N ** 2) <= 0.05):
            H = spectral.magnetic_bochner(N, kc)
            assert (spectral.eigenvalues_below(H, spectral.two_level_cut(kc))
                    == (2 * kc if kc else 5)), (N, kc)


def test_eigen_raises_at_a_cut_in_a_narrow_gap():
    """At N = 8, kc = 3 the first gap is narrow against its distance from
    the shift: the iteration cannot separate the pairs below the cut from
    those above in MAX_ITERATIONS steps, and says so instead of returning
    unconverged pairs."""
    vals, gaps = dense_levels(8, 3)
    cut = gaps[0][0]
    assert iteration_rate(vals, cut) > 0.9
    with pytest.raises(spectral.SolverError, match="did not converge"):
        spectral.eigen(spectral.magnetic_bochner(8, 3), cut)


@pytest.mark.parametrize("N,kc", [(N, kc) for N in (4, 6, 8, 12, 16, 24)
                                  for kc in (0, 1, -1, 2, 3, 4, 6, 8, 12) if 2 * abs(kc) <= N * N])
def test_sturm_count_matches_the_site_basis_operator(N, kc):
    """The ring counts against dense eigh of the site-basis H, at every gap
    between its eigenvalue clusters over the whole spectrum, and the
    bisected next eigenvalue above each gap (only at the bottom of the
    spectrum for N > 8, where bisecting every level would be slow)."""
    H = spectral.magnetic_bochner(N, kc)
    vals, gaps = dense_levels(N, kc)
    assert spectral.eigenvalues_below(H, vals[0] - 1.0) == 0
    assert spectral.eigenvalues_below(H, vals[-1] + 1.0) == N * N
    for x, below in gaps:
        assert spectral.eigenvalues_below(H, x) == below, x
    for x, below in gaps if N <= 8 else gaps[:6]:
        assert (spectral.least_value_above(H, x, {0.0: below})
                == pytest.approx(vals[below], rel=1e-12))


@pytest.mark.parametrize("N,kc,x", [(6, 6, 4.0), (4, 0, 5.0), (4, 0, 7.0), (4, 8, 5.0)])
def test_sturm_count_through_exact_zero_pivots(N, kc, x):
    """Diagonals that are small integers up to rounding give pivots that are
    exactly zero.  At N = 6, kc = 6 (one ring is 3, 2, 3, 5, 6, 5) they fall
    inside the sweeps at x = 4.  At N = 4 the open chain left by cutting two
    sites of a ring with diagonal 4 or 6 (kc = 0) or 2 and 6 (kc = 8) is
    singular at x = 5 or 7, and the count cuts one site instead."""
    H = spectral.magnetic_bochner(N, kc)
    for d in H.diagonals:
        assert spectral._ring_count(d, x, 2) == np.sum(np.linalg.eigvalsh(dense_ring(d)) < x)
    assert spectral.eigenvalues_below(H, N * N * x) == np.sum(dense_levels(N, kc)[0] < N * N * x)


@pytest.mark.parametrize("N", [4, 6, 8, 12, 16, 24, 32])
def test_each_ring_has_the_spectrum_of_its_class(N):
    """eigenvalues_below counts only the first h = gcd(kc/g, g) of the g
    rings, g/h times each, because ring c is a magnetic translate of ring
    c mod h.  Dense spectra of every ring, for |kc| < 2N, and the counts of
    all rings between the levels of the first, against that rule."""
    for kc in range(1 - 2 * N, 2 * N):
        H = spectral.magnetic_bochner(N, kc)
        g = len(H.diagonals)
        h = math.gcd(kc // g, g)
        if h == g:
            continue
        spectra = [np.linalg.eigvalsh(dense_ring(d)) for d in H.diagonals]
        for c in range(h, g):
            np.testing.assert_allclose(spectra[c], spectra[c % h], rtol=1e-12, atol=1e-12)
        levels = np.unique(np.round(np.concatenate(spectra[:h]), 9))
        for t in (levels[1:] + levels[:-1])[::max(1, len(levels) // 8)] / 2:
            assert (spectral.eigenvalues_below(H, N * N * t)
                    == sum(np.sum(s < t) for s in spectra)), (kc, t)


@pytest.mark.parametrize("N", [16, 24, 32, 48, 64, 128])
def test_zero_flux_gap_is_the_first_fourier_level(landau, geom, N):
    """At k = 0 the rings have constant diagonals and doubly degenerate
    levels; the gap above the constant mode is N^2 (2 - 2 cos(2 pi/N))."""
    sec = spectral.sector(oc.spinor_setup(landau, geom, 0))
    rep = spectral.spectrum_report(sec, M_LANDAU, N)
    assert (rep.kernel_dim_even, rep.kernel_dim_odd) == (1, 1)
    assert rep.gap == pytest.approx(N * N * (2 - 2 * math.cos(2 * math.pi / N)), rel=1e-12)


# -- eigenvalues -------------------------------------------------------------

def assembled_parity_blocks(model, k, N):
    """Test oracle: the explicit (even, odd) blocks H (x) I + I (x) E_parity
    of the lattice Dirac square."""
    H = site_bochner(N, k * chern(model))
    E = constant_endomorphism(model, k)
    odd = np.array([bin(m).count("1") % 2 == 1 for m in range(E.shape[0])])
    blocks = []
    for ix in (~odd, odd):
        sub = E[np.ix_(ix, ix)]
        blocks.append(np.kron(H, np.eye(len(sub))) + np.kron(np.eye(N * N), sub))
    return blocks


# (k, N, how far the odd block of E is moved down, in units of m)
KRONECKER_CASES = [pytest.param(k, N, 0, id=f"{k}-{N}") for k in (0, 1, 2, 3) for N in (8, 12)]
KRONECKER_CASES.append(pytest.param(1, 8, 10, id="1-8-odd-block-10m-below"))


@pytest.mark.parametrize("k,N,odd_drop", KRONECKER_CASES)
def test_kronecker_sum_matches_dense_parity_blocks(landau, geom, k, N, odd_drop):
    """The report against the full dense spectrum of both assembled blocks:
    at k = 0, where E vanishes and the constant lies in both kernels; and
    with the odd block moved 10m below the even one, so that the odd kernel
    holds several Landau levels and the gap lies far up the spectrum of H.
    The shift is odd_drop in exact units, since m = 2*pi here."""
    sec = spectral.sector(oc.spinor_setup(landau, geom, k))
    sec = sec._replace(odd=[e - rational(odd_drop) for e in sec.odd])
    rep = spectral.spectrum_report(sec, M_LANDAU, N)
    even, odd = (np.linalg.eigvalsh(B) for B in assembled_parity_blocks(landau, k, N))
    odd -= odd_drop * M_LANDAU
    allvals = np.sort(np.concatenate([even, odd]))
    thr = 2 * k * rep.m / 10 if k else 1e-6
    assert rep.kernel_dim_even == np.sum(even < thr)
    assert rep.kernel_dim_odd == np.sum(odd < thr)
    assert rep.gap == pytest.approx(allvals[allvals >= thr][0], rel=1e-10)
    if k and not odd_drop:
        assert (rep.kernel_dim_even, rep.kernel_dim_odd) == (k, 0)
    if odd_drop:
        assert rep.kernel_dim_odd > rep.kernel_dim_even == k


def test_report_without_a_gap_raises():
    """Every sector value below the kernel threshold: all N^2 eigenvalues
    of H are counted below it, and there is no gap to report."""
    sec = spectral.Sector(k=1, flux=1, even=[rational(-10 ** 6)], odd=[rational(-10 ** 6)])
    with pytest.raises(spectral.SolverError, match="lies above the kernel threshold"):
        spectral.spectrum_report(sec, M_LANDAU, 4)


def test_kernel_count_is_not_capped_by_requested_count(landau, geom):
    sec = spectral.sector(oc.spinor_setup(landau, geom, 12))
    rep = spectral.spectrum_report(sec, M_LANDAU, 32)
    assert rep.kernel_dim_even == 12
    assert rep.kernel_dim_odd == 0


def test_gap_scan_rows_repeat_exactly(landau, geom):
    # the solver's start vectors decide the last digits
    sectors = [spectral.sector(oc.spinor_setup(landau, geom, k)) for k in (1, 2)]
    first, second = ([{**r.row(), "runtime_ms": None}
                      for r in spectral.gap_scan(sectors, M_LANDAU, 16)] for _ in range(2))
    assert first == second


def test_flat_torus_carries_the_scan_invariants(landau):
    geom, m = spectral.flat_torus(landau)
    assert geom == fg.derive_connection(landau)
    assert m == 2 * math.pi  # mu = |i B_12| = |c| at q = 2
    with pytest.raises(fg.ModelError, match="not a flat torus"):
        spectral.flat_torus(fg.resolve_model("heisenberg"))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_plane_flux_is_k_times_the_chern_number(landau, k):
    """Phi = k c from the setup's curvature: c = 1 on t3_landau, -1 on its
    mirror (J and B reversed, still positive for J) and 2 on a doubled B;
    0 on the untwisted forms."""
    assert spectral.plane_flux(spinors(landau, k)) == k
    mirrored = landau_variant("t3_mirrored", "1i", J=(("0", "1"), ("-1", "0")))
    assert spectral.plane_flux(spinors(mirrored, k)) == -k
    assert spectral.plane_flux(spinors(landau_variant("t3_c2", "-2i"), k)) == 2 * k
    flat = fg.resolve_model("flat_t3")
    assert spectral.plane_flux(oc.forms_setup(flat, spectral.flat_torus(flat)[0])) == 0


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_parity_blocks_are_exact(landau, geom, k):
    """E = k c(B) on t3_landau: -k on the even spinor, k on the odd, as
    exact Scalars."""
    even, odd = spectral.parity_blocks(oc.spinor_setup(landau, geom, k))
    assert (even, odd) == ([rational(-k)], [rational(k)])
    assert all(isinstance(e, Scalar) for e in (*even, *odd))
    assert spectral.sector(oc.spinor_setup(landau, geom, k)) == (k, k, even, odd)


# -- the squared lattice D -----------------------------------------------------

@pytest.mark.parametrize("kc", [0, 1, 3])
def test_squared_lattice_dirac_converges_at_second_order(landau, geom, kc):
    setups = [oc.spinor_setup(landau, geom, kc)]
    (row,) = (r for r in spectral.crosscheck_rows(setups, 16) if r["fiber"] == "spinor")
    assert row["kc"] == kc
    assert row["ratio"] >= 3
    assert row["r_N"] > row["r_2N"] > 0


def test_square_residual_does_not_depend_on_the_eigenbasis(monkeypatch, landau):
    """The residual on the solver's vectors of the two kc-fold levels matches
    the one on dense eigh's basis of the same levels of the site-basis H."""
    gens = [spectral._dense(C) for C in cf.spinor_cliffords(fg.complex_structure(landau))]
    E = constant_endomorphism(landau, 3)
    reduced = spectral.square_residual(gens, E, 16, 3)

    def dense(H, cut):
        vals, vecs = np.linalg.eigh(site_bochner(H.N, 3))
        return vals[vals < cut], vecs[:, vals < cut]

    monkeypatch.setattr(spectral, "eigen", dense)
    assert spectral.square_residual(gens, E, 16, 3) == pytest.approx(reduced, rel=1e-10)


def test_crosscheck_fails_on_the_conjugate_flux(monkeypatch, capsys):
    """Links carrying -F instead of F leave H's spectrum as it was but break
    D_h^2 -> H + E: the spinor rows stop converging."""
    links = spectral.link_phases
    monkeypatch.setattr(spectral, "link_phases",
                        lambda N, kc: tuple(U.conj() for U in links(N, kc)))
    assert cli.main(["crosscheck", "--model", "t3_landau", "--k", "1..2", "--N", "16"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["fiber"], r["ok"]) for r in rows] == \
        [("spinor", False), ("spinor", False), ("forms", True)]
    assert all(r["ratio"] < 1.1 for r in rows[:2])


def test_crosscheck_fails_on_a_reversed_plane_flux(monkeypatch, capsys):
    """Reading Phi with the wrong sign passes `gap`, since the Harper
    spectrum is symmetric in the flux and Riemann-Roch counts |Phi|, but
    not `crosscheck`: the links then carry -F, and only the forms row, at
    Phi = 0, still converges."""
    flux = spectral.plane_flux
    monkeypatch.setattr(spectral, "plane_flux", lambda setup: -flux(setup))
    argv = ["--model", "t3_landau", "--k", "1..2", "--N", "16"]
    assert cli.main(["gap", *argv]) == 0
    capsys.readouterr()
    assert cli.main(["crosscheck", *argv]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["fiber"], r["kc"], r["ok"]) for r in rows] == \
        [("spinor", -1, False), ("spinor", -2, False), ("forms", 0, True)]
    assert all(r["ratio"] < 1.1 for r in rows[:2]) and rows[2]["ratio"] > 3.9


# -- the gap and crosscheck commands ----------------------------------------

def test_gap_cli_passes_on_resolved_grid(capsys):
    assert cli.main(["gap", "--model", "t3_landau", "--k", "1..4", "--N", "24"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(r["kernel_even"], r["kernel_odd"]) for r in report["rows"]] == \
        [(1, 0), (2, 0), (3, 0), (4, 0)]
    assert report["passed"] and report["notes"] == []


def test_gap_cli_rejects_under_resolved_flux(capsys):
    assert cli.main(["gap", "--model", "t3_landau", "--k", "45", "--N", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "under-resolved" in captured.err


@pytest.mark.parametrize("command,argv,message", [
    ("crosscheck", ["--model", "t3_landau", "--k", "45", "--N", "16"], "under-resolved"),
    ("gap", ["--model", "heisenberg", "--N", "16"], "not a flat torus"),
    ("crosscheck", ["--model", "heisenberg", "--N", "16"], "not a flat torus"),
    ("gap", ["--model", "t3_landau", "--k=-1", "--N", "16"], "k=-1 < 0"),
    ("crosscheck", ["--model", "t3_landau", "--k=-1", "--N", "16"], "k=-1 < 0"),
    ("gap", ["--model", "t3_landau", "--k=-2..2", "--N", "16"], "k=-2 < 0"),
    ("crosscheck", ["--model", "t3_landau", "--k=-2..2", "--N", "16"], "k=-2 < 0"),
    ("gap", ["--model", "FLAT_Q4", "--N", "16"], "transverse dimension q=2"),
    ("crosscheck", ["--model", "FLAT_Q4", "--N", "16"], "transverse dimension q=2"),
    ("gap", ["--model", "t3_landau", "--k", "1..1000000000000", "--N", "16"], "under-resolved"),
    ("crosscheck", ["--model", "t3_landau", "--k", "1..1000000000000", "--N", "16"],
     "under-resolved"),
    *((command, ["--model", "T3_HALF", "--k", k, "--N", "16"], "non-integer Chern number 1/2")
      for command in ("gap", "crosscheck") for k in ("1", "2")),
])
def test_lattice_cli_rejects_inputs_it_cannot_resolve(capsys, tmp_path, command, argv, message):
    """FLAT_Q4 stands for a flat q = 4 torus with a positive line bundle,
    valid for `verify`: the lattice layer is written for q = 2 only.  T3_HALF
    is t3_landau with B_12 = -i/2, positive for J but with Chern number 1/2;
    at k = 2 its flux k c = 1 is an integer, so the refusal must read c.  A
    k range of 10^12 powers is refused from its largest flux, before any
    per-k work."""
    flat_q4, t3_half = tmp_path / "flat_q4.json", tmp_path / "t3_half.json"
    flat_q4.write_text(json.dumps({
        "name": "flat_q4", "p": 1, "q": 4, "brackets": [],
        "line_bundle": {"B": [["0", "-1i", "0", "0"], ["1i", "0", "0", "0"],
                              ["0", "0", "0", "-1i"], ["0", "0", "1i", "0"]]},
        "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]}), encoding="utf-8")
    t3_half.write_text(json.dumps({
        "name": "t3_half", "p": 1, "q": 2, "brackets": [],
        "line_bundle": {"B": [["0", "-1/2i"], ["1/2i", "0"]]},
        "J": [["0", "-1"], ["1", "0"]]}), encoding="utf-8")
    files = {"FLAT_Q4": str(flat_q4), "T3_HALF": str(t3_half)}
    argv = [files.get(a, a) for a in argv]
    assert cli.main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", ["crosscheck"])
def test_lattice_cli_exits_3_when_the_eigensolver_fails(monkeypatch, capsys, command):
    """crosscheck's eigenvectors come from an iteration that can fail to
    converge; gap only counts and bisects."""
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 0)
    assert cli.main([command, "--model", "t3_landau", "--k", "1", "--N", "16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "did not converge" in captured.err


def test_gap_cli_exits_3_without_a_gap(monkeypatch, capsys):
    low = [rational(-10 ** 6)]
    monkeypatch.setattr(spectral, "sector", lambda setup: spectral.Sector(setup.k, 1, low, low))
    assert cli.main(["gap", "--model", "t3_landau", "--k", "1", "--N", "16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lies above the kernel threshold" in captured.err


def test_gap_cli_exits_3_on_an_ambiguous_kernel_cluster(capsys, landau, geom):
    """At kc/N^2 = 5/16 (a --tol loose enough to pass the under-resolved
    guard) the lattice gap lies within 4x the kernel threshold 2km/10, so
    spectrum_report refuses to count a kernel below it."""
    with pytest.raises(spectral.SolverError, match="ambiguous kernel cluster at k=5, N=4"):
        spectral.spectrum_report(spectral.sector(oc.spinor_setup(landau, geom, 5)), M_LANDAU, 4)
    assert cli.main(["gap", "--model", "t3_landau", "--k", "5", "--N", "4", "--tol", "0.7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lies within 4x the kernel threshold 2km/10" in captured.err


def test_gap_cli_exits_1_on_a_wrong_even_kernel(monkeypatch, capsys):
    def fake_scan(sectors, m, N):
        return [spectral.SpectrumReport(k=1, N=N, gap=2 * m, kernel_dim_even=2,
                                         kernel_dim_odd=0, fitted_C=0.0, m=m, runtime_ms=0.0)]

    monkeypatch.setattr(cli.spec, "gap_scan", fake_scan)
    assert cli.main(["gap", "--model", "t3_landau", "--k", "1", "--N", "24"]) == 1
    captured = capsys.readouterr()
    assert "Riemann-Roch" in captured.out
