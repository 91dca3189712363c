"""Magnetic lattice spectra of the transverse Dirac square on flat tori.

The torus fixtures have one leaf direction and a two-dimensional transverse
torus carrying a line bundle whose curvature two-form is stored in units of
2*pi, so the integer entries of i*B are Chern numbers.  Each k reduces to
one `Sector`, read off the verified spinor setup of L^k: the flux Phi = kc
of the transverse plane (`plane_flux`) and the exact eigenvalues on each
parity of the fiber term E of D_k^2 = -sum_a nabla_a^2 + E (`lattice_constant`
refuses any other word, a leaf derivative included).  So D_k^2 is the
magnetic Bochner Laplacian of flux Phi plus E, scaled by 2*pi:

* the Bochner Laplacian H lives on an N x N lattice with U(1) link phases:
  each plaquette loop is exp(h^2 F_12), F = 2*pi*k*B the physical
  curvature, in Landau gauge with the boundary column of x-links twisted
  so every plaquette, wrap-around included, carries the same flux (this
  is where integrality of Phi enters);
* in that gauge a Fourier transform in y reduces H exactly to N^2 times a
  direct sum of g = gcd(Phi, N) real cyclic Harper chains of length N^2/g
  (Hofstadter 1976; the magnetic translations of Zak 1964);
* D is odd for the spinor grading, so E is even (`parity_blocks` checks
  it) and each parity block is H (x) I + I (x) E_parity, with spectrum
  {h_i + e_j}.  For each of the sector's exact e_j, Sturm counts on the
  chains in plain floats (Sylvester's law of inertia; Barth, Martin and
  Wilkinson 1967), exact over the whole spectrum, give the number of h_i
  below the kernel threshold minus e_j, and bisection on them the next.

`crosscheck_rows` ties that operator to the first-order D: it squares the
central-difference D_h, applied independently in the site basis from
`link_phases`, on the two lowest levels of H and asserts the O(h^2)
convergence of D_h^2 to H (x) I + I (x) E as N doubles.  The square of a
central difference has doublers at the top of the lattice spectrum, so
D_h^2 is compared only on those smooth low levels, never diagonalised.
Their eigenvectors come from `eigen`: shift-invert subspace iteration on
the chains, with an exact block solve, sized by Sturm counts below a cut.

Floating point lives only here; the symbolic layer stays exact.  numpy is
imported by the functions that use it, so importing this module (as the
command line does for every subcommand) does not load it, and neither does
`gap`: numpy serves `crosscheck` only.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple

from .clifford_fiber import (IncompatiblePair, _real_roots_in_field, check_compatible,
                             parity_indices)
from .exact import I as IUNIT, Scalar
from .frame_geometry import (ConnectionData, FrameModel, ModelError, complex_structure,
                             derive_connection)
from .matrices import Mat
from .operator_calculus import BundleSetup, compose, dirac, forms_setup, monomial

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi


class SolverError(RuntimeError):
    """The eigensolver did not converge, or found no value above the kernel."""


def flat_torus(model: FrameModel) -> tuple[ConnectionData, float]:
    """The connection data of a flat q = 2 torus and m = 2*pi|c|, the least
    mu_j of the physical curvature 2*pi*B (mu = |c| for c = i B_12).  A line
    bundle must be positive for J, the theorem's hypothesis, and its Chern
    number c an integer, or the lattice torus cannot carry it."""
    geom = derive_connection(model)  # validates the model
    if model.brackets:
        (i, j), ((k, _), *_) = next(iter(model.brackets.items()))
        raise ModelError(f"model {model.name!r} is not a flat torus: "
                         f"c^{k + 1}_({i + 1},{j + 1}) != 0")
    if model.q != 2:
        raise ModelError("lattice assembly implemented for transverse dimension q=2; "
                         f"model has q={model.q}")
    J = complex_structure(model)
    if model.line_b is None:
        return geom, 0.0
    try:
        check_compatible(model.line_b, J)
    except IncompatiblePair as exc:
        raise ModelError(f"model {model.name!r}: the line bundle is not positive "
                         f"for J ({exc}), outside the theorem's hypothesis") from exc
    c = IUNIT * model.line_b.entry(0, 1)
    if not c.is_rational() or c._v[4] != 1:
        raise ModelError(f"non-integer Chern number {c}: flux is not 2*pi times an integer")
    return geom, TWO_PI * abs(c._v[0])


def plane_flux(setup: BundleSetup) -> int:
    """Phi, the flux through the transverse plane in units of 2*pi, read off
    the verified commutator [nabla_{f_1}, nabla_{f_2}] = F(f_1, f_2) - nabla_{R(f_1, f_2)}
    in setup.curv: on a flat torus R = 0 and F = -i Phi I (Phi = kc on L^k)."""
    p = setup.model.p
    return (IUNIT * setup.curv[(p, p + 1)].entry(0, 0))._v[0]


# ---------------------------------------------------------------------------
# link phases and the magnetic Bochner Laplacian

def link_phases(N: int, flux_quanta: int) -> tuple[np.ndarray, np.ndarray]:
    """Links U_x, U_y of the hops (U_x psi)(x,y) = U_x[x,y] psi(x+1,y) etc.,
    as (N, N) arrays indexed [x, y], in Landau gauge with a twisted boundary
    column; total flux 2*pi*flux_quanta.

    The phases carry the curvature F_12 = -2*pi*i*flux_quanta that the exact
    layer gives i*B_12 = flux_quanta: every plaquette loop
    U_x U_y U_x^dagger U_y^dagger is exp(h^2 F_12)."""
    import numpy as np

    a = TWO_PI * flux_quanta
    x, y = np.indices((N, N))
    return np.exp(1j * np.where(x == N - 1, a * y / N, 0.0)), np.exp(-1j * (a * x / (N * N)))


class HarperRings(namedtuple("HarperRings", "N flux_quanta diagonals")):
    """The magnetic Bochner Laplacian of `link_phases`' links, summed over
    the two transverse directions as (2 - U - U^dagger)/h^2 with h = 1/N,
    in the y-Fourier basis psi(x,y) = N^{-1/2} sum_n e^{2 pi i n y/N} phi_n(x).

    There it is N^2 times a direct sum of g = gcd(kc, N) real cyclic chains
    T_c (g = N at kc = 0) of length L = N^2/g with hops -1.  Chain c visits
    x = s mod N in mode (c - kc floor(s/N)) mod N, and the twisted boundary
    column carries mode n at x = N-1 to mode n - kc at x = 0;
    diagonals[c][s] = 4 - 2 cos(2 pi (cN - kc s)/N^2)."""
    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        """The site-basis shape of H, N^2 x N^2."""
        return self.N * self.N, self.N * self.N


def magnetic_bochner(N: int, flux_quanta: int) -> HarperRings:
    """The positive magnetic Bochner Laplacian H with total flux
    2*pi*flux_quanta on the N x N lattice, Fourier-reduced."""
    n2 = N * N
    g = math.gcd(flux_quanta, N)
    return HarperRings(N, flux_quanta,
                       [[4.0 - 2.0 * math.cos(TWO_PI * (c * N - flux_quanta * s) / n2)
                         for s in range(n2 // g)] for c in range(g)])


# ---------------------------------------------------------------------------
# the constant fiber term

def _dense(M: Mat) -> np.ndarray:
    import numpy as np

    out = np.zeros((M.n, M.m), dtype=complex)
    for (i, j), v in M.d.items():
        out[i, j] = complex(v)
    return out


def lattice_constant(setup: BundleSetup) -> Mat:
    """E in D^2 = -sum_a nabla_{f_a}^2 + E, read off the normal form of the
    square of `dirac(setup)`, in the exact layer's units (B without 2*pi).

    Raises ModelError where D^2 has any other word, or a transverse
    nabla_a^2 without the coefficient -I: the lattice operator H + 2*pi*E
    has no term for it."""
    D, dim = dirac(setup), setup.dim
    words = compose(((D, D),)).terms
    expected = {(a, a): -Mat.identity(dim) for a in range(setup.model.p, setup.model.n)}
    other = [w for w in {*words, *expected} - {()} if words.get(w) != expected.get(w)]
    if other:
        raise ModelError(f"D^2 on {setup.model.name!r} differs from -sum_a nabla_a^2 + E "
                         f"at {monomial(min(other))}: outside the lattice's regime")
    return words.get((), Mat.zero(dim))


def parity_blocks(setup: BundleSetup) -> tuple[list[Scalar], list[Scalar]]:
    """Eigenvalues of E, the `lattice_constant` of a spinor setup, on the
    (even, odd) spinors, exact in Q(sqrt2) as the roots of each block's
    characteristic polynomial.  E is grading-even, so the two parities of the
    Dirac square decouple exactly."""
    E = lattice_constant(setup)
    even, odd = parity_indices(setup.J.l)
    if not E.submatrix(even, odd).is_zero():
        raise ModelError("curvature endomorphism is not grading-even")
    return tuple(_real_roots_in_field(E.submatrix(ix, ix).charpoly()) for ix in (even, odd))


class Sector(namedtuple("Sector", "k flux even odd")):
    """The Landau problem of the lattice Dirac square on L^k: the integer flux
    of the transverse plane (`plane_flux`) and the exact eigenvalues of the
    fiber term E on the even and odd spinors (`parity_blocks`)."""
    __slots__ = ()


def sector(setup: BundleSetup) -> Sector:
    """The sector of a spinor setup on a flat torus."""
    return Sector(setup.k, plane_flux(setup), *parity_blocks(setup))


# ---------------------------------------------------------------------------
# eigensolver

# Shift-invert subspace iteration on each chain: the residual bound
# |Hv - theta v| <= RESIDUAL_TOL max(1, theta) every wanted pair must meet,
# and the iteration cap.
RESIDUAL_TOL = 1e-9
MAX_ITERATIONS = 200


def _chain_solver(shifted: np.ndarray, N: int):
    """X -> (T_c - sigma)^{-1} X on every chain T_c at once, exactly.

    `shifted` holds the diagonal of each T_c - sigma.  Each chain is cut into
    B = L/N open blocks with inverses G_j; the hops between blocks couple
    only their end values a_j (first) and z_j (last), and
    x_j = G_j y_j + G_j[:, 0] z_{j-1} + G_j[:, N-1] a_{j+1}
    closes into one 2B x 2B system for them."""
    import numpy as np

    g, L = shifted.shape
    B = L // N
    i, j = np.arange(N), np.arange(B)
    A = np.zeros((g, B, N, N))
    A[..., i, i] = shifted.reshape(g, B, N)
    A[..., i[1:], i[:-1]] = A[..., i[:-1], i[1:]] = -1.0
    G = np.linalg.inv(A)
    prev, nxt = B + (j - 1) % B, (j + 1) % B
    C = np.zeros((g, 2 * B, 2 * B))
    C[:, j, prev], C[:, j, nxt] = G[:, :, 0, 0], G[:, :, 0, -1]
    C[:, B + j, prev], C[:, B + j, nxt] = G[:, :, -1, 0], G[:, :, -1, -1]
    ends_inv = np.linalg.inv(np.eye(2 * B) - C)

    def solve(Y: np.ndarray) -> np.ndarray:
        X = G @ Y.reshape(g, B, N, -1)
        ends = ends_inv @ np.concatenate([X[:, :, 0], X[:, :, -1]], axis=1)
        z_prev = np.roll(ends[:, B:], 1, axis=1)[:, :, None]
        a_next = np.roll(ends[:, :B], -1, axis=1)[:, :, None]
        X += G[..., :1] * z_prev + G[..., -1:] * a_next
        return X.reshape(Y.shape)

    return solve


def eigen(H: HarperRings, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of H below `cut`: eigenvalues ascending, orthonormal
    site-basis eigenvectors as columns.

    Chain c has m_c eigenvalues below the cut (a Sturm count), the m_c
    nearest the shift cut/2 since H >= 0.  Subspace iteration with
    (T_c - cut/2)^{-1} on max m_c vectors from a fixed Weyl-sequence start,
    frac((s + 1) sqrt(j + 2.5)) - 1/2 at site s of vector j, and a
    Rayleigh-Ritz step per iteration stops once each chain's m_c lowest Ritz
    pairs meet RESIDUAL_TOL and lie below the cut, which certifies them as
    its eigenpairs there; the inverse y-Fourier transform maps them to sites."""
    import numpy as np

    N, d = H.N, np.array(H.diagonals)
    g, L = d.shape
    n2, t = N * N, cut / (N * N)
    m = np.array([_ring_count(dc, t, 2) for dc in H.diagonals])
    p = m.max()
    wanted = np.arange(p) < m[:, None]
    solve = _chain_solver(d - t / 2, N)
    weyl = (np.arange(1, L + 1)[:, None] * np.sqrt(np.arange(p) + 2.5)) % 1.0 - 0.5
    Q = np.broadcast_to(weyl, (g, L, p))
    for _ in range(MAX_ITERATIONS):
        Q = np.linalg.qr(solve(Q))[0]
        TQ = d[..., None] * Q - np.roll(Q, 1, axis=1) - np.roll(Q, -1, axis=1)
        theta, W = np.linalg.eigh(Q.transpose(0, 2, 1) @ TQ)
        X = Q @ W
        residual = np.linalg.norm(TQ @ W - X * theta[:, None], axis=1)
        if np.all(~wanted | ((theta < t)
                             & (n2 * residual <= RESIDUAL_TOL * np.maximum(1.0, n2 * theta)))):
            break
    else:
        raise SolverError(f"shift-invert subspace iteration did not converge in "
                          f"{MAX_ITERATIONS} iterations")
    chain, col = np.nonzero(wanted)
    order = np.argsort(theta[chain, col], kind="stable")
    chain, col, count = chain[order], col[order], len(order)
    phi = np.zeros((count, N, N), dtype=complex)  # [pair, y mode, x]
    modes = (np.arange(g)[:, None] - H.flux_quanta * (np.arange(L) // N)) % N
    phi[np.arange(count)[:, None], modes[chain], np.arange(L) % N] = X[chain, :, col]
    psi = np.fft.ifft(phi, axis=1) * math.sqrt(N)  # [pair, y, x]
    return n2 * theta[chain, col], psi.transpose(2, 1, 0).reshape(n2, count)


# ---------------------------------------------------------------------------
# Sturm counts

# A cut site's fill below FILL_FLOOR is dropped: that site no longer sees the
# far end of the chain.  ZERO_PIVOT stands in for an exact zero pivot, whose
# count is the limit from above.  Bisection stops once its bracket is
# narrower than BISECTION_RTOL times max(1, its upper end).
FILL_FLOOR = 1e-150
ZERO_PIVOT = 1e-150
BISECTION_RTOL = 1e-14


def _ring_count(d: list[float], x: float, cut: int) -> int:
    """The number of eigenvalues below x of the ring diag(d) - hops, hops -1.

    By Sylvester's law of inertia it is the number of negative pivots of
    an LDL^T sweep (Barth, Martin and Wilkinson 1967).  The ring is cut at
    sites 0..cut-1.  By Haynsworth's inertia additivity the count is that of
    the open chain M on the other sites plus the negative eigenvalues of the
    Schur complement S on the cut sites.  S reads G = (M - x)^{-1} only at
    the first (f) and last (l) sites of M:
    * the forward sweep over M counts its negative pivots and gives
      G_ll = 1/(last pivot) and G_fl = 1/det(M - x), the product of the
      inverse pivots.  That product is carried as fill only until it falls
      below FILL_FLOOR, and G_fl is then 0.  On the long chains of a flux
      it falls there near the bottom of the spectrum;
    * a backward sweep over the sites the fill reached gives G_ff.

    Two cut sites (S is 2 x 2) keep the eigenvalues of the ring out of M,
    since an eigenvector that vanishes at two neighbouring sites vanishes.
    With one, a constant ring's double levels are also levels of M, and S
    cancels to sqrt(eps) there.  Where x is an eigenvalue of the two-cut M,
    one site is cut instead."""
    n, r, y, reach = 0, 0.0, 1.0, cut
    sites = iter(d[cut:])
    for di in sites:
        r = 1.0 / ((di - x - r) or ZERO_PIVOT)
        if r < 0.0:
            n += 1
        y *= r
        reach += 1
        if -FILL_FLOOR < y < FILL_FLOOR:
            y = 0.0
            break
    for di in sites:
        r = 1.0 / ((di - x - r) or ZERO_PIVOT)
        if r < 0.0:
            n += 1
    g_ff = 0.0
    for di in reversed(d[cut:reach]):
        g_ff = 1.0 / ((di - x - g_ff) or ZERO_PIVOT)
    if cut == 1:
        return n + (d[0] - x - g_ff - r - 2.0 * y < 0.0)
    if 1.0 / ZERO_PIVOT in (r, g_ff):
        return _ring_count(d, x, 1)
    a, b, c = d[0] - x - r, -1.0 - y, d[1] - x - g_ff
    det = a * c - b * b
    if det < 0.0:
        return n + 1
    if det > 0.0:
        return n + 2 * (a < 0.0)
    return n + (a + c < 0.0)


def eigenvalues_below(H: HarperRings, x: float) -> int:
    """The number of eigenvalues of H below x: Sturm counts on its rings.

    With g rings and h = gcd(kc/g, g), ring c is a cyclic shift of ring
    c mod h (a magnetic translation; Zak 1964), so the first h rings are
    counted, each g/h times."""
    t = x / (H.N * H.N)
    g = len(H.diagonals)
    h = math.gcd(H.flux_quanta // g, g)
    return g // h * sum(_ring_count(d, t, 2) for d in H.diagonals[:h])


def least_value_above(H: HarperRings, thr: float, below: dict[float, int]) -> float:
    """The least e + h at or above thr, over the shifts e in `below` and the
    eigenvalues h of H, given that below[e] of them lie below thr - e; inf
    when every below[e] is N^2.

    One bisection on v serves every e.  Its bracket grows from thr by a step
    doubled from max(|thr|, 1) until some e counts more than below[e]
    eigenvalues below v - e, and each midpoint keeps only the e whose count
    rose there: no other can give the least value."""
    live = [e for e, n in below.items() if n < H.N * H.N]
    if not live:
        return math.inf

    def risen(v, shifts):
        return [e for e in shifts if eigenvalues_below(H, v - e) > below[e]]

    lo, step = thr, max(abs(thr), 1.0)
    while not (rose := risen(thr + step, live)):
        lo, step = thr + step, 2.0 * step
    hi, live = thr + step, rose
    while hi - lo > BISECTION_RTOL * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if rose := risen(mid, live):
            hi, live = mid, rose
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# spectrum reports

class SpectrumReport(namedtuple("SpectrumReport", "k N gap kernel_dim_even kernel_dim_odd "
                                                  "fitted_C m runtime_ms")):
    __slots__ = ()

    def row(self) -> dict:
        return {
            "k": self.k, "N": self.N, "gap": self.gap, "2km": 2 * self.k * self.m,
            "fitted_C": self.fitted_C, "kernel_odd": self.kernel_dim_odd,
            "kernel_even": self.kernel_dim_even, "runtime_ms": self.runtime_ms,
        }


def spectrum_report(sector: Sector, m: float, N: int) -> SpectrumReport:
    """Eigenvalue report for one sector on the N x N lattice: kernel clusters
    per parity, the gap above them, and the fitted defect C = max(0, 2km - gap).

    A value h + e, with h an eigenvalue of H = `magnetic_bochner(N, flux)`
    and e 2*pi times an eigenvalue of the parity's block of E, lies below the
    threshold when h < thr - e.  So each kernel dimension is a sum of Sturm
    counts of H, and the gap is the least value at or above thr, bisected.
    The counts are exact over the whole spectrum of H, so no eigenvalue can
    be missed.  Raises SolverError where no value lies above thr, or where
    the gap lies within 4 thr: the kernel cluster is then ambiguous."""
    t0 = time.perf_counter()
    k = sector.k
    H = magnetic_bochner(N, sector.flux)
    e_even, e_odd = ([TWO_PI * float(e) for e in es] for es in (sector.even, sector.odd))
    thr = (2 * k * m) / 10.0 if k >= 1 and m > 0 else 1e-6
    below = {e: eigenvalues_below(H, thr - e) for e in {*e_even, *e_odd}}
    gap = least_value_above(H, thr, below)
    if math.isinf(gap):
        raise SolverError(f"no sector value at k={k}, N={N} lies above the kernel threshold")
    if k >= 1 and m > 0 and gap < 4 * thr:
        raise SolverError(f"ambiguous kernel cluster at k={k}, N={N}: gap {gap:.6g} "
                          "lies within 4x the kernel threshold 2km/10")
    return SpectrumReport(k=k, N=N, gap=gap, kernel_dim_even=sum(below[e] for e in e_even),
                          kernel_dim_odd=sum(below[e] for e in e_odd),
                          fitted_C=max(0.0, 2 * k * m - gap), m=m,
                          runtime_ms=(time.perf_counter() - t0) * 1000.0)


def gap_scan(sectors, m: float, N: int) -> list[SpectrumReport]:
    return [spectrum_report(s, m, N) for s in sectors]


# ---------------------------------------------------------------------------
# the first-order D on the lattice, squared

def lattice_dirac(cliffords, N: int, kc: int, V: np.ndarray) -> np.ndarray:
    """D_h V for D_h = sum_a (U_a - U_a^dagger)/(2h) (x) c(f_a), the central
    differences of D = sum_a c(f_a) nabla_a with h = 1/N, on V shaped
    (N, N, F, m): sites [x, y], fiber, columns.  The generators are arrays."""
    import numpy as np

    links = [U[..., None, None] for U in link_phases(N, kc)]
    diffs = [U * np.roll(V, -1, a) - np.roll(U.conj() * V, 1, a) for a, U in enumerate(links)]
    return np.einsum("afg,axygm->xyfm", np.array(cliffords), np.array(diffs)) * (N / 2)


def two_level_cut(kc: int) -> float:
    """A cut between the second and third Landau levels of H, 3 and 5 times
    2*pi|kc|; at kc = 0 between (2 pi)^2 and 2 (2 pi)^2."""
    return 8.0 * math.pi * abs(kc) if kc else 6.0 * math.pi ** 2


def square_residual(cliffords, E: np.ndarray, N: int, kc: int) -> float:
    """r = |(D_h^2 - R_h) V|_F / max(|R_h V|_F, |V|_F), R_h = H (x) I + I (x) E.

    V is an orthonormal basis of the two lowest levels of H, below
    `two_level_cut` (2|kc| eigenvectors, or the 5 of the constant and the
    first Fourier modes at kc = 0), tensored with the fiber, so H V = V theta;
    whole levels make r independent of the basis the eigensolver returns."""
    import numpy as np

    theta, vecs = eigen(magnetic_bochner(N, kc), two_level_cut(kc))
    vecs, eye = vecs.reshape(N, N, 1, -1, 1), np.eye(len(E))[:, None, :]
    V = (vecs * eye).reshape(N, N, len(E), -1)
    RV = (vecs * theta[:, None] * eye + vecs * E[:, None, :]).reshape(N, N, len(E), -1)
    DDV = lattice_dirac(cliffords, N, kc, lattice_dirac(cliffords, N, kc, V))
    return float(np.linalg.norm(DDV - RV) / max(np.linalg.norm(RV), np.linalg.norm(V)))


def crosscheck_rows(setups, N: int) -> list[dict]:
    """Convergence of D_h^2 to the operator `gap` diagonalises, at N and 2N:
    on the spinor fiber of each setup (identities a, b and c coincide on a
    flat torus), and on the untwisted forms (identities e and g), with the
    generators, `plane_flux` and `lattice_constant` of each bundle setup.
    O(h^2) gives ratio = r(N)/r(2N) near 4."""
    model, geom = setups[0].model, setups[0].geom
    cases = [*(("spinor", "abc", s) for s in setups), ("forms", "eg", forms_setup(model, geom))]
    rows = []
    for fiber, keys, setup in cases:
        gens = [_dense(C) for C in setup.cliff]
        E = TWO_PI * _dense(lattice_constant(setup))
        kc = plane_flux(setup)
        r_N, r_2N = (square_residual(gens, E, n, kc) for n in (N, 2 * N))
        rows.append({"fiber": fiber, "identities": keys, "k": setup.k, "kc": kc,
                     "r_N": r_N, "r_2N": r_2N, "ratio": r_N / r_2N})
    return rows
