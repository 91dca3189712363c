"""Magnetic lattice spectra of the transverse Dirac square on flat tori.

The torus fixtures have one leaf direction and a two-dimensional transverse
torus carrying a line bundle whose curvature two-form is stored in units of
2*pi, so the integer entries of i*B are Chern numbers.  The Dirac square is
never discretized through the first-order operator (central differences of
first order double the spectrum); its verified second-order normal form --
magnetic Bochner Laplacian plus a constant curvature endomorphism E -- is
used instead:

* the Bochner Laplacian H is assembled on an N x N lattice with U(1) link
  phases: plaquette flux 2*pi*k*c / N^2 per cell in Landau gauge, with the
  boundary column of x-links twisted by -2*pi*k*c*y/N so every plaquette,
  wrap-around included, carries the same flux (this is where integrality
  of k*c enters);
* the Dirac square contains no leaf derivatives, so the leafwise-constant
  sector carries the whole transverse spectrum;
* E is grading-even, and each parity block is the Kronecker sum
  H (x) I + I (x) E_parity, whose spectrum is {h_i + e_j}.  One
  shift-invert Lanczos solve for the lowest h_i per flux value and the
  eigenvalues of the small fiber blocks of E give both sectors.

Floating point lives only here; the symbolic layer stays exact.  numpy and
scipy are imported by the functions that use them, so importing this module
(as the command line does for every subcommand) loads neither.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .clifford_fiber import ComplexStructure, skew_invariants, two_form_action
from .exact import I as IUNIT
from .frame_geometry import FrameModel, ModelError, require_valid
from .matrices import Mat
from .operator_calculus import DiffOp

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

TWO_PI = 2.0 * math.pi

# Eigenvalues requested beyond the k*c of the lowest Landau level, so the
# even kernel count is never capped by the request and the level above it
# is seen in both sectors.
KERNEL_MARGIN = 8


class SolverError(RuntimeError):
    """Eigensolver failed to converge; carries partial residual information."""


def require_flat_torus(model: FrameModel) -> None:
    require_valid(model)
    for i in range(model.n):
        for j in range(model.n):
            for k in range(model.n):
                if not model.c[i][j][k].is_zero():
                    raise ModelError(
                        f"model {model.name!r} is not a flat torus: "
                        f"c^{k + 1}_({i + 1},{j + 1}) != 0")
    if model.q != 2:
        raise ModelError(
            "lattice assembly implemented for transverse dimension q=2; "
            f"model has q={model.q}")


def chern_number(model: FrameModel) -> int:
    """Integer Chern number of the transverse plane: the (1,2) entry of i*B.

    Raises on a non-integer value (the bundle is not realizable on the
    lattice torus)."""
    if model.line_b is None:
        return 0
    k01 = IUNIT * model.line_b.entry(0, 1)
    if not k01.is_rational() or k01.ra.denominator != 1:
        raise ModelError(
            f"non-integer Chern number {k01}: flux is not 2*pi times an integer")
    return int(k01.ra)


def invariants_2pi(model: FrameModel) -> tuple[float, float]:
    """(lambda, m) of the physical curvature 2*pi*B."""
    if model.line_b is None:
        return 0.0, 0.0
    _, lam, m = skew_invariants(model.line_b)
    return TWO_PI * float(lam), TWO_PI * float(m)


@dataclass(frozen=True)
class FlatTorus:
    """A model that passed `require_flat_torus`, with what every flux value
    of a scan shares: the Chern number c and (lambda, m) of 2*pi*B."""
    model: FrameModel
    c: int
    lam: float
    m: float


def flat_torus(model: FrameModel) -> FlatTorus:
    require_flat_torus(model)
    lam, m = invariants_2pi(model)
    return FlatTorus(model, chern_number(model), lam, m)


# ---------------------------------------------------------------------------
# link phases and the magnetic Bochner Laplacian

def hop_matrices(N: int, flux_quanta: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Forward hop operators (U_x psi)(x,y) = e^{i theta} psi(x+1,y) etc. in
    Landau gauge with a twisted boundary column; total flux 2*pi*flux_quanta.
    Site (x, y) has index x*N + y."""
    import numpy as np
    import scipy.sparse as sp

    dim = N * N
    a = TWO_PI * flux_quanta
    site = np.arange(dim)
    x, y = np.divmod(site, N)
    jx = (x + 1) % N * N + y
    jy = x * N + (y + 1) % N
    phase_x = np.where(x == N - 1, -a * y / N, 0.0)
    phase_y = a * x / (N * N)
    Ux = sp.csr_matrix((np.exp(1j * phase_x), (site, jx)), shape=(dim, dim))
    Uy = sp.csr_matrix((np.exp(1j * phase_y), (site, jy)), shape=(dim, dim))
    return Ux, Uy


def magnetic_bochner(N: int, flux_quanta: int) -> sp.csr_matrix:
    """sum over the two transverse directions of (2 - U - U^dagger)/h^2 with
    h = 1/N: the positive magnetic Bochner Laplacian."""
    import scipy.sparse as sp

    Ux, Uy = hop_matrices(N, flux_quanta)
    dim = N * N
    h2 = 1.0 / (N * N)
    eye = sp.identity(dim, format="csr", dtype=complex)
    H = (4.0 * eye - Ux - Ux.getH() - Uy - Uy.getH()) / h2
    return H.tocsr()


# ---------------------------------------------------------------------------
# the constant fiber term

def _constant_endomorphism(model: FrameModel, k: int) -> np.ndarray:
    """Float matrix of the constant fiber term k c(R^L) in physical units.

    On a flat torus every other constant of the verified second-order form
    vanishes (tau = 0, K = 0, integrability = 0)."""
    import numpy as np

    J = ComplexStructure.from_matrix(model.jmat) if model.jmat is not None \
        else ComplexStructure.standard(model.q)
    dim = 1 << J.l
    if model.line_b is None or k == 0:
        return np.zeros((dim, dim), dtype=complex)
    act = two_form_action(model.line_b, J)
    out = np.zeros((dim, dim), dtype=complex)
    for (i, j), v in act.d.items():
        out[i, j] = complex(v)
    return TWO_PI * k * out


def parity_blocks(model: FrameModel, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the constant endomorphism on the (even, odd) spinors.
    It is grading-even, so the two sectors of the Dirac square decouple
    exactly."""
    import numpy as np

    E = _constant_endomorphism(model, k)
    odd = np.array([bin(m).count("1") % 2 == 1 for m in range(E.shape[0])])
    if np.any(E[np.ix_(~odd, odd)]):
        raise ModelError("curvature endomorphism is not grading-even")
    return (np.linalg.eigvalsh(E[np.ix_(~odd, ~odd)]),
            np.linalg.eigvalsh(E[np.ix_(odd, odd)]))


# ---------------------------------------------------------------------------
# eigensolver

def eigen(M: sp.spmatrix, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of the positive semidefinite Hermitian M,
    ascending.

    Shift-invert Lanczos (ARPACK) about sigma = -1: the shift lies below the
    spectrum, so the eigenvalues nearest it are the lowest.  ARPACK needs
    count < dim - 1; smaller problems take a dense eigvalsh."""
    import numpy as np
    import scipy.sparse.linalg as spla

    dim = M.shape[0]
    count = min(count, dim)
    if count >= dim - 1:
        return np.linalg.eigvalsh(M.toarray())[:count]
    # a fixed generic start vector makes the result repeatable; a structured
    # one (all ones, say) could be orthogonal to part of a degenerate level
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    try:
        vals = spla.eigsh(M.tocsc(), k=count, sigma=-1.0, v0=v0,
                          return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(
            f"shift-invert Lanczos did not converge: "
            f"{len(exc.eigenvalues)}/{count} eigenvalues") from exc
    return np.sort(vals)


# ---------------------------------------------------------------------------
# spectrum reports

@dataclass
class SpectrumReport:
    k: int
    N: int
    eigenvalues: np.ndarray
    gap: float
    kernel_dim_even: int
    kernel_dim_odd: int
    fitted_C: float
    lam: float
    m: float
    ambiguous: bool
    runtime_ms: float

    def row(self) -> dict:
        return {
            "k": self.k, "N": self.N, "gap": self.gap, "2km": 2 * self.k * self.m,
            "fitted_C": self.fitted_C, "kernel_odd": self.kernel_dim_odd,
            "kernel_even": self.kernel_dim_even, "runtime_ms": self.runtime_ms,
        }


def spectrum_report(torus: FlatTorus, k: int, N: int,
                    count: int = 40) -> SpectrumReport:
    """Eigenvalue report for one k: kernel clusters per parity sector, the
    gap above them, and the fitted defect C = max(0, 2km - gap).

    At least k*c + KERNEL_MARGIN eigenvalues are taken per sector, so the
    kernel count is not capped by `count`."""
    import numpy as np

    t0 = time.perf_counter()
    lam, m = torus.lam, torus.m
    kc = k * torus.c
    H = magnetic_bochner(N, kc)
    e_even, e_odd = parity_blocks(torus.model, k)
    h = eigen(H, max(count, abs(kc) + KERNEL_MARGIN))
    ev_even, ev_odd = (np.sort(np.add.outer(h, e).ravel())[:len(h)]
                       for e in (e_even, e_odd))
    allvals = np.sort(np.concatenate([ev_even, ev_odd]))
    thr = (2 * k * m) / 10.0 if k >= 1 and m > 0 else 1e-6
    kernel_even = int(np.sum(ev_even < thr))
    kernel_odd = int(np.sum(ev_odd < thr))
    above = allvals[allvals >= thr]
    gap = float(above[0]) if len(above) else math.inf
    ambiguous = bool(gap < 4 * thr) if k >= 1 and m > 0 else False
    fitted = max(0.0, 2 * k * m - gap)
    ms = (time.perf_counter() - t0) * 1000.0
    return SpectrumReport(k=k, N=N, eigenvalues=allvals, gap=gap,
                          kernel_dim_even=kernel_even, kernel_dim_odd=kernel_odd,
                          fitted_C=fitted, lam=lam, m=m, ambiguous=ambiguous,
                          runtime_ms=ms)


def gap_scan(torus: FlatTorus, k_values, N: int, count: int = 40) -> list[SpectrumReport]:
    return [spectrum_report(torus, k, N, count) for k in k_values]


@dataclass
class LowerBoundReport:
    k: int
    N: int
    min_eigenvalue: float
    k_lambda: float
    defect: float  # max(0, k*lambda - min eig); Lemma-style constant

    def row(self) -> dict:
        return {"k": self.k, "N": self.N, "min_eig": self.min_eigenvalue,
                "k_lambda": self.k_lambda, "C_k": self.defect}


def lemma1_estimate(model: FrameModel, k_values, N: int) -> list[LowerBoundReport]:
    """Lower-bound scan for the plain line-bundle Bochner Laplacian: reports
    C_k = max(0, k*lambda - min eig), which the estimate asserts is bounded
    uniformly in k (on the torus the integrability term is absent)."""
    require_flat_torus(model)
    c = chern_number(model)
    lam, _ = invariants_2pi(model)
    out = []
    for k in k_values:
        low = float(eigen(magnetic_bochner(N, k * c), 1)[0])
        out.append(LowerBoundReport(k=k, N=N, min_eigenvalue=low, k_lambda=k * lam,
                                    defect=max(0.0, k * lam - low)))
    return out


# ---------------------------------------------------------------------------
# cross-validation of symbolic operators on the lattice

def _split_coefficient(M1: Mat | None, M0: Mat | None, dim: int) -> np.ndarray:
    """Physical float coefficient from the exact pair (with-B, zero-B): the
    line-bundle curvature enters the symbolic layer in units of 2*pi, and
    operator coefficients are affine in it, so phys = M0 + 2*pi (M1 - M0)."""
    import numpy as np

    out0 = np.zeros((dim, dim), dtype=complex)
    out1 = np.zeros((dim, dim), dtype=complex)
    if M0 is not None:
        for (i, j), v in M0.d.items():
            out0[i, j] = complex(v)
    if M1 is not None:
        for (i, j), v in M1.d.items():
            out1[i, j] = complex(v)
    return out0 + TWO_PI * (out1 - out0)


@dataclass
class LatticeOperator:
    model_name: str
    k: int
    N: int
    fiber_dim: int
    matrix: sp.csr_matrix
    label: str = ""


def discretize_diffop(op_pair: tuple[DiffOp, DiffOp], N: int) -> LatticeOperator:
    """Term-by-term stencil discretization of a normal-ordered operator on
    the leafwise-reduced lattice sections.

    `op_pair` is (operator, operator rebuilt with the line bundle zeroed);
    the pair disentangles which part of each coefficient scales with the
    2*pi of the physical curvature.  Leaf derivatives act as zero on the
    reduced sector.  Monomials map to central/second differences with link
    phases; equal exact operators yield identical matrices."""
    import numpy as np
    import scipy.sparse as sp

    op1, op0 = op_pair
    setup = op1.setup
    model = setup.model
    require_flat_torus(model)
    c = chern_number(model)
    k = setup.k
    Ux, Uy = hop_matrices(N, k * c)
    dim_site = N * N
    h = 1.0 / N
    eye = sp.identity(dim_site, dtype=complex, format="csr")
    hops = (Ux, Uy)

    def site_op(word) -> sp.csr_matrix | None:
        p = model.p
        horiz = []
        for u in word:
            if u < p:
                return None  # leaf derivative: zero on the reduced sector
            horiz.append(u - p)
        if not horiz:
            return eye
        if len(horiz) == 1:
            U = hops[horiz[0]]
            return (U - U.getH()) / (2 * h)
        if len(horiz) == 2:
            a, b = horiz
            if a == b:
                U = hops[a]
                return (U + U.getH() - 2 * eye) / (h * h)
            Da = (hops[a] - hops[a].getH()) / (2 * h)
            Db = (hops[b] - hops[b].getH()) / (2 * h)
            return (Da @ Db).tocsr()
        raise ModelError("stencils implemented for degree <= 2")

    fdim = setup.fiber.dim
    acc = sp.csr_matrix((dim_site * fdim, dim_site * fdim), dtype=complex)
    words = set(op1.terms) | set(op0.terms)
    for w in sorted(words):
        S = site_op(w)
        if S is None:
            continue
        coeff = _split_coefficient(op1.terms.get(w), op0.terms.get(w), fdim)
        if np.max(np.abs(coeff)) == 0.0:
            continue
        acc = acc + sp.kron(S, sp.csr_matrix(coeff), format="csr")
    return LatticeOperator(model_name=model.name, k=k, N=N, fiber_dim=fdim,
                           matrix=acc.tocsr(), label="diffop")


def cross_validate(lhs_pair: tuple[DiffOp, DiffOp],
                   rhs_pair: tuple[DiffOp, DiffOp],
                   N: int, trials: int, rng: np.random.Generator) -> float:
    """Apply both discretized operators to random sections; max relative
    deviation.  Exactly equal symbolic operators give identical matrices, so
    the residual isolates assembly and normal-form faults."""
    import numpy as np

    ML = discretize_diffop(lhs_pair, N).matrix
    MR = discretize_diffop(rhs_pair, N).matrix
    worst = 0.0
    dim = ML.shape[0]
    for _ in range(max(1, trials)):
        s = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        ls = ML @ s
        rs = MR @ s
        denom = max(np.linalg.norm(ls), np.linalg.norm(rs), 1e-30)
        worst = max(worst, float(np.linalg.norm(ls - rs) / denom))
    return worst

