"""Homogeneous foliated frame models and their transverse geometry.

A model is a global orthonormal frame u_1..u_n with constant structure
constants [u_i, u_j] = sum_k c^k_ij u_k; the first p directions span the
leaves, the remaining q = n - p are horizontal.  Such a model is its bracket
table (`FrameModel.brackets`), antisymmetric by construction, and checks
and derived data read only the table's terms.  Admissibility is Jacobi (a
Lie algebra), involutivity of the leaf distribution, and the bundle-like condition

    c^b_{ia} + c^a_{ib} = 0   (i leafwise, a b horizontal),

which says leafwise flows preserve the horizontal metric.  A line bundle's
curvature B lives on horizontal pairs, so it vanishes along the leaves, and
must be closed: dB(x, y, z) = -sum_cyc B([x, y], z) = 0.  All derived
data -- the transverse connection through the Koszul formula, mean
curvature, integrability tensor, curvature, divergences, spin connection
coefficients -- are exact field elements.

`derive_connection` validates a model and derives, once, what the operator
calculus computes from its table, into a ConnectionData: the
transverse connection matrices A_u (`transverse`), the mean curvature `tau`
and each nabla_{f_a} tau (`nabla_tau`), |tau|^2 (`tau_norm2`), d_H^* tau =
-sum_a (nabla_{f_a} tau)^a + |tau|^2 (`codiff_tau`), whether tau is basic
(`tau_basic`: it has no leaf part, so whether dtau(u_i, u_j) =
-tau([u_i, u_j]) vanishes), the leaf two-forms R^i of R(f_a, f_b) =
-P_F [f_a, f_b] = sum_i R^i_ab e_i as q x q matrices (`integrability`), the
transverse `curvature` R(u, v) on every ordered pair, its scalar `K`, and
div u = sum_k c^k_{ku} = -tr(ad u) for each frame vector (`div`).

Model files are JSON objects with the keys

    "name"         optional string, default "unnamed"
    "p", "q"       leaf dimension and codimension
    "brackets"     list of [i, j, k, coeff]: [u_i, u_j] += coeff u_k
    "line_bundle"  optional, {"B": q x q rows}: curvature of the line bundle
    "J"            q x q rows of the transverse complex structure; optional
                   here, but every command refuses a model without it

p, q and the 1-based bracket indices (leaves first) are JSON integers, with
q at most MAX_Q = 16 and p + q at most MAX_DIM = 64;
every scalar is a string, like "-1/2" or "1/2+1/4√2", and a malformed
value is a ModelError.  Line-bundle entries are imaginary strings ("-1i"),
stored in units of 2*pi, so the integer entries of i*B are Chern numbers of
the transverse planes.  Any other key is ignored.
"""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

from .clifford_fiber import ComplexStructure, spin_lift, validate_two_form
from .exact import ZERO, Scalar, format_scalar, parse_imaginary, parse_real, rational
from .matrices import Mat, accumulate, apply_to_vector, combination, commutator


class ModelError(ValueError):
    """Invalid frame model (failed admissibility or malformed input)."""


class FrameModel(namedtuple("FrameModel", "name p q brackets line_b jmat", defaults=(None, None))):
    """brackets[(i, j)] = ((k, c^k_ij), ...), 0-based, for each ordered pair
    with a nonzero constant, in ascending (i, j) and k; (j, i) holds the
    negated terms.  line_b, the q x q imaginary two-form in units of 2*pi,
    and jmat, the q x q complex structure matrix, may be None."""
    __slots__ = ()

    @property
    def n(self) -> int:
        return self.p + self.q


# The largest q and n = p + q of a model; cli's docstring derives them.
MAX_Q = 16
MAX_DIM = 64


def make_model(name: str, p: int, q: int,
               brackets: list[tuple[int, int, int, Scalar]],
               line_b: Mat | None = None, jmat: Mat | None = None) -> FrameModel:
    """Build a model from sparse 1-based bracket data [u_i, u_j] += coeff u_k (a
    repeated bracket adds, [u_j, u_i] subtracts, [u_i, u_i] cancels, a zero sum
    drops); a q above MAX_Q or an n above MAX_DIM is refused before anything is built."""
    n = p + q
    if q > MAX_Q or n > MAX_DIM:
        raise ModelError(f"model {name!r} is too large: q={q} (at most {MAX_Q}) "
                         f"and n=p+q={n} (at most {MAX_DIM})")
    sums: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j, k, coeff) in brackets:
        for ix in (i, j, k):
            if not 1 <= ix <= n:
                raise ModelError(f"bracket index {ix} out of range 1..{n}")
        v = parse_real(coeff) if isinstance(coeff, str) else Scalar.of(coeff)
        if not v.is_real():
            raise ModelError("structure constants must be real")
        for key, w in (((i - 1, j - 1), v), ((j - 1, i - 1), -v)):
            accumulate(sums.setdefault(key, {}), k - 1, w)
    table = {key: tuple(sorted(terms.items())) for key, terms in sorted(sums.items()) if terms}
    return FrameModel(name=name, p=p, q=q, brackets=table, line_b=line_b, jmat=jmat)


# ---------------------------------------------------------------------------
# validation

class ValidationReport(namedtuple("ValidationReport", "ok failures warnings")):
    __slots__ = ()

    def first_failure(self) -> str | None:
        return self.failures[0] if self.failures else None


def _cyclic_sums(brackets: dict, entries) -> dict[tuple[int, int, int, int], Scalar]:
    """For each triple i < j < k and each l, the sum over its cyclic orders
    (x, y, z) of sum_m c^m_xy T[m][z][l], for a tensor T given by its
    nonzero entries (m, z, l, T[m][z][l]).  Summed over the terms of the
    bracket table only: a product c^m_ab T[m][x][l] belongs to the triple
    sorted(a, b, x) when (a, b, x) is one of its three cyclic orders.  With
    T = c these are the components of the Jacobiator; with T[m][z][0] =
    B(u_m, u_z) they are -dB.  Keys with no nonzero product are absent."""
    by_first: dict[int, list] = {}
    for m, z, l, w in entries:
        by_first.setdefault(m, []).append((z, l, w))
    out: dict[tuple[int, int, int, int], Scalar] = {}
    for (a, b), terms in brackets.items():
        for m, v in terms:
            for x, l, w in by_first.get(m, ()):
                if len({a, b, x}) == 3 and not ((a > b) + (b > x) + (a > x)) % 2:
                    key = (*sorted((a, b, x)), l)
                    out[key] = out[key] + v * w if key in out else v * w
    return out


def validate(model: FrameModel) -> ValidationReport:
    failures: list[str] = []
    warnings: list[str] = []
    n, p = model.n, model.p
    table = model.brackets

    if model.q % 2:
        failures.append(f"codimension q={model.q} must be even")

    entries = ((m, z, l, w) for (m, z), terms in table.items() for l, w in terms)
    for (i, j, k, l), s in sorted(_cyclic_sums(table, entries).items()):
        if not s.is_zero():
            failures.append(
                f"Jacobi identity fails on (u{i + 1},u{j + 1},u{k + 1}) "
                f"component u{l + 1}")

    leaf_rows: dict[int, dict[tuple[int, int], Scalar]] = {}  # i -> {(a, b): c^b_ia}
    for (i, j), terms in table.items():
        if i < p and j < p:
            failures.extend(f"involutivity fails: c^{a + 1}_({i + 1},{j + 1}) != 0"
                            for a, _ in terms if a >= p)
        elif i < p:
            leaf_rows.setdefault(i, {}).update(((j, b), w) for b, w in terms if b >= p)

    for i, row in leaf_rows.items():
        for a, b in sorted(row.keys() | {(b, a) for a, b in row}):
            s = row.get((a, b), ZERO) + row.get((b, a), ZERO)
            if not s.is_zero():
                failures.append(
                    f"bundle-like condition fails: c^{b + 1}_({i + 1},{a + 1}) "
                    f"+ c^{a + 1}_({i + 1},{b + 1}) = {format_scalar(s)}")

    for i in range(n):
        tr = ad_trace(model, i)
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
                b_entries = ((p + a, p + b, 0, s) for (a, b), s in model.line_b.d.items())
                for (i, j, k, _), s in sorted(_cyclic_sums(table, b_entries).items()):
                    if not s.is_zero():
                        failures.append(f"line bundle curvature is not closed: dB(u{i + 1},"
                                        f"u{j + 1},u{k + 1}) = {format_scalar(-s)}")

    return ValidationReport(ok=not failures, failures=tuple(failures),
                            warnings=tuple(warnings))


def require_valid(model: FrameModel) -> ValidationReport:
    """The validation report of an admissible model, whose warnings the
    caller may show; raises ModelError with the first failure otherwise."""
    rep = validate(model)
    if not rep.ok:
        raise ModelError(f"invalid model {model.name!r}: {rep.first_failure()}")
    return rep


# ---------------------------------------------------------------------------
# derived geometry

def transverse_connection(model: FrameModel) -> tuple[Mat, ...]:
    """Connection matrices A_u on the horizontal bundle, one per frame
    direction: (A_u)_{gb} = <nabla_u f_b, f_g>.  Leafwise directions
    differentiate by the horizontal part of the bracket, c^g_{ub}; horizontal
    directions by the projected Levi-Civita derivative, which the Koszul
    formula 2<nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y> gives as
    (c^g_{ub} - c^u_{bg} + c^b_{gu}) / 2, on these q^2 entries only."""
    p, q, half = model.p, model.q, rational(1, 2)
    lookup = {key: dict(terms) for key, terms in model.brackets.items()}

    def c(x: int, y: int, z: int) -> Scalar:
        return lookup.get((x, y), {}).get(z, ZERO)

    def entry(u: int, b: int, g: int) -> Scalar:
        return c(u, b, g) if u < p else (c(u, b, g) - c(b, g, u) + c(g, u, b)) * half

    return tuple(Mat(q, q, {(g, b): entry(u, p + b, p + g) for b in range(q) for g in range(q)})
                 for u in range(model.n))


def mean_curvature(model: FrameModel) -> tuple[Scalar, ...]:
    """tau = sum_i P_H(nabla_{e_i} e_i), components in the horizontal frame;
    by Koszul, <nabla_{e_i} e_i, f_a> = c^i_{f_a e_i}."""
    p, table = model.p, model.brackets
    return tuple(sum((w for i in range(p) for m, w in table.get((p + a, i), ()) if m == i), ZERO)
                 for a in range(model.q))


def mean_curvature_derivative(model: FrameModel, transverse,
                              tau) -> tuple[tuple[Scalar, ...], ...]:
    """Components of nabla_{f_a} tau = sum_{g,b} (A_{f_a})_{gb} tau_b f_g, one
    horizontal vector per a (tau is constant in the frame)."""
    p, q = model.p, model.q
    tau_vec = {b: t for b, t in enumerate(tau) if t}
    moved = (apply_to_vector(transverse[p + a], tau_vec) for a in range(q))
    return tuple(tuple(v.get(g, ZERO) for g in range(q)) for v in moved)


def integrability_tensor(model: FrameModel) -> tuple[Mat, ...]:
    """The leaf two-forms R^i, one q x q antisymmetric matrix per leaf
    direction e_i, of R(f_a, f_b) = -P_F [f_a, f_b] = sum_i R^i_ab e_i."""
    p, q = model.p, model.q
    rows: list[dict[tuple[int, int], Scalar]] = [{} for _ in range(p)]
    for (x, y), terms in model.brackets.items():
        if x >= p and y >= p:
            for i, w in terms:
                if i < p:
                    rows[i][(x - p, y - p)] = -w
    return tuple(Mat(q, q, row) for row in rows)


def curvature(model: FrameModel, A: tuple[Mat, ...]) -> dict[tuple[int, int], Mat]:
    """R(u, v) = [A_u, A_v] - sum_m c^m_{uv} A_m for connection matrices A_u,
    one per frame direction, on any fiber, for every ordered pair (u, v) of
    frame directions: each pair u < v is computed once, R(v, u) is its
    negation and every R(u, u) is one shared zero.  With the transverse
    connection this is the curvature of the horizontal bundle."""
    n = model.n
    zero = Mat.zero(A[0].n if A else 0)
    out = {(u, u): zero for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            R = commutator(A[u], A[v])
            terms = model.brackets.get((u, v))
            if terms:
                R = R - combination([w for _, w in terms], [A[m] for m, _ in terms])
            out[(u, v)], out[(v, u)] = R, -R
    return out


def scalar_curvature(model: FrameModel, curv: dict[tuple[int, int], Mat]) -> Scalar:
    """K = sum_{a,b} g(R(f_a, f_b) f_a, f_b) -- note the index order: this is
    the negative of the usual scalar-curvature contraction, and comes out +2
    on the transverse hyperbolic plane.  The operator identities consume -K/4
    (verified exactly by the curvature-contraction identity)."""
    p, q = model.p, model.q
    return sum((curv[(p + a, p + b)].entry(b, a) for a in range(q) for b in range(q)
                if a != b), ZERO)


def ad_trace(model: FrameModel, i: int) -> Scalar:
    """tr(ad u_i) = sum_k c^k_{ik} (0-based i), the trace of v -> [u_i, v]."""
    table = model.brackets
    return sum((w for k in range(model.n) for m, w in table.get((i, k), ()) if m == k), ZERO)


def divergence(model: FrameModel, i: int) -> Scalar:
    """Riemannian divergence div u_i = sum_k <nabla_{u_k} u_i, u_k>, which for
    constant structure constants is sum_k c^k_{ki} = -tr(ad u_i)."""
    return -ad_trace(model, i)


class ConnectionData(namedtuple("ConnectionData", "transverse tau nabla_tau tau_norm2 "
                                "codiff_tau tau_basic integrability curvature K div")):
    """All derived geometric data of a validated model, exact; the module
    docstring lists the fields."""
    __slots__ = ()


def derive_connection(model: FrameModel) -> ConnectionData:
    require_valid(model)
    A = transverse_connection(model)
    curv = curvature(model, A)
    tau = mean_curvature(model)
    nabla_tau = mean_curvature_derivative(model, A, tau)
    tau_norm2 = sum((t * t for t in tau), ZERO)
    live_tau = {model.p + a: t for a, t in enumerate(tau) if t}
    return ConnectionData(
        transverse=A,
        tau=tau,
        nabla_tau=nabla_tau,
        tau_norm2=tau_norm2,
        codiff_tau=tau_norm2 - sum((vec[a] for a, vec in enumerate(nabla_tau)), ZERO),
        tau_basic=all(sum((w * live_tau[m] for m, w in terms if m in live_tau), ZERO).is_zero()
                      for (i, j), terms in model.brackets.items() if i < j),
        integrability=integrability_tensor(model),
        curvature=curv,
        K=scalar_curvature(model, curv),
        div=tuple(divergence(model, u) for u in range(model.n)),
    )


def complex_structure(model: FrameModel) -> ComplexStructure:
    """The model's transverse complex structure J with an exact adapted frame.

    The vanishing theorem assumes a transversely almost complex structure,
    so every command refuses a model file without "J" rather than pick
    one."""
    jmat = model.jmat
    if jmat is None:
        raise ModelError(f"model {model.name!r} carries no complex structure: "
                         "give its \"J\" matrix in the model file")
    if (jmat.n, jmat.m) != (model.q, model.q):
        raise ModelError(f"model {model.name!r}: \"J\" is {jmat.n} x {jmat.m}, "
                         f"not q x q with q={model.q}")
    try:
        return ComplexStructure.from_matrix(jmat)
    except ValueError as exc:
        raise ModelError(f"model {model.name!r}: \"J\" is not an orthogonal "
                         f"complex structure: {exc}") from exc


def spin_connection(J: ComplexStructure, cliffords: tuple[Mat, ...],
                    A: tuple[Mat, ...]) -> tuple[Mat, ...]:
    """Connection matrices on the spinor fiber of J, with the Clifford
    generators `cliffords` = spinor_cliffords(J), one per frame direction:
    Gamma_u = (1/4) sum_{b,g} (A_u)_{gb} c(f_b) c(f_g) for the transverse
    connection matrices A_u.

    Requires nabla J = 0 (each A_u commutes with J), otherwise the spinor
    fiber is not parallel; the error names the offending direction."""
    for u, Au in enumerate(A):
        if not commutator(Au, J.jmat).is_zero():
            raise ModelError(
                f"nabla J != 0 along frame direction u{u + 1}; "
                "the spinor fiber is not parallel")
    return tuple(spin_lift(Au, cliffords) for Au in A)


# ---------------------------------------------------------------------------
# JSON model files

def _json_int(value, what: str) -> int:
    """A nonnegative JSON integer; a bool, float or string is malformed."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, not {value!r}")
    return value


def model_from_dict(data: dict) -> FrameModel:
    if not isinstance(data, dict):
        raise ModelError("malformed model file: the top level must be a JSON "
                         f"object, not {type(data).__name__}")
    try:
        name = data.get("name", "unnamed")
        if not isinstance(name, str):
            raise ValueError(f"name must be a string, not {name!r}")
        p, q = _json_int(data["p"], "p"), _json_int(data["q"], "q")
        brackets = [(*(_json_int(ix, "bracket index") for ix in (i, j, k)),
                     parse_real(coeff)) for (i, j, k, coeff) in data.get("brackets", [])]
        for i, j, _, _ in brackets:
            if i == j:
                raise ValueError(f"bracket [u{i}, u{i}] of a frame vector with itself; "
                                 "brackets are antisymmetric, so it is zero")
        line_b = None
        if "line_bundle" in data and data["line_bundle"] is not None:
            rows = data["line_bundle"]["B"]
            line_b = Mat.from_rows([[parse_imaginary(x) for x in row] for row in rows])
        jmat = None
        if "J" in data and data["J"] is not None:
            jmat = Mat.from_rows([[parse_real(x) for x in row] for row in data["J"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model file: {exc}") from exc
    return make_model(name, p, q, brackets, line_b=line_b, jmat=jmat)


def load_model(path: str | Path) -> FrameModel:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(data)


MODELS = Path(__file__).with_name("models")


def bundled_model_names() -> list[str]:
    return sorted(f.name[:-5] for f in MODELS.iterdir() if f.name.endswith(".json"))


def load_bundled(name: str) -> FrameModel:
    try:
        data = json.loads((MODELS / f"{name}.json").read_text(encoding="utf-8"))
    except OSError as exc:
        raise ModelError(f"no model file or bundled model {name!r}; the bundled models "
                         f"are {', '.join(bundled_model_names())}") from exc
    return model_from_dict(data)


def resolve_model(spec: str) -> FrameModel:
    """The model file at the path `spec`, or the bundled model named `spec`
    where no such file exists (a directory is not one) and `spec` is a bare
    name: "sol" names a bundled model, "sol.json" and "dir/sol.json" only
    files."""
    path = Path(spec)
    if path.is_file() or path.suffix or path.name != spec:
        return load_model(path)
    return load_bundled(spec)
