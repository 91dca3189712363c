"""Sparse exact matrices over the scalar field, plus eigen-free certificates.

The matrices stay small (fiber dimensions up to 2^q and frame dimensions
up to p+q), so all products are done entry-exactly.  Spectral facts about
Hermitian matrices are certified without extracting eigenvalues:

* characteristic polynomials via the trace recursion (Faddeev-LeVerrier),
* the inertia (eigenvalue sign counts) by Descartes' rule of signs over
  the charpoly, exact on a real spectrum: PSD is no negative count, and
  singular is a nonzero zero count (there is no determinant),
* positive definiteness by Sylvester's criterion (leading principal minors).
"""

from __future__ import annotations

from .exact import ONE, ZERO, Scalar


class Mat:
    """Immutable n x m matrix with a dict of nonzero Scalar entries."""

    __slots__ = ("n", "m", "d")

    def __init__(self, n: int, m: int, entries: dict[tuple[int, int], Scalar] | None = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        d = {}
        if entries:
            for key, v in entries.items():
                v = Scalar.of(v)
                if not v.is_zero():
                    d[key] = v
        object.__setattr__(self, "d", d)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Mat":
        return Mat(n, n)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, {(i, i): ONE for i in range(n)})

    @staticmethod
    def from_rows(rows) -> "Mat":
        n = len(rows)
        m = len(rows[0]) if n else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = Scalar.of(v)
        return Mat(n, m, entries)

    # -- access --------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.d.get((i, j), ZERO)

    def rows(self) -> list[list[Scalar]]:
        out = [[ZERO] * self.m for _ in range(self.n)]
        for (i, j), v in self.d.items():
            out[i][j] = v
        return out

    def is_zero(self) -> bool:
        return not self.d

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self.m == other.m and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self.d.items())))

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._shape_check(other)
        d = dict(self.d)
        for key, v in other.d.items():
            s = d.get(key)
            w = v if s is None else s + v
            if w.is_zero():
                d.pop(key, None)
            else:
                d[key] = w
        return self._wrap(d)

    def __sub__(self, other: "Mat") -> "Mat":
        self._shape_check(other)
        d = dict(self.d)
        for key, v in other.d.items():
            s = d.get(key)
            w = -v if s is None else s - v
            if w.is_zero():
                d.pop(key, None)
            else:
                d[key] = w
        return self._wrap(d)

    def __neg__(self) -> "Mat":
        return self._wrap({k: -v for k, v in self.d.items()})

    def scale(self, s) -> "Mat":
        s = Scalar.of(s)
        if s.is_zero():
            return Mat(self.n, self.m)
        return self._wrap({k: s * v for k, v in self.d.items()})

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.m != other.n:
            raise ValueError(f"shape mismatch {self.n}x{self.m} @ {other.n}x{other.m}")
        rows_other: dict[int, list[tuple[int, Scalar]]] = {}
        for (k, j), v in other.d.items():
            rows_other.setdefault(k, []).append((j, v))
        acc: dict[tuple[int, int], Scalar] = {}
        for (i, k), u in self.d.items():
            row = rows_other.get(k)
            if row is None:
                continue
            for j, v in row:
                key = (i, j)
                prod = u * v
                s = acc.get(key)
                acc[key] = prod if s is None else s + prod
        return Mat(self.n, other.m, acc)

    def _wrap(self, d: dict) -> "Mat":
        out = object.__new__(Mat)
        object.__setattr__(out, "n", self.n)
        object.__setattr__(out, "m", self.m)
        object.__setattr__(out, "d", d)
        return out

    def _shape_check(self, other: "Mat"):
        if self.n != other.n or self.m != other.m:
            raise ValueError(f"shape mismatch {self.n}x{self.m} vs {other.n}x{other.m}")

    # -- involutions -------------------------------------------------------------

    def transpose(self) -> "Mat":
        return Mat(self.m, self.n, {(j, i): v for (i, j), v in self.d.items()})

    def dagger(self) -> "Mat":
        return Mat(self.m, self.n, {(j, i): v.conjugate() for (i, j), v in self.d.items()})

    # -- scalar-valued maps -----------------------------------------------------

    def trace(self) -> Scalar:
        t = ZERO
        for (i, j), v in self.d.items():
            if i == j:
                t = t + v
        return t

    def max_abs_float(self) -> float:
        return max((v.abs_float() for v in self.d.values()), default=0.0)

    def is_hermitian(self) -> bool:
        return self == self.dagger()

    def is_skew_hermitian(self) -> bool:
        return (self + self.dagger()).is_zero()

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return (self + self.transpose()).is_zero()

    # -- polynomial certificates ---------------------------------------------------

    def charpoly(self) -> list[Scalar]:
        """Coefficients [c0..cn] of det(xI - A) = sum c_k x^(n-k), c0 = 1."""
        if self.n != self.m:
            raise ValueError("charpoly of a non-square matrix")
        n = self.n
        eye = Mat.identity(n)
        coeffs = [ONE]
        M = eye
        for k in range(1, n + 1):
            Mk = self @ M
            ck = -(Mk.trace() / k)
            coeffs.append(ck)
            M = Mk + eye.scale(ck)
        return coeffs

    def submatrix(self, rows, cols) -> "Mat":
        rset = {r: i for i, r in enumerate(rows)}
        cset = {c: j for j, c in enumerate(cols)}
        entries = {}
        for (i, j), v in self.d.items():
            if i in rset and j in cset:
                entries[(rset[i], cset[j])] = v
        return Mat(len(rows), len(cols), entries)

    def inertia(self) -> tuple[int, int, int]:
        """(positive, zero, negative) eigenvalue counts of a Hermitian matrix:
        its charpoly has real roots only, so by Descartes' rule the sign
        changes of the nonzero coefficients count the positive roots."""
        if not self.is_hermitian():
            raise ValueError("inertia requires a Hermitian matrix")
        signs, last = [], 0
        for k, ck in enumerate(self.charpoly()):
            if not ck.is_real():
                raise ValueError("non-real charpoly coefficient on Hermitian input")
            if not ck.is_zero():
                signs.append(ck.sign())
                last = k
        positive = sum(u != v for u, v in zip(signs, signs[1:]))
        return positive, self.n - last, last - positive

    def is_psd(self) -> bool:
        """Positive semidefinite: no negative eigenvalue (`inertia`)."""
        return self.inertia()[2] == 0

    def is_pd(self) -> bool:
        """Sylvester test via exact symmetric elimination: a Hermitian matrix
        is positive definite iff every pivot of the unpivoted LDL* sweep is
        positive (pivot products are the leading principal minors)."""
        if not self.is_hermitian():
            raise ValueError("is_pd requires a Hermitian matrix")
        A = self.rows()
        n = self.n
        for k in range(n):
            piv = A[k][k]
            if not piv.is_real() or piv.sign() <= 0:
                return False
            inv = piv.inverse()
            for i in range(k + 1, n):
                f = A[i][k] * inv
                if f.is_zero():
                    continue
                row_i, row_k = A[i], A[k]
                for j in range(k + 1, n):
                    if not row_k[j].is_zero():
                        row_i[j] = row_i[j] - f * row_k[j]
        return True

    # -- tensor products ---------------------------------------------------------

    def kron(self, other: "Mat") -> "Mat":
        entries = {}
        on, om = other.n, other.m
        for (i, j), u in self.d.items():
            for (k, l), v in other.d.items():
                entries[(i * on + k, j * om + l)] = u * v
        return Mat(self.n * on, self.m * om, entries)

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(v) for v in row) for row in self.rows()
        )
        return f"Mat[{self.n}x{self.m}]({body})"


def accumulate(store: dict, key, value):
    """store[key] += value, dropping the key when the sum is zero; values are
    Scalars or Mats."""
    s = store.get(key)
    w = value if s is None else s + value
    if w.is_zero():
        store.pop(key, None)
    else:
        store[key] = w


def apply_to_vector(M: Mat, vec: dict[int, Scalar]) -> dict[int, Scalar]:
    """M @ v for a sparse column vector given as {index: Scalar}."""
    out: dict[int, Scalar] = {}
    for (i, j), u in M.d.items():
        v = vec.get(j)
        if v is not None:
            accumulate(out, i, u * v)
    return out


def commutator(A: Mat, B: Mat) -> Mat:
    return A @ B - B @ A
