"""Sparse exact matrices over the scalar field, plus eigen-free certificates.

The matrices stay small (fiber dimensions up to 2^q and frame dimensions
up to p+q), so all products are done entry-exactly.  One kernel,
`_add_scaled`, serves `@`, sums of products (`product_sum`) and linear
combinations (`combination`): every entry of the result is summed as four
unreduced integer numerators over one denominator (a product of Gaussian
rationals skips the sqrt2 terms, a product of reals the imaginary ones),
then reduced once by `exact._reduced`.  That is one gcd and one Scalar per
entry, where a Scalar loop makes one per product and one per partial sum;
entries that sum to zero are not stored.  A product with an empty factor
(a zero connection matrix in a commutator, say) is skipped once its shapes
have been checked, so it costs no indexing of the other factor and still
raises on a shape mismatch.  `+` and `-` of two Mats stay on
Scalar adds, one `accumulate` per entry of the right side: an entry held by
the left side only is kept as it is, where the kernel would rebuild and
reduce every entry of both sides.

Spectral facts about Hermitian matrices are certified without extracting
eigenvalues:

* characteristic polynomials via the trace recursion (Faddeev-LeVerrier),
* the inertia (eigenvalue sign counts) by Descartes' rule of signs over
  the charpoly, exact on a real spectrum: PSD is no negative count, and
  singular is a nonzero zero count (there is no determinant),
* positive definiteness by Sylvester's criterion (leading principal minors).
"""

from __future__ import annotations

from .exact import ONE, ZERO, Scalar, _reduced


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
        return Mat._of(n, n, {})

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat.scalar(n, ONE)

    @staticmethod
    def scalar(n: int, s) -> "Mat":
        """s times the n x n identity."""
        s = Scalar.of(s)
        return Mat._of(n, n, dict.fromkeys(zip(range(n), range(n)), s) if s else {})

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
            accumulate(d, key, v)
        return self._wrap(d)

    def __sub__(self, other: "Mat") -> "Mat":
        self._shape_check(other)
        d = dict(self.d)
        for key, v in other.d.items():
            accumulate(d, key, -v)
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
        return product_sum(((self, other),))

    @staticmethod
    def _of(n: int, m: int, d: dict) -> "Mat":
        """An n x m Mat holding `d` as is: its values must be nonzero Scalars."""
        out = _alloc(Mat)
        _set_n(out, n)
        _set_m(out, m)
        _set_d(out, d)
        return out

    def _wrap(self, d: dict) -> "Mat":
        return Mat._of(self.n, self.m, d)

    def _shape_check(self, other: "Mat"):
        if self.n != other.n or self.m != other.m:
            raise ValueError(f"shape mismatch {self.n}x{self.m} vs {other.n}x{other.m}")

    # -- involutions -------------------------------------------------------------

    def transpose(self) -> "Mat":
        return Mat._of(self.m, self.n, {(j, i): v for (i, j), v in self.d.items()})

    def dagger(self) -> "Mat":
        return Mat._of(self.m, self.n, {(j, i): v.conjugate() for (i, j), v in self.d.items()})

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

    def is_antisymmetric(self) -> bool:
        return self == -self.transpose()

    # -- polynomial certificates ---------------------------------------------------

    def charpoly(self) -> list[Scalar]:
        """Coefficients [c0..cn] of det(xI - A) = sum c_k x^(n-k), c0 = 1.

        Faddeev-LeVerrier: M_1 = I, c_k = -tr(A M_k)/k, M_{k+1} = A M_k + c_k I.
        Only the products A M_k are kept: A M_{k+1} = A (A M_k) + c_k A, one
        `product_sum` per step."""
        if self.n != self.m:
            raise ValueError("charpoly of a non-square matrix")
        n = self.n
        coeffs = [ONE]
        AM = self
        for k in range(1, n + 1):
            ck = -(AM.trace() / k)
            coeffs.append(ck)
            if k < n:
                AM = product_sum(((self, AM), (Mat.scalar(n, ck), self)))
        return coeffs

    def submatrix(self, rows, cols) -> "Mat":
        rset = {r: i for i, r in enumerate(rows)}
        cset = {c: j for j, c in enumerate(cols)}
        entries = {}
        for (i, j), v in self.d.items():
            if i in rset and j in cset:
                entries[(rset[i], cset[j])] = v
        return Mat._of(len(rows), len(cols), entries)

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


_alloc = object.__new__
_set_n, _set_m, _set_d = Mat.n.__set__, Mat.m.__set__, Mat.d.__set__


def product_sum(pairs) -> Mat:
    """sum of L @ R over the (L, R) in `pairs` (at least one, all of one
    shape), each entry reduced once."""
    acc: dict[int, list[int]] = {}
    shape = None
    for L, R in pairs:
        if L.m != R.n:
            raise ValueError(f"shape mismatch {L.n}x{L.m} @ {R.n}x{R.m}")
        if shape is None:
            shape = (L.n, R.m)
        elif shape != (L.n, R.m):
            raise ValueError(f"summed products of shapes {shape} and {(L.n, R.m)}")
        if not (L.d and R.d):
            continue
        m = R.m
        rows: dict[int, list] = {}
        for (k, j), v in R.d.items():
            rows.setdefault(k, []).append((j, v._v))
        for (i, k), u in L.d.items():
            row = rows.get(k)
            if row is not None:
                _add_scaled(acc, u._v, i * m, row)
    return _collect(*shape, acc)


def combination(coeffs, mats) -> Mat:
    """sum_a coeffs[a] mats[a] (all of one shape), each entry reduced once;
    the coefficients are Scalars, ints or Fractions."""
    n, m = mats[0].n, mats[0].m
    acc: dict[int, list[int]] = {}
    for coeff, M in zip(coeffs, mats):
        if (M.n, M.m) != (n, m):
            raise ValueError(f"combined matrices of shapes {(n, m)} and {(M.n, M.m)}")
        coeff = Scalar.of(coeff)
        if coeff:
            _add_scaled(acc, coeff._v, 0, [(i * m + j, v._v) for (i, j), v in M.d.items()])
    return _collect(n, m, acc)


def _add_scaled(acc: dict[int, list[int]], u: tuple[int, ...], base: int, row) -> None:
    """acc[base + j] += u * v for the (j, v) in `row`, with u and each v a
    Scalar's `_v` tuple; the key of entry (i, j) of an n x m sum is i*m + j.
    A sum is kept as the list [a, b, c, d, den] of its unreduced numerators
    over one denominator: equal denominators add numerators, and one
    denominator dividing the other scales only one side."""
    a, b, c, d, e = u
    get = acc.get
    for j, (p, q, r, s, f) in row:
        if not (b or d or q or s):  # Gaussian rationals
            x = a * p - c * r
            z = a * r + c * p
            y = w = 0
        elif not (c or d or r or s):  # real
            x = a * p + 2 * b * q
            y = a * q + b * p
            z = w = 0
        else:
            x = a * p + 2 * b * q - c * r - 2 * d * s
            y = a * q + b * p - c * s - d * r
            z = a * r + 2 * b * s + c * p + 2 * d * q
            w = a * s + b * r + c * q + d * p
        g = e * f
        key = base + j
        t = get(key)
        if t is None:
            acc[key] = [x, y, z, w, g]
            continue
        h = t[4]
        if h == g:
            pass
        elif h % g == 0:
            g = h // g
            x, y, z, w = x * g, y * g, z * g, w * g
        elif g % h == 0:
            h = g // h
            t[0] *= h
            t[1] *= h
            t[2] *= h
            t[3] *= h
            t[4] = g
        else:
            t[0] *= g
            t[1] *= g
            t[2] *= g
            t[3] *= g
            t[4] = g * h
            x, y, z, w = x * h, y * h, z * h, w * h
        t[0] += x
        t[1] += y
        t[2] += z
        t[3] += w


def _collect(n: int, m: int, acc: dict[int, list[int]]) -> Mat:
    """The n x m Mat of the sums of `_add_scaled`, each reduced once; sums
    that are zero are dropped."""
    return Mat._of(n, m, {divmod(key, m): _reduced(x, y, z, w, g)
                          for key, (x, y, z, w, g) in acc.items() if x or y or z or w})


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
