"""Test oracle: exterior algebra and Clifford algebra elements as explicit
multivectors.

The package works with the matrices of ext/int/Clifford actions on the
bitmask basis (transdirac.clifford_fiber).  This module computes the same
actions term by term on multivectors, so the tests can compare the two:
the Clifford product is the module action of an element on the symbol
(the multivector) of another, lambda_action(j, .) is c(f_j) = ext - int,
and symbol/quantize are the mutually inverse symbol map and quantization.
"""

from __future__ import annotations

from transdirac.clifford_fiber import ext_bit, int_bit
from transdirac.exact import I, ONE, ZERO, Scalar, rational
from transdirac.matrices import Mat, accumulate


class Multivector:
    """Element of the exterior algebra on q generators, exact coefficients."""

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms: dict[int, Scalar] | None = None):
        object.__setattr__(self, "q", q)
        clean = {}
        if terms:
            for mask, v in terms.items():
                v = Scalar.of(v)
                if not v.is_zero():
                    if mask >> q:
                        raise ValueError(f"mask {mask} out of range for q={q}")
                    clean[mask] = v
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Multivector is immutable")

    @staticmethod
    def unit(q: int) -> "Multivector":
        return Multivector(q, {0: ONE})

    @staticmethod
    def generator(q: int, index: int) -> "Multivector":
        """Basis vector f_index, 1-based."""
        if not 1 <= index <= q:
            raise ValueError(f"index {index} out of range 1..{q}")
        return Multivector(q, {1 << (index - 1): ONE})

    @staticmethod
    def monomial(q: int, indices, coeff=ONE) -> "Multivector":
        mask = 0
        for ix in indices:
            if not 1 <= ix <= q:
                raise ValueError(f"index {ix} out of range 1..{q}")
            bit = 1 << (ix - 1)
            if mask & bit:
                return Multivector(q)
            mask |= bit
        return Multivector(q, {mask: Scalar.of(coeff)})

    def coeff(self, indices) -> Scalar:
        mask = 0
        for ix in indices:
            mask |= 1 << (ix - 1)
        return self.terms.get(mask, ZERO)

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        t = dict(self.terms)
        for mask, v in other.terms.items():
            s = t.get(mask)
            w = v if s is None else s + v
            if w.is_zero():
                t.pop(mask, None)
            else:
                t[mask] = w
        return Multivector(self.q, t)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + other.scale(rational(-1))

    def __neg__(self):
        return self.scale(rational(-1))

    def scale(self, s) -> "Multivector":
        s = Scalar.of(s)
        return Multivector(self.q, {m: s * v for m, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.q == other.q and self.terms == other.terms

    def __hash__(self):
        return hash((self.q, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degree_part(self, k: int) -> "Multivector":
        return Multivector(self.q, {m: v for m, v in self.terms.items()
                                    if m.bit_count() == k})

    def top_degree(self) -> int:
        return max((m.bit_count() for m in self.terms), default=0)

    def wedge(self, other: "Multivector") -> "Multivector":
        self._check(other)
        out: dict[int, Scalar] = {}
        for ma, va in self.terms.items():
            for mb, vb in other.terms.items():
                if ma & mb:
                    continue
                # each generator of mb moves left past the generators of ma above it
                sg_count = 0
                rem = mb
                while rem:
                    low = rem & -rem
                    j = low.bit_length() - 1
                    sg_count += (ma >> (j + 1)).bit_count()
                    rem ^= low
                sg = -1 if sg_count & 1 else 1
                key = ma | mb
                add = va * vb * rational(sg)
                s = out.get(key)
                w = add if s is None else s + add
                if w.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = w
        return Multivector(self.q, out)

    def _check(self, other: "Multivector"):
        if self.q != other.q:
            raise ValueError(f"rank mismatch: {self.q} vs {other.q}")

    def max_abs_float(self) -> float:
        return max((v.abs_float() for v in self.terms.values()), default=0.0)

    def __repr__(self):
        if not self.terms:
            return "Multivector(0)"
        bits = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            name = "1" if mask == 0 else "^".join(
                f"f{j + 1}" for j in range(self.q) if mask >> j & 1)
            bits.append(f"({self.terms[mask]})*{name}")
        return " + ".join(bits)


def lambda_action(index: int, omega: Multivector) -> Multivector:
    """Clifford action of the basis vector f_index on the exterior algebra,
    c(f) = ext(f*) - int(f)."""
    q = omega.q
    if not 1 <= index <= q:
        raise ValueError(f"index {index} out of range 1..{q}")
    j = index - 1
    out: dict[int, Scalar] = {}
    for mask, v in omega.terms.items():
        new, sg = ext_bit(mask, j)
        if sg:
            accumulate(out, new, v if sg > 0 else -v)
        new, sg = int_bit(mask, j)
        if sg:
            accumulate(out, new, -v if sg > 0 else v)
    return Multivector(q, out)


class CliffordElement:
    """Element of Cl(q), stored through its symbol (a multivector)."""

    __slots__ = ("q", "rep")

    def __init__(self, rep: Multivector):
        object.__setattr__(self, "q", rep.q)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CliffordElement is immutable")

    @staticmethod
    def unit(q: int) -> "CliffordElement":
        return CliffordElement(Multivector.unit(q))

    @staticmethod
    def generator(q: int, index: int) -> "CliffordElement":
        return CliffordElement(Multivector.generator(q, index))

    def apply(self, omega: Multivector) -> Multivector:
        """Left module action on the exterior algebra: c(self) omega."""
        if omega.q != self.q:
            raise ValueError(f"rank mismatch: {self.q} vs {omega.q}")
        out = Multivector(self.q)
        for mask, v in self.rep.terms.items():
            w = omega
            for j in reversed(range(self.q)):
                if mask >> j & 1:
                    w = lambda_action(j + 1, w)
            out = out + w.scale(v)
        return out

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        return CliffordElement(self.rep + other.rep)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return CliffordElement(self.rep - other.rep)

    def scale(self, s) -> "CliffordElement":
        return CliffordElement(self.rep.scale(s))

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(("cl", self.rep))

    def __repr__(self):
        return f"Cl[{self.rep!r}]"


def clifford_mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Product in Cl(q): apply the module action of a to the symbol of b."""
    if a.q != b.q:
        raise ValueError(f"rank mismatch: {a.q} vs {b.q}")
    return CliffordElement(a.apply(b.rep))


def symbol(a: CliffordElement) -> Multivector:
    return a.rep


def quantize(omega: Multivector) -> CliffordElement:
    return CliffordElement(omega)


def spinor_cliffords_by_masks(J) -> tuple[Mat, ...]:
    """c(f_a) on the spinor fiber, column by column: on the monomial `mask`,
    c(f_a) = sum_j chi_ja ext_j - conj(chi_ja) int_j with
    chi_ja = g(f_a, v_j) + i g(f_a, J v_j), each term read off `ext_bit` and
    `int_bit`; an oracle for `clifford_fiber.spinor_cliffords`."""
    out = []
    for a in range(J.q):
        entries: dict[tuple[int, int], Scalar] = {}
        for j in range(J.l):
            chi = J.frame[2 * j][a] + I * J.frame[2 * j + 1][a]
            for mask in range(1 << J.l):
                for (new, sg), coeff in ((ext_bit(mask, j), chi),
                                         (int_bit(mask, j), -chi.conjugate())):
                    if sg:
                        key = (new, mask)
                        entries[key] = entries.get(key, ZERO) + coeff * rational(sg)
        out.append(Mat(1 << J.l, 1 << J.l, entries))
    return tuple(out)
