"""Complexified octonion algebra, the 3x3 Hermitian Jordan algebra over it,
and the hard-coded affine-cell coordinate polynomials of the two exceptional
compact Hermitian symmetric spaces (the 16-dimensional Cayley plane and the
27-dimensional Freudenthal variety).

Octonion coefficients live in any ring supporting +, -, *, ``is_zero()``
and coercion of ints/Fractions (GaussRational or Polynomial), so the same
code drives both numeric checks and exact polynomial identities.

Basis products follow the seven cyclic triples encoded in ``_TRIPLES``:
e_i * e_{i+1} = e_{i+3} (indices mod 7, representatives 1..7), e_i^2 = -1.
The conjugation rule is conj(x) = x0*e0 - sum_{i>=1} x_i e_i, the only
reading that makes x * conj(x) a scalar.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .gauss import ONE, ZERO, GaussRational
from .poly import Exponent, Polynomial, PolyRing

_TRIPLES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7),
            (5, 6, 1), (6, 7, 2), (7, 1, 3))


def _build_table():
    # table[(i, j)] = (sign, k) meaning e_i e_j = sign * e_k, for 1 <= i, j <= 7;
    # k == 0 encodes the scalar term e_i e_i = -e_0.
    table = {}
    for i in range(1, 8):
        table[(i, i)] = (-1, 0)
    for a, b, c in _TRIPLES:
        table[(a, b)] = (1, c)
        table[(b, c)] = (1, a)
        table[(c, a)] = (1, b)
        table[(b, a)] = (-1, c)
        table[(c, b)] = (-1, a)
        table[(a, c)] = (-1, b)
    return table


OCT_TABLE = _build_table()


class Octonion:
    """8-component element over a scalar ring; basis order e0..e7."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if len(coeffs) != 8:
            raise ValueError("an octonion has 8 components")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Octonion is immutable")

    def __reduce__(self):
        return Octonion, (self.coeffs,)

    # -- helpers over the generic scalar ring ---------------------------

    def _zero(self):
        c = self.coeffs[0]
        return c - c

    def __add__(self, other):
        return Octonion([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Octonion([-a for a in self.coeffs])

    def scale(self, s):
        return Octonion([a * s for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Octonion):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        # e0 acts as identity
        out = [a[0] * b[k] for k in range(8)]
        for k in range(1, 8):
            out[k] = out[k] + a[k] * b[0]
        for i in range(1, 8):
            ai = a[i]
            for j in range(1, 8):
                sign, k = OCT_TABLE[(i, j)]
                term = ai * b[j]
                out[k] = out[k] + (term if sign > 0 else -term)
        return Octonion(out)

    def conj(self) -> "Octonion":
        c = self.coeffs
        return Octonion((c[0],) + tuple(-x for x in c[1:]))

    def norm(self):
        """sum of squared components (complexified composition norm)."""
        total = self._zero()
        for c in self.coeffs:
            total = total + c * c
        return total

    def real_part(self):
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return all((a - b).is_zero() for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"Octonion{self.coeffs!r}"

    @staticmethod
    def basis(k: int, one, zero) -> "Octonion":
        coeffs = [zero] * 8
        coeffs[k] = one
        return Octonion(coeffs)

    @staticmethod
    def scalar(s, zero) -> "Octonion":
        coeffs = [zero] * 8
        coeffs[0] = s
        return Octonion(coeffs)


# ---------------------------------------------------------------------------
# Jordan algebra of Hermitian 3x3 octonion matrices
# ---------------------------------------------------------------------------

class JordanMatrix:
    """Hermitian 3x3 matrix over the octonions:

        [[c1,        off3,       conj(off2)],
         [conj(off3), c2,        off1      ],
         [off2,      conj(off1), c3        ]]
    """

    __slots__ = ("diag", "off")

    def __init__(self, diag: Sequence, off: Sequence[Octonion]):
        diag = tuple(diag)
        off = tuple(off)
        if len(diag) != 3 or len(off) != 3:
            raise ValueError("JordanMatrix needs 3 diagonal scalars and 3 octonions")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)

    def __setattr__(self, name, value):
        raise AttributeError("JordanMatrix is immutable")

    def __reduce__(self):
        return JordanMatrix, (self.diag, self.off)

    def to_full(self):
        c1, c2, c3 = self.diag
        a1, a2, a3 = self.off
        zero = a1._zero()
        s = lambda c: Octonion.scalar(c, zero)
        return [
            [s(c1), a3, a2.conj()],
            [a3.conj(), s(c2), a1],
            [a2, a1.conj(), s(c3)],
        ]


def mat_mul(A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = None
            for j in range(n):
                t = A[i][j] * B[j][k]
                acc = t if acc is None else acc + t
            row.append(acc)
        out.append(row)
    return out


def mat_eq(A, B) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def jordan_trace(A: JordanMatrix):
    c1, c2, c3 = A.diag
    return c1 + c2 + c3


def jordan_det(A: JordanMatrix):
    """Cubic norm form of the exceptional Jordan algebra.

    det = c1 c2 c3 - c1 n(a1) - c2 n(a2) - c3 n(a3) + 2 Re((a1 a2) a3)
    where n is the (complexified) octonion norm.  Two exact identities pin
    this convention in the test suite: det of the rank-one Cayley cell
    matrix vanishes, and det of the 27-variable Freudenthal cell matrix
    reproduces the hard-coded cubic coordinate polynomial symbol for symbol.
    """
    c1, c2, c3 = A.diag
    a1, a2, a3 = A.off
    tri = ((a1 * a2) * a3).real_part()
    return (c1 * c2 * c3
            - c1 * a1.norm() - c2 * a2.norm() - c3 * a3.norm()
            + tri + tri)


def cayley_matrix(x: Octonion, y: Octonion) -> JordanMatrix:
    """The rank-one Hermitian matrix parametrizing the Cayley-plane cell.

    Entrywise this is conj(v)^t v for the row vector v = (1, x, y); its
    independent entries are diag (1, n(x), n(y)) and off slots
    (conj(x) y, conj(y), x).  The rank-one reading is the one for which
    X o X = trace(X) X holds identically (octonion products do not commute,
    so the displayed products fix their order through that identity).
    """
    one = _one_like(x)
    return JordanMatrix((one, x.norm(), y.norm()),
                        (x.conj() * y, y.conj(), x))


def _one_like(x: Octonion):
    c = x.coeffs[0]
    return c - c + 1


# ---------------------------------------------------------------------------
# Hard-coded affine-cell coordinate polynomials (transcribed term by term)
# ---------------------------------------------------------------------------

M16_VARS = tuple(f"x{i}" for i in range(8)) + tuple(f"y{i}" for i in range(8))
M27_VARS = (("x1", "x2", "x3")
            + tuple(f"y{i}" for i in range(8))
            + tuple(f"t{i}" for i in range(8))
            + tuple(f"w{i}" for i in range(8)))

_M16_A = [
    "+y0*x0+y1*x1+y2*x2+y3*x3+y4*x4+y5*x5+y6*x6+y7*x7",
    "-y0*x1+y1*x0-y2*x4+y4*x2-y3*x7+y7*x3-y5*x6+y6*x5",
    "-y0*x2+y2*x0-y4*x1+y1*x4-y3*x5+y5*x3-y6*x7+y7*x6",
    "-y0*x3+y3*x0+y1*x7-y7*x1+y2*x5-y5*x2-y4*x6+y6*x4",
    "-y0*x4+y4*x0-y1*x2+y2*x1+y3*x6-y6*x3-y5*x7+y7*x5",
    "-y0*x5+y5*x0+y1*x6-y6*x1-y2*x3+y3*x2+y4*x7-y7*x4",
    "-y0*x6+y6*x0-y1*x5+y5*x1+y2*x7-y7*x2-y3*x4+y4*x3",
    "-y0*x7+y7*x0-y1*x3+y3*x1-y2*x6+y6*x2-y4*x5+y5*x4",
]

_M27_D = [
    "+t0*w0+t1*w1+t2*w2+t3*w3+t4*w4+t5*w5+t6*w6+t7*w7-x3*y0",
    "-t0*w1+t1*w0-t2*w4+t4*w2-t3*w7+t7*w3-t5*w6+t6*w5-x3*y1",
    "-t0*w2+t2*w0-t4*w1+t1*w4-t3*w5+t5*w3-t6*w7+t7*w6-x3*y2",
    "-t0*w3+t3*w0+t1*w7-t7*w1+t2*w5-t5*w2-t4*w6+t6*w4-x3*y3",
    "-t0*w4+t4*w0-t1*w2+t2*w1+t3*w6-t6*w3-t5*w7+t7*w5-x3*y4",
    "-t0*w5+t5*w0+t1*w6-t6*w1-t2*w3+t3*w2+t4*w7-t7*w4-x3*y5",
    "-t0*w6+t6*w0-t1*w5+t5*w1+t2*w7-t7*w2-t3*w4+t4*w3-x3*y6",
    "-t0*w7+t7*w0-t1*w3+t3*w1-t2*w6+t6*w2-t4*w5+t5*w4-x3*y7",
]

_M27_E = [
    "+y0*w0-y1*w1-y2*w2-y3*w3-y4*w4-y5*w5-y6*w6-y7*w7-x2*t0",
    "+y0*w1+y1*w0+y2*w4-y4*w2+y3*w7-y7*w3+y5*w6-y6*w5-x2*t1",
    "+y0*w2+y2*w0+y4*w1-y1*w4+y3*w5-y5*w3+y6*w7-y7*w6-x2*t2",
    "+y0*w3+y3*w0-y1*w7+y7*w1-y2*w5+y5*w2+y4*w6-y6*w4-x2*t3",
    "+y0*w4+y4*w0+y1*w2-y2*w1-y3*w6+y6*w3+y5*w7-y7*w5-x2*t4",
    "+y0*w5+y5*w0-y1*w6+y6*w1+y2*w3-y3*w2-y4*w7+y7*w4-x2*t5",
    "+y0*w6+y6*w0+y1*w5-y5*w1-y2*w7+y7*w2+y3*w4-y4*w3-x2*t6",
    "+y0*w7+y7*w0+y1*w3-y3*w1+y2*w6-y6*w2+y4*w5-y5*w4-x2*t7",
]

_M27_F = [
    "+y0*t0+y1*t1+y2*t2+y3*t3+y4*t4+y5*t5+y6*t6+y7*t7-x1*w0",
    "+y0*t1-y1*t0-y2*t4+y4*t2-y3*t7+y7*t3-y5*t6+y6*t5-x1*w1",
    "+y0*t2-y2*t0-y4*t1+y1*t4-y3*t5+y5*t3-y6*t7+y7*t6-x1*w2",
    "+y0*t3-y3*t0+y1*t7-y7*t1+y2*t5-y5*t2-y4*t6+y6*t4-x1*w3",
    "+y0*t4-y4*t0-y1*t2+y2*t1+y3*t6-y6*t3-y5*t7+y7*t5-x1*w4",
    "+y0*t5-y5*t0+y1*t6-y6*t1-y2*t3+y3*t2+y4*t7-y7*t4-x1*w5",
    "+y0*t6-y6*t0-y1*t5+y5*t1+y2*t7-y7*t2-y3*t4+y4*t3-x1*w6",
    "+y0*t7-y7*t0-y1*t3+y3*t1-y2*t6+y6*t2-y4*t5+y5*t4-x1*w7",
]


def _accumulate(out: Dict, e, c) -> None:
    s = out.get(e, ZERO) + c
    if s.is_zero():
        out.pop(e, None)
    else:
        out[e] = s


def _parse_terms(ring: PolyRing, text: str) -> Polynomial:
    """Parse '+a*b-c*d' style sums of signed monomials with unit coefficients.

    Each monomial adds its sign to one term table under its exponent tuple,
    in text order, and a sum that cancels drops its entry: the table keeps
    the insertion order of a polynomial sum of the monomials, the order in
    which the float evaluator adds terms."""
    terms: Dict[Exponent, GaussRational] = {}
    text = text.replace("-", "+-")
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = ONE
        if chunk.startswith("-"):
            sign = -ONE
            chunk = chunk[1:]
        exp = [0] * len(ring.vars)
        for name in chunk.split("*"):
            exp[ring.index(name)] += 1
        _accumulate(terms, tuple(exp), sign)
    return Polynomial(ring, terms)


def _square_sum(ring: PolyRing, names) -> Polynomial:
    return _parse_terms(ring, "+".join(f"{n}*{n}" for n in names))


def cayley_plane_forms(ring: PolyRing | None = None):
    """The 26 coordinate polynomials of the 16-dimensional exceptional cell:
    (x0..x7, y0..y7, A0..A7, B0, B1), in the canonical order."""
    if ring is None:
        ring = PolyRing(M16_VARS)
    forms = [ring.var(v) for v in M16_VARS]
    forms += [_parse_terms(ring, s) for s in _M16_A]
    forms.append(_square_sum(ring, [f"x{i}" for i in range(8)]))  # B0
    forms.append(_square_sum(ring, [f"y{i}" for i in range(8)]))  # B1
    return forms


def freudenthal_forms(ring: PolyRing | None = None):
    """The 55 coordinate polynomials of the 27-dimensional exceptional cell:
    (x1,x2,x3, y, t, w, A, B, C, D0..D7, E0..E7, F0..F7, G)."""
    if ring is None:
        ring = PolyRing(M27_VARS)
    forms = [ring.var(v) for v in M27_VARS]
    x1, x2, x3 = ring.var("x1"), ring.var("x2"), ring.var("x3")
    ny = _square_sum(ring, [f"y{i}" for i in range(8)])
    nt = _square_sum(ring, [f"t{i}" for i in range(8)])
    nw = _square_sum(ring, [f"w{i}" for i in range(8)])
    forms.append(x2 * x3 - nw)  # A
    forms.append(x1 * x3 - nt)  # B
    forms.append(x1 * x2 - ny)  # C
    forms += [_parse_terms(ring, s) for s in _M27_D]
    forms += [_parse_terms(ring, s) for s in _M27_E]
    forms += [_parse_terms(ring, s) for s in _M27_F]
    # G: cubic part plus twice the (y w)-pairing against t; the bracketed
    # rows are the E-rows with their -x2*t tails removed.
    g = x1 * x2 * x3 - x1 * nw - x2 * nt - x3 * ny
    for i in range(8):
        row = _parse_terms(ring, _M27_E[i].rsplit("-x2", 1)[0])
        g = g + (row * ring.var(f"t{i}")).scale(2)
    forms.append(g)
    return forms


def symbolic_octonion(ring: PolyRing, prefix: str) -> Octonion:
    """Octonion whose components are the ring variables prefix0..prefix7."""
    return Octonion([ring.var(f"{prefix}{i}") for i in range(8)])


def freudenthal_jordan_matrix() -> JordanMatrix:
    """The 27-variable Hermitian matrix whose det reproduces the cubic form.

    The canonical slot assignment is diagonal (x1, x2, x3) and off-diagonal
    (w, conj(t), y): this is the unique placement of the cell variables (up
    to symmetries of the norm form) for which jordan_det equals the cubic
    coordinate polynomial exactly."""
    ring = PolyRing(M27_VARS)
    return JordanMatrix(
        (ring.var("x1"), ring.var("x2"), ring.var("x3")),
        (symbolic_octonion(ring, "w"),
         symbolic_octonion(ring, "t").conj(),
         symbolic_octonion(ring, "y")),
    )
