"""Sparse multivariate polynomials over Gaussian rationals.

A polynomial belongs to a ring with a fixed, ordered tuple of variable names.
Terms are stored as ``{exponent_tuple: GaussRational}`` with no zero
coefficients.  Every exact term table is built by ``add_term``, one rule:
add the coefficient to the key's entry, or insert it under a new key, and
drop the key when the sum is zero.  So a table holds no zeros, and its
insertion order, the order in which ``floats.BatchEvaluator`` sums the
terms, is that of adding the monomials one at a time.  Rings for different
spaces are distinct values, never shared globally; mixing rings raises.  All
values are immutable after construction, so they are safe for concurrent
read-only use.

Also here:

* ``PolyFraction`` -- an exact quotient of two polynomials, never reduced
  (multivariate gcd is deliberately out of scope).
* ``TaylorJets`` -- the one exact route to derivatives of a polynomial
  system at a point: truncated Taylor series of its shift along constant
  fields, built in Gaussian integers on packed exponent keys.  Soundness:
  scaling component j by the nonzero integer C_j Q^m_j is exact, and one
  ``_reduced`` per nonzero entry restores the canonical triple, so
  ``row(beta)`` holds the values of the series over Q(i); the digit width
  bounds every field exponent of a kept product; skipping an empty product
  is exact (it adds nothing).  The class docstring has the details.

Reduction mod p is in ``modp``, and float values are in ``floats``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .gauss import GaussRational, ZERO, ONE, _reduced

Exponent = Tuple[int, ...]


def add_term(terms: Dict, e, c) -> None:
    """terms[e] += c over ints or ``GaussRational``s, inserting a new key
    and dropping the key when the sum is zero."""
    if e in terms:
        c = terms[e] + c
    if c:
        terms[e] = c
    else:
        terms.pop(e, None)


def monomials(width: int, degree: int) -> Iterator[Exponent]:
    """All exponent tuples in ``width`` variables of the given total degree,
    in lexicographic order, made one at a time.  The successor of e moves
    one unit from its last nonzero entry e_j (j >= 1) to e_(j-1) and the
    rest of e_j to the last place: the smallest tuple above e with e's
    prefix before j - 1 and a larger entry at j - 1."""
    if not width:
        if not degree:
            yield ()
        return
    e = [0] * width
    e[-1] = degree
    while True:
        yield tuple(e)
        j = width - 1
        while j and not e[j]:
            j -= 1
        if not j:
            return
        rest, e[j] = e[j] - 1, 0
        e[j - 1] += 1
        e[-1] = rest


class PolyRing:
    """An ordered set of variable names; the ambient ring of a polynomial."""

    __slots__ = ("vars", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "vars", names)
        object.__setattr__(self, "_index", {v: k for k, v in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("PolyRing is immutable")

    def __reduce__(self):
        return PolyRing, (self.vars,)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"PolyRing{self.vars}"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    # -- constructors --------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(ONE)

    def const(self, c) -> "Polynomial":
        c = GaussRational.coerce(c)
        if c.is_zero():
            return self.zero()
        return Polynomial(self, {(0,) * len(self.vars): c})

    def var(self, name: str) -> "Polynomial":
        exp = [0] * len(self.vars)
        exp[self.index(name)] = 1
        return Polynomial(self, {tuple(exp): ONE})


class Polynomial:
    """Exact sparse polynomial; immutable once built."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Dict[Exponent, GaussRational]):
        clean = {e: c for e, c in terms.items() if not c.is_zero()}
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.ring, self.terms)

    # -- predicates / structure ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self) -> GaussRational:
        return self.terms.get((0,) * len(self.ring.vars), ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- ring arithmetic -------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("variable sets differ")

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            return self.ring.const(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            add_term(terms, e, c)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        out: Dict[Exponent, GaussRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(out, tuple(map(operator.add, e1, e2)), c1 * c2)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = GaussRational.coerce(c)
        if c.is_zero():
            return self.ring.zero()
        return Polynomial(self.ring, {e: cc * c for e, cc in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "Polynomial":
        i = self.ring.index(name)
        out: Dict[Exponent, GaussRational] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            ne = list(e)
            ne[i] = k - 1
            add_term(out, tuple(ne), c * k)
        return Polynomial(self.ring, out)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Dict[str, GaussRational]) -> GaussRational:
        vals = []
        for v in self.ring.vars:
            if v not in point:
                raise KeyError(f"missing assignment for {v!r}")
            vals.append(GaussRational.coerce(point[v]))
        # a term with a positive power of a variable that is 0 at the point
        # is 0, so skipping it leaves the sum exact
        zeros = [i for i, x in enumerate(vals) if x.is_zero()]
        total = ZERO
        for e, c in self.terms.items():
            if zeros and any(e[i] for i in zeros):
                continue
            t = c
            for x, k in zip(vals, e):
                for _ in range(k):
                    t = t * x
            total = total + t
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.ring.vars, e)
                if k
            )
            bits.append(f"{c!r}*{mono}" if mono else f"{c!r}")
        return " + ".join(bits)


class PolyFraction:
    """Exact quotient of two polynomials in the same ring, never reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.ring != den.ring:
            raise ValueError("variable sets differ")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("PolyFraction is immutable")

    def __reduce__(self):
        return PolyFraction, (self.num, self.den)

    def derivative(self, name: str) -> "PolyFraction":
        return PolyFraction(
            self.num.derivative(name) * self.den - self.num * self.den.derivative(name),
            self.den * self.den,
        )

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


# ---------------------------------------------------------------------------
# exact jets by truncated Taylor series
# ---------------------------------------------------------------------------

# A truncated power series in the shift parameters t with Gaussian-integer
# coefficients, {key: (re, im)}.  The key packs t^beta into one int: beta_k
# in digit k, ``bits`` wide, and the weight |beta| in the digit above them,
# so a product of monomials is one int add and the truncation above weight
# ``top`` is one compare with ``limit`` = (top + 1) << (bits * width).
IntSeries = Dict[int, Tuple[int, int]]


def _mul_add(out: IntSeries, a: IntSeries, b: IntSeries,
             limit: int) -> IntSeries:
    """out += a*b, truncated below the key ``limit``; returns out."""
    for ka, (a0, a1) in a.items():
        for kb, (b0, b1) in b.items():
            k = ka + kb
            if k < limit:
                re, im = a0 * b0 - a1 * b1, a0 * b1 + a1 * b0
                if k in out:
                    r0, r1 = out[k]
                    out[k] = (r0 + re, r1 + im)
                else:
                    out[k] = (re, im)
    return out


def _field_coefficient(f, v: str):
    """The coefficient of d/dv in the field f (a name or a dict), or None."""
    return ONE if f == v else (f.get(v) if isinstance(f, dict) else None)


class TaylorJets:
    """Jets of a system psi of polynomials at one point along constant
    fields v_k (variable names or direction dicts).

    For the commuting fields L_k = sum_v v_k[v] d/dv, Taylor's theorem gives
    L^beta f(z0) = beta! [t^beta] f(z0 + sum_k t_k v_k).  Each variable is
    shifted to that line, and psi is shifted over the variable series up to
    weight ``top``, so ``row(beta)`` is a lookup of the raw coefficients
    [t^beta]: scaling a row by beta! leaves ranks unchanged and multiplies a
    determinant by beta!.  The coefficients are kept as one table
    beta -> {j: [t^beta] psi_j} of the nonzeros only, the sparse rows that
    ``RankTracker.add_row`` takes.

    The series are built in Gaussian integers, as (re, im) pairs of ints.
    Q is the lcm of the denominators of the point and of the field
    coefficients, so each Q x_i(t) has Gaussian-integer coefficients; C_j is
    the lcm of the coefficient denominators of the terms of psi_j that are
    not skipped (below) and m_j the degree of psi_j, so
    C_j Q^m_j psi_j(x(t)) = sum_e (C_j a_e) Q^(m_j - |e|) prod_i (Q x_i(t))^e_i
    is a series over Z[i].  Scaling column j by the nonzero integer C_j Q^m_j
    is exact, and one ``_reduced`` of each nonzero coefficient over it
    restores the canonical triple of [t^beta] psi_j, so ``row(beta)`` holds
    the same values as the series over Q(i) (the tests' reference route,
    ``taylor_table_by_series``), with one GaussRational per table entry.

    The digit width bounds every field exponent: a term of psi has degree
    <= deg psi and each x_i(t) is linear in t, so a product that is kept
    (weight <= top) has every exponent <= min(deg psi, top), which its digit
    holds.  So a key sum below ``limit`` carries out of no digit, and a sum
    that carries has weight > top and is dropped.  Skipping an empty product
    is exact: a variable with value 0 at the point and no field is the zero
    series, and a term whose powers of the variables with value 0 sum past
    ``top`` is 0 up to weight ``top``, so neither adds to the table."""

    def __init__(self, psi: Sequence[Polynomial], fields: Sequence, point: Dict,
                 top: int):
        ring_vars = psi[0].ring.vars
        width = len(fields)
        consts = [GaussRational.coerce(point[v]).parts() for v in ring_vars]
        moves = [[(k, GaussRational.coerce(c).parts())
                  for k, f in enumerate(fields)
                  if (c := _field_coefficient(f, v))] for v in ring_vars]
        q = lcm(*(d for _, _, d in consts),
                *(d for row in moves for _, (_, _, d) in row))
        degrees = [p.degree() for p in psi]
        degree = max(degrees)
        bits = max(min(degree, top), 1).bit_length()
        wshift = bits * width
        limit = (top + 1) << wshift
        base: List[IntSeries] = []    # Q x_i(t) = Q z0_i + sum_k t_k Q v_k[i]
        for (a, b, d), row in zip(consts, moves):
            series = {0: (a * (q // d), b * (q // d))} if a or b else {}
            for k, (a, b, d) in row:
                series[(1 << bits * k) + (1 << wshift)] = (a * (q // d),
                                                           b * (q // d))
            base.append(series)
        lifted = [0 not in s for s in base]     # no constant term
        sparse = any(lifted)
        powers: Dict[Tuple[int, int], IntSeries] = {}   # x_i^k, built once

        def power(i: int, k: int) -> IntSeries:
            out = powers.get((i, k))
            if out is None:
                out = powers[i, k] = (base[i] if k == 1 else _mul_add(
                    {}, power(i, k - 1), base[i], limit))
            return out

        qpow = [q ** m for m in range(degree + 1)]
        rows: Dict[int, Dict[int, GaussRational]] = {}     # by packed key
        for j, p in enumerate(psi):
            terms = [(e, c.parts()) for e, c in p.terms.items()
                     if not sparse or sum(compress(e, lifted)) <= top]
            if not terms:
                continue
            m = degrees[j]
            scale = lcm(*(d for _, (_, _, d) in terms))
            acc: IntSeries = {}
            for e, (a, b, d) in terms:
                s = scale // d * qpow[m - sum(e)]
                c0, c1 = a * s, b * s
                factors = [power(i, k) for i, k in enumerate(e) if k]
                last = factors.pop() if factors else {0: (1, 0)}
                head: IntSeries = {0: (1, 0)}
                for f in factors:
                    head = _mul_add({}, head, f, limit)
                    if not head:
                        break
                if head:
                    # the coefficient goes on the last factor, the shorter
                    # series
                    _mul_add(acc, head, {
                        kb: (c0 * b0 - c1 * b1, c0 * b1 + c1 * b0)
                        for kb, (b0, b1) in last.items()}, limit)
            den = scale * qpow[m]
            for key, (re, im) in acc.items():
                if re or im:
                    row = rows.get(key)
                    if row is None:
                        row = rows[key] = {}
                    row[j] = _reduced(re, im, den)
        mask = (1 << bits) - 1
        self.table: Dict[Tuple[int, ...], Dict[int, GaussRational]] = {
            tuple((key >> bits * k) & mask for k in range(width)): row
            for key, row in rows.items()}

    def row(self, beta: Tuple[int, ...]) -> Dict[int, GaussRational]:
        """The nonzero coefficients of the jet row of ``beta``, {j: value}."""
        return self.table.get(beta, {})
