"""Sparse multivariate polynomials over Gaussian rationals.

A polynomial belongs to a ring with a fixed, ordered tuple of variable names.
Terms are stored as ``{exponent_tuple: GaussRational}`` with no zero
coefficients.  Rings for different spaces are distinct values, never shared
globally; mixing rings raises.  All values are immutable after construction,
so they are safe for concurrent read-only use.

Also here:

* ``PolyFraction`` -- an exact quotient of two polynomials, never reduced
  (multivariate gcd is deliberately out of scope).
* ``TaylorJets`` -- the one exact route to derivatives of a polynomial
  system at a point: truncated Taylor series of its shift along constant
  fields.

Reduction mod p is in ``modp``, and float values are in ``floats``.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .gauss import GaussRational, ZERO, ONE

Exponent = Tuple[int, ...]


def monomials(width: int, degree: int) -> List[Exponent]:
    """All exponent tuples in ``width`` variables of the given total degree,
    in lexicographic order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(width), degree):
        e = [0] * width
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort()
    return out


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
            s = terms.get(e, ZERO) + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
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
                e = tuple(map(operator.add, e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
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
            ne = tuple(ne)
            s = out.get(ne, ZERO) + c * k
            if s.is_zero():
                out.pop(ne, None)
            else:
                out[ne] = s
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

# A truncated power series in the shift parameters t, graded by weight:
# series[w] maps each exponent tuple of total weight w to its coefficient.
Series = List[Dict[Tuple[int, ...], GaussRational]]


def _accumulate(out: Dict, e, c) -> None:
    s = out.get(e, ZERO) + c
    if s.is_zero():
        out.pop(e, None)
    else:
        out[e] = s


def _series_mul(a: Series, b: Series, top: int) -> Series:
    out: Series = [{} for _ in range(min(len(a) + len(b) - 2, top) + 1)]
    for wa, pa in enumerate(a):
        for wb, pb in enumerate(b[:top - wa + 1]):
            for ea, ca in pa.items():
                for eb, cb in pb.items():
                    # the one weight-0 exponent is the origin, which adds nothing
                    e = eb if not wa else ea if not wb else tuple(
                        map(operator.add, ea, eb))
                    _accumulate(out[wa + wb], e, ca * cb)
    return out


def _shifter(base: List[Series], origin: Tuple[int, ...], top: int):
    """poly -> poly(base_0, ..., base_n) truncated above weight ``top``,
    with the powers of the base series cached across calls.  Each series
    ends at the largest weight one of its terms reaches, so its length
    follows the polynomial and the base series, not ``top``."""
    powers: Dict[Tuple[int, int], Series] = {}
    # A base series with no weight-0 part starts at weight >= 1, so its k-th
    # power starts at weight >= k: a term whose exponents on those bases sum
    # past ``top`` is 0 up to weight ``top``, so skipping it is exact.  With
    # no zero coordinate the list is empty.
    lifted = [i for i, s in enumerate(base) if not s[0]]

    def power(i: int, k: int) -> Series:
        if (i, k) not in powers:
            powers[i, k] = (base[i] if k == 1 else
                            _series_mul(power(i, k - 1), base[i], top))
        return powers[i, k]

    def shift(poly: Polynomial) -> Series:
        out: Series = []
        for e, c in poly.terms.items():
            if lifted and sum(e[i] for i in lifted) > top:
                continue
            term: Series = [{origin: c}]
            for i, k in enumerate(e):
                if k:
                    term = _series_mul(term, power(i, k), top)
            out += [{} for _ in range(len(term) - len(out))]
            for part, dest in zip(term, out):
                for te, tc in part.items():
                    _accumulate(dest, te, tc)
        return out
    return shift


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
    ``RankTracker.add_row`` takes."""

    def __init__(self, psi: Sequence[Polynomial], fields: Sequence, point: Dict,
                 top: int):
        origin = (0,) * len(fields)
        series: List[Series] = []     # z0_i + sum_k t_k v_k[i] per variable i
        for v in psi[0].ring.vars:
            linear = {}
            for k, f in enumerate(fields):
                c = ONE if f == v else (f.get(v) if isinstance(f, dict) else None)
                if c:
                    linear[origin[:k] + (1,) + origin[k + 1:]] = c
            const = GaussRational.coerce(point[v])
            series.append([{origin: const} if const else {}, linear])
        shift = _shifter(series, origin, top)
        self.table: Dict[Tuple[int, ...], Dict[int, GaussRational]] = {}
        for j, p in enumerate(psi):
            for part in shift(p):
                for e, c in part.items():
                    self.table.setdefault(e, {})[j] = c

    def row(self, beta: Tuple[int, ...]) -> Dict[int, GaussRational]:
        """The nonzero coefficients of the jet row of ``beta``, {j: value}."""
        return self.table.get(beta, {})
