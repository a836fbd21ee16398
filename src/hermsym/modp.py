"""Polynomials over F_p and the batched int64 trial-division kernel of the
finite-field irreducibility oracle (``rigidity.irreducibility_oracle``)."""

from __future__ import annotations

from math import comb
from typing import Dict, Tuple

import numpy as np

from .poly import Exponent, Polynomial, monomials


class PolyModP:
    """Sparse multivariate polynomial with coefficients in F_p."""

    __slots__ = ("vars", "p", "terms")

    def __init__(self, names: Tuple[str, ...], p: int, terms: Dict[Exponent, int]):
        object.__setattr__(self, "vars", tuple(names))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", {e: c % p for e, c in terms.items() if c % p})

    def __setattr__(self, name, value):
        raise AttributeError("PolyModP is immutable")

    def __reduce__(self):
        return PolyModP, (self.vars, self.p, self.terms)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        return (isinstance(other, PolyModP) and self.p == other.p
                and self.vars == other.vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.p, frozenset(self.terms.items())))

    def __mul__(self, other):
        out: Dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % self.p
        return PolyModP(self.vars, self.p, out)

    def constant(self) -> int:
        return self.terms.get((0,) * len(self.vars), 0)


def reduce_mod(poly: Polynomial, p: int) -> PolyModP:
    """``poly`` over F_p; ValueError on a non-real coefficient or p | den."""
    terms: Dict[Exponent, int] = {}
    for e, c in poly.terms.items():
        num, im, den = c.parts()
        if im:
            raise ValueError(f"non-real coefficient {c!r} cannot be reduced mod {p}")
        if den % p == 0:
            raise ValueError(
                f"prime {p} divides the denominator of coefficient {c.re}"
            )
        v = (num * pow(den, -1, p)) % p
        if v:
            terms[e] = v
    return PolyModP(poly.ring.vars, p, terms)


# ---------------------------------------------------------------------------
# trial division over F_p
# ---------------------------------------------------------------------------

# The kernel below runs in int64.  Every stored coefficient lies in [0, p),
# so with p < 2**31 a product of two is below 2**62; each product is reduced
# mod p before any sum, so a sum of fewer than 2**31 residues stays below
# 2**62 as well, and no intermediate reaches 2**63.
PRIME_BOUND = 2 ** 31
# rows per block: the widest temporary of a block stays near 256 KiB
_BLOCK_BYTES = 1 << 18


class _GradedProducts:
    """Bilinear tables of the homogeneous products P_j * Q_m in n variables:
    the index pairs of every (degree-j, degree-m) monomial pair, sorted by
    the output monomial, with the first pair of each output for reduceat."""

    def __init__(self, nvars: int, top: int):
        self.monos = [list(monomials(nvars, k)) for k in range(top + 1)]
        self.index = [{m: i for i, m in enumerate(ms)} for ms in self.monos]
        self._tables: Dict[Tuple[int, int], Tuple] = {}

    def flat(self, low: int, high: int):
        return [m for ms in self.monos[low:high + 1] for m in ms]

    def table(self, j: int, m: int):
        key = (j, m)
        if key not in self._tables:
            out = self.index[j + m]
            pairs = sorted((out[tuple(a + b for a, b in zip(u, v))], iu, iv)
                           for iu, u in enumerate(self.monos[j])
                           for iv, v in enumerate(self.monos[m]))
            o, left, right = (np.array(c, dtype=np.int64) for c in zip(*pairs))
            starts = np.flatnonzero(np.r_[True, o[1:] != o[:-1]])
            self._tables[key] = (left, right, starts)
        return self._tables[key]

    def mul(self, a, b, j: int, m: int, p: int):
        left, right, starts = self.table(j, m)
        terms = a[:, left] * b[:, right]
        terms %= p
        out = np.add.reduceat(terms, starts, axis=1)
        out %= p
        return out


def _unit_modp(like, monos, coeffs):
    """1 + sum_i coeffs[i] * monos[i] over the field and variables of like."""
    terms = {m: int(c) for m, c in zip(monos, coeffs)}
    terms[(0,) * len(like.vars)] = 1
    return PolyModP(like.vars, like.p, terms)


def trial_division_modp(target, d: int, budget: int):
    """Search degree <= d factors with unit constant term by trial division.

    ``target`` is a PolyModP with constant term 1.  Returns (factor, tried)
    where factor is None if no divisor of degree <= d exists; raises
    OverflowError when the candidate space exceeds the budget.

    The candidates 1 + P_1 + ... + P_d run in ``itertools.product`` order
    over the coefficients of the monomials of degree 1..d (sorted by degree,
    then lexicographically), the all-zero tuple skipped; ``tried`` counts the
    candidates up to and including the returned factor, or all of them.
    They are examined in blocks of rows, each a slice of candidate indices
    decoded into base-p digits, by a batched int64 kernel over F_p.  Each
    block runs the graded quotient Q_0 = 1, Q_k = R_k - sum_j P_j Q_{k-j}
    (k = 1..D, D = deg target) with the homogeneous products read from
    ``_GradedProducts`` tables.  A candidate of degree e divides the target,
    with a quotient of degree >= 1, exactly when e < D and Q_k = 0 for
    D - e < k <= D: the parts of degree <= D of cand * Q equal those of the
    target by construction, and over the domain F_p[x] the degree of
    cand * Q is e + deg Q.  A hit is confirmed by one exact PolyModP
    product cand * Q == target before it is returned."""
    p = target.p
    nvars = len(target.vars)
    sizes = [comb(nvars + j - 1, j) for j in range(1, d + 1)]
    count = p ** sum(sizes)
    if count > budget or count >= 2 ** 63:     # candidate indices are int64
        raise OverflowError(count)
    if p >= PRIME_BOUND:
        raise ValueError(f"prime {p} exceeds the int64 kernel bound 2**31")
    if target.constant() != 1:
        return None, count - 1          # every product cand * Q has constant 1
    D = target.degree()
    graded = _GradedProducts(nvars, max(D, d))
    monos = graded.flat(1, d)
    parts = [np.array([target.terms.get(m, 0) for m in ms], dtype=np.int64)
             for ms in graded.monos[:D + 1]]
    offsets = np.cumsum([0] + sizes)
    M = len(monos)
    powers = np.array([p ** (M - 1 - i) for i in range(M)], dtype=np.int64)
    top = min(d, D - 1)        # a factor of degree >= D leaves no quotient
    widest = max([M] + [len(graded.monos[k]) for k in range(D + 1)]
                 + [len(graded.monos[j]) * len(graded.monos[k - j])
                    for k in range(2, D + 1) for j in range(1, min(k - 1, d) + 1)])
    rows = max(1, _BLOCK_BYTES // (8 * widest))
    for start in range(1, count, rows):
        idx = np.arange(start, min(start + rows, count), dtype=np.int64)
        digits = idx[:, None] // powers % p
        P = [None] + [digits[:, offsets[j - 1]:offsets[j]] for j in range(1, d + 1)]
        degree = np.zeros(len(idx), dtype=np.int64)
        for j in range(1, d + 1):
            degree[P[j].any(axis=1)] = j
        Q = [None]
        for k in range(1, D + 1):
            acc = np.broadcast_to(parts[k], (len(idx), len(parts[k])))
            for j in range(1, min(k, d) + 1):
                acc = acc - (P[j] if j == k else graded.mul(P[j], Q[k - j], j, k - j, p))
            Q.append(acc % p)
        vanish = np.ones(len(idx), dtype=bool)
        hit = np.zeros(len(idx), dtype=bool)
        for e in range(1, top + 1):
            vanish &= ~Q[D - e + 1].any(axis=1)
            hit |= vanish & (degree == e)
        found = np.flatnonzero(hit)
        if found.size:
            r = int(found[0])
            cand = _unit_modp(target, monos, digits[r])
            quotient = _unit_modp(target, graded.flat(1, D),
                                  np.concatenate([q[r] for q in Q[1:]]))
            if cand * quotient != target:
                raise ArithmeticError("trial-division kernel: a hit does not "
                                      "divide the target")
            return cand, int(idx[r])
    return None, count - 1
