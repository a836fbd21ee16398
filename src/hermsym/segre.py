"""Segre families and exact sampling on the family.

The family polynomial rho(z, xi) = 1 + sum_j psi_j(z) psi_j(xi) is evaluated
from the pairing vector psi of the space, exactly as it is defined, by the
one pairing ``SegreFamily.pair``.  Its expansion is one table, grouped by
z-monomial and built lazily from psi: the support facts read it, and the rho
command prints it term by term in a doubled ring (the cell variables plus a
conjugate copy, prefix ``c``).
Exact gradients come from first-order Taylor jets (``poly.TaylorJets``);
exact identities never touch floats, which are all in ``floats``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

from .gauss import GaussRational, ONE, ZERO
from .linalg import det_exact
from .poly import Polynomial, PolyRing, TaylorJets, add_term
from .sampling import random_gauss_point
from .spaces import Space, cell_matrix_point


def conj_name(v: str) -> str:
    return "c" + v


class SegreFamily:
    """The Segre family of a space: rho(z, xi) = 1 + sum_j psi_j(z) psi_j(xi)
    over its pairing vector psi (``Space.pairing_psi``).

    Every exact query forms that sum with the one pairing ``pair``:
    ``rho_at``, ``specialize`` (rho(., xi) as a polynomial in z) and
    ``gradients`` (psi at one point paired with the derivative rows of
    ``first_jets`` at the other).  The sum is the definition of rho, so in
    exact arithmetic each value equals the one read off the expanded
    polynomial.  The expansion is ``z_groups``, the sum grouped by
    z-monomial and written out directly, which the rho command prints term
    by term; ``rho`` is that table flattened into a doubled-ring
    ``Polynomial`` for the tests and the benchmark's term count, built
    afresh on each read so the family holds one copy of the expansion.

    Exact derivatives of psi at a point are its first-order Taylor jets.
    The expansion and the metric engines of ``floats`` are the only caches:
    each is built once, on first use, under the family's lock (``cached``),
    and is freed with the family."""

    def __init__(self, space: Space):
        self.space = space
        self.ring = PolyRing(space.vars + tuple(conj_name(v) for v in space.vars))
        self._cache: Dict = {}
        self._lock = threading.Lock()

    def cached(self, key, build):
        value = self._cache.get(key)
        if value is None:
            with self._lock:
                value = self._cache.get(key)
                if value is None:
                    value = self._cache[key] = build()
        return value

    @property
    def z_groups(self) -> Dict[Tuple[int, ...], Dict[Tuple[int, ...], GaussRational]]:
        """The family polynomial grouped by the exponent pattern of the z
        block: z-exponent tuple -> {xi-exponent tuple: coefficient}, read
        from the pairing vector (each z-monomial c z^a of psi_j contributes
        c psi_j(xi)).  Each group is a term table built by
        ``poly.add_term``; a group that ends up empty is dropped."""
        def expand():
            origin = (0,) * len(self.zvars)
            groups = {origin: {origin: ONE}}
            for p in self.space.pairing_psi:
                for ze, c in p.terms.items():
                    group = groups.setdefault(ze, {})
                    for xe, cx in p.terms.items():
                        add_term(group, xe, c * cx)
            return {ze: group for ze, group in groups.items() if group}
        return self.cached("z_groups", expand)

    @property
    def rho(self) -> Polynomial:
        """The expanded family polynomial in the doubled ring, flattened
        from ``z_groups`` on each read; bind it once to read it often."""
        return Polynomial(self.ring, {
            ze + xe: c for ze, group in self.z_groups.items()
            for xe, c in group.items()})

    @property
    def zvars(self) -> Tuple[str, ...]:
        return self.space.vars

    def psi_at(self, point: Dict, only=None) -> Dict[int, GaussRational]:
        """{j: psi_j(point)} over the nonzero values, for the j in ``only``
        (every j when None)."""
        psi = self.space.pairing_psi
        values = ((j, psi[j].evaluate(point))
                  for j in (range(len(psi)) if only is None else only))
        return {j: c for j, c in values if not c.is_zero()}

    @staticmethod
    def pair(a: Dict[int, object], b: Dict[int, GaussRational]):
        """sum_j a_j b_j over the j both hold: the one pairing of rho, with
        rho(z, xi) = 1 + pair(psi(z), psi(xi)).  An a_j may be a polynomial,
        which gives rho(., xi) (``specialize``); a row of first-order jets
        as either side gives a gradient."""
        terms = (x * b[j] for j, x in a.items() if j in b)
        return sum(terms, next(terms, ZERO))

    def rho_at(self, z: Dict, xi: Dict) -> GaussRational:
        # psi(xi) first: recipe points are sparse in xi
        at_xi = self.psi_at(xi)
        return ONE + self.pair(self.psi_at(z, at_xi), at_xi)

    def specialize(self, xi: Dict) -> Polynomial:
        """rho(., xi) = 1 + sum_j psi_j(xi) psi_j as an exact polynomial in
        the cell variables."""
        return self.space.ring.one() + self.pair(
            dict(enumerate(self.space.pairing_psi)), self.psi_at(xi))

    def first_jets(self, point: Dict) -> Tuple[Dict[int, GaussRational],
                                               List[Dict[int, GaussRational]]]:
        """psi and its first derivatives at ``point``, from one first-order
        jet table: ({j: psi_j(point)}, [{j: (d_v psi_j)(point)} for v in the
        cell variables]), nonzeros only.  The weight-0 row is [t^0]
        psi_j(point + t v) = psi_j(point), so the values are exact."""
        n = len(self.zvars)
        jets = TaylorJets(self.space.pairing_psi, self.zvars, point, 1)
        return jets.row((0,) * n), [jets.row(tuple(int(k == i) for k in range(n)))
                                    for i in range(n)]

    def gradients(self, z: Dict, xi: Dict) -> Tuple[List[GaussRational],
                                                     List[GaussRational]]:
        """(d rho / d z_v, d rho / d xi_v) at (z, xi): psi at one point
        paired with the derivative rows at the other, from one first-order
        jet table at each point, which also gives psi there."""
        at_z, d_z = self.first_jets(z)
        at_xi, d_xi = self.first_jets(xi)
        return ([self.pair(row, at_xi) for row in d_z],
                [self.pair(row, at_z) for row in d_xi])


def build_rho(space: Space) -> SegreFamily:
    """The family of ``space`` with its expansion (``z_groups``) built."""
    fam = SegreFamily(space)
    fam.z_groups  # expand now
    return fam


# ---------------------------------------------------------------------------
# on-family exact sampling
# ---------------------------------------------------------------------------

def solve_null_direction(base: Sequence[GaussRational]) -> List[GaussRational]:
    """Solve for xi with 1 + <base, xi> = 0 and sum(xi^2) = 0 on the fixed
    null direction xi_0 = i xi_last, every other xi_j = 0.

    Both defining identities are re-verified exactly before returning; a
    base point on which the hyperplane denominator vanishes raises
    ZeroDivisionError."""
    base = [GaussRational.coerce(b) for b in base]
    i = GaussRational.i()
    den = base[-1] + i * base[0]
    if den.is_zero():
        raise ZeroDivisionError("hyperplane denominator vanishes at base point")
    xin = GaussRational(-1) / den
    xi = [i * xin] + [ZERO] * (len(base) - 2) + [xin]
    total = ONE
    square = ZERO
    for b, x in zip(base, xi):
        total = total + b * x
        square = square + x * x
    if not total.is_zero() or not square.is_zero():
        raise ArithmeticError("null direction identities failed; internal error")
    return xi


def special_point(space: Space, rng) -> Tuple[Dict, Dict]:
    """A random rational z0 and its incidence point xi0, rho(z0, xi0) = 0.

    A slot kind sets xi0[d] = -1/z0[d] at the distinguished slot d; a null
    kind takes the null direction of ``solve_null_direction`` over its
    stored block (``Space.null_block``).  Returns (z0, xi0)."""
    block = space.null_block
    for _ in range(64):
        z0 = random_gauss_point(rng, space.vars)
        xi0 = {v: ZERO for v in space.vars}
        if block is None:
            d = space.distinguished
            if z0[d].is_zero():
                continue
            xi0[d] = GaussRational(-1) / z0[d]
        else:
            try:
                xi0.update(zip(block, solve_null_direction([z0[v] for v in block])))
            except ZeroDivisionError:
                continue
        return z0, xi0
    raise ArithmeticError("could not construct a special point")


def sample_on_family(fam: SegreFamily, rng) -> Tuple[Dict, Dict]:
    """A random exact rational point (z0, xi0) with rho(z0, xi0) = 0: a
    ``special_point`` draw, re-checked exactly on the family."""
    z0, xi0 = special_point(fam.space, rng)
    if not fam.rho_at(z0, xi0).is_zero():
        raise ArithmeticError("special point is not on the family")
    return z0, xi0


def det_model_holds(fam: SegreFamily, z: Dict, xi: Dict) -> bool:
    """Exact check of the determinant model rho(z, xi)^k = det(I + Z Xi^t),
    Z and Xi the cell matrices of z and xi and k the kind's power."""
    space = fam.space
    Z = cell_matrix_point(space, z)
    X = cell_matrix_point(space, xi)
    rows, cols = len(Z), len(Z[0])
    M = [[(ONE if i == j else ZERO)
          + sum((Z[i][k] * X[j][k] for k in range(cols)), ZERO)
          for j in range(rows)] for i in range(rows)]
    rho = fam.rho_at(z, xi)
    power = ONE
    for _ in range(space.kind.det_power):
        power = power * rho
    return (power - det_exact(M)).is_zero()
