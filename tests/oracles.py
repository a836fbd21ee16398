"""Slow reference routes that the fast library paths are tested against.

* ``det_bareiss`` -- fraction-free Bareiss elimination on row-scaled
  Gaussian-integer matrices, where every division is exact in Z[i].
* ``DenseRankTracker`` -- the incremental exact rank on dense rows, each
  scaled and eliminated across its full width: the reference for the
  sparse ``linalg.RankTracker``, which makes the same decisions and stores
  the same echelon rows without their zeros.
* ``evaluate_loop`` -- a polynomial's value as the sum over every term,
  the reference for ``Polynomial.evaluate``, which skips the terms that
  vanish at the point.
* ``evaluate_fraction`` -- the exact value of a ``PolyFraction`` (or of a
  polynomial) at a point, for the fraction routes below.
* ``evaluate_float``, ``evaluate_float_fraction`` and
  ``evaluate_float_map`` -- float values of a polynomial, a fraction and a
  map's components, term by term in Python complex arithmetic: the
  reference for ``floats.BatchEvaluator``, the one float evaluator of the
  package, and for the map checks' compiled values.
* ``derivative_jet_row`` -- jets by iterated symbolic differentiation of
  each component, then exact evaluation at the point.
* ``flattening_jacobian_bordered`` -- the flattening Jacobian as the
  determinant of the gradient pair bordered by -e_k rows, the reference
  for ``rigidity.flattening_jacobian``, which returns the signed 2x2 minor.
* ``compose_full`` -- psi_j o F by simultaneous substitution of every
  variable, identity images included, over one common denominator;
  ``composed_space`` puts psi o F of a polynomial map F in place of a
  space's psi, so the library's jets of that space are those of psi o F.
* ``rho_by_products`` -- the family polynomial expanded in the doubled ring
  as 1 + sum_j psi_j(z) psi_j(xi), each psi_j renamed into it twice
  (``embed``) and the copies multiplied, instead of grouped by z-monomial;
  the helpers below read it as their reference.
* ``xi_gradient_by_evaluate`` -- the conjugate gradient from the jets of
  psi at xi and psi evaluated at z, the reference for ``first_jets`` and
  ``SegreFamily.gradients``, which read psi at both points off the jets'
  weight-0 rows.
* ``rho_at_expanded``, ``xi_gradient_expanded``, ``z_gradient_expanded``
  and ``specialize_expanded`` -- queries of
  the Segre family read off that expansion by ``partial_evaluate``,
  instead of from the psi vector; ``rho_at_float`` is the float sum over
  the psi vector.
* ``partial_evaluate``, ``is_constant`` and ``point_pair`` -- substitution
  into, and the doubled-ring points of, the expanded family polynomial;
  only these routes and the tests use them.
* ``z_part_groups_expanded`` -- the z-monomial groups of the support facts,
  read off the product expansion instead of from the psi vector.
* ``trial_division_loop`` -- the finite-field trial division one candidate
  at a time, with dict-based PolyModP products; ``divide_modp`` is its
  exact division step.
* ``rho_swap_symmetric`` and ``unit_at_origin_expanded`` -- the ``einstein``
  identity checks read off the expanded family polynomial.
* ``dump_json_reference`` -- the report writer as one recursive call and
  one ``isinstance`` ladder per value, the reference for ``cli.dump_json``
  on finite reports.
* ``poly_json_reference`` -- a polynomial's report form, {"vars": [...],
  "terms": [...]} with one dict {"exp": .., "im": .., "re": ..} per term in
  sorted exponent order: the reference for ``cli.terms_json``, the one
  term writer of the ``rho`` and ``describe`` reports, which joins each
  term from pieces written once, and the form ``maps.poly_from_json``
  reads.
* ``rho_report_by_dicts`` -- the family polynomial of the ``rho`` report
  as one dict per term, read off the z-groups, the reference for
  ``cli.cmd_rho``.
* ``FractionPair`` -- the Gaussian-rational scalar as a pair of
  ``Fraction`` parts, the reference for ``hermsym.gauss``.
* ``lambda_determinant`` -- the nondegeneracy determinant of the witness
  search, with every frame field applied symbolically to psi over the
  product expansion (``tangent_apply``) before evaluation.
* ``jet_rank_one_order`` -- the jet rank of one order k: one order-k jet
  table per point, every row of weight <= k offered, maximized over the
  trial points until it reaches N; points drawn as ``Fraction`` pairs.
  The reference for ``rigidity.jet_rank``, which reads every order from
  one table per point and stops at the rank ceiling.
* ``greedy_scan_nested`` -- the witness search's row scan as a loop over
  weights around a loop over the multiindices of each weight, with the
  rank and budget checked in both: the reference for
  ``rigidity._greedy_rows``, one flat scan.
* ``sym_det`` and ``pfaffian`` -- minors by the Leibniz formula and
  Pfaffians by pair partitions or by first-row recursion, each a chain of
  ``Polynomial`` products; ``psi_by_products`` rebuilds the psi vectors of
  the layout kinds from them, the reference for the signed-monomial builder.
* ``parse_terms_by_products`` and ``square_sum_by_products`` -- the
  exceptional cells' signed monomials and squared norms as sums of
  ``Polynomial`` products, one monomial at a time: the reference for
  ``octonion._parse_terms`` and ``octonion._square_sum``, which fill one
  term table.
* ``support_laws_reference`` -- each kind's monomial-support laws with
  the variables named and parsed per kind (``z{i}_{j}`` split back into
  its indices) and each predicate written out in loops: the reference for
  the kinds' ``support_laws``, declared over shared predicates.
* ``slot_solve_sample`` -- a family point of a cell kind drawn with z and
  xi random and the distinguished conjugate slot solved, in which rho is
  linear: the sampler ``segre.sample_on_family`` used for the cell kinds
  before it took every kind's ``special_point``.  The invariance tests of
  ``test_segre.py`` draw their cell-kind points with it, so that every
  row of the matrix acts on both points.
* ``monomial``, ``multiindices_upto``, ``poly_pow``, ``normalize``,
  ``as_fraction``, ``fraction_sum``, ``fractions_equal``,
  ``random_fraction`` and ``random_gauss`` -- polynomial, fraction and
  sampling helpers that only the tests use.
"""

import dataclasses
import itertools
import json
import random

from fractions import Fraction
from functools import lru_cache
from math import gcd

from hermsym.gauss import GaussRational, ONE, ZERO
from hermsym.linalg import RankTracker, det_exact
from hermsym.modp import PolyModP
from hermsym.poly import Polynomial, PolyFraction, TaylorJets, monomials
from hermsym.rigidity import _JET_RANK_TRIALS, truncated_vars
from hermsym.sampling import BOUND, random_gauss_point
from hermsym.segre import conj_name
from hermsym.spaces import (_antisym_entry, _pair_partitions, _perm_sign,
                            _plain_entry, _sym_entry, minor_index_sets)


def _gi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_exact_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    if re % n or im % n:
        raise ArithmeticError("non-exact Gaussian-integer division")
    return (re // n, im // n)


def _integer_row(row):
    """(Gaussian-integer row, scale) with row == int_row / scale."""
    scale = 1
    for x in row:
        for d in (x.re.denominator, x.im.denominator):
            scale = scale // gcd(scale, d) * d
    return [(int(x.re * scale), int(x.im * scale)) for x in row], scale


class DenseRankTracker:
    """Incremental exact rank of dense rows of Gaussian rationals, stored as
    content-reduced Gaussian-integer lists in echelon form, each with its
    first nonzero column as pivot; ``add_row`` returns True when the row
    enlarged the span."""

    def __init__(self):
        self.rows, self.pivots = [], []

    @property
    def rank(self):
        return len(self.rows)

    def add_row(self, row):
        parts = [GaussRational.coerce(x).parts() for x in row]
        scale = 1
        for _, _, d in parts:
            scale = scale // gcd(scale, d) * d
        vec = [(a * (scale // d), b * (scale // d)) for a, b, d in parts]
        for brow, p in zip(self.rows, self.pivots):
            if vec[p] == (0, 0):
                continue
            # vec <- a*vec - b*brow clears column p (a = brow[p], b = vec[p])
            (a0, a1), (b0, b1) = brow[p], vec[p]
            vec = [(a0 * v0 - a1 * v1 - b0 * w0 + b1 * w1,
                    a0 * v1 + a1 * v0 - b0 * w1 - b1 * w0)
                   for (v0, v1), (w0, w1) in zip(vec, brow)]
        pivot = next((j for j, x in enumerate(vec) if x != (0, 0)), None)
        if pivot is None:
            return False
        c = 0
        for a, b in vec:
            c = gcd(c, a, b)
        vec = [(a // c, b // c) for a, b in vec]
        self.rows.append(vec)
        self.pivots.append(pivot)
        return True


def evaluate_loop(poly, point):
    total = ZERO
    for e, c in poly.terms.items():
        for v, k in zip(poly.ring.vars, e):
            for _ in range(k):
                c = c * GaussRational.coerce(point[v])
        total = total + c
    return total


def evaluate_fraction(f, point):
    """f(point) for a ``PolyFraction`` or a ``Polynomial`` f; ZeroDivisionError
    where the denominator vanishes."""
    if isinstance(f, Polynomial):
        return f.evaluate(point)
    d = f.den.evaluate(point)
    if d.is_zero():
        raise ZeroDivisionError("denominator vanishes at evaluation point")
    return f.num.evaluate(point) / d


def evaluate_float(poly, point):
    """poly at a complex point, a dict of values by variable name."""
    vals = [complex(point[v]) for v in poly.ring.vars]
    total = 0j
    for e, c in poly.terms.items():
        t = complex(c)
        for x, k in zip(vals, e):
            if k:
                t *= x ** k
        total += t
    return total


def evaluate_float_fraction(f, point):
    d = evaluate_float(f.den, point)
    if d == 0:
        raise ZeroDivisionError("denominator vanishes at evaluation point")
    return evaluate_float(f.num, point) / d


def evaluate_float_map(F, point):
    """F's components at a complex point given as a sequence."""
    named = {v: complex(point[i]) for i, v in enumerate(F.ring.vars)}
    return [evaluate_float_fraction(f, named) for f in F.components]


def det_bareiss(matrix):
    n = len(matrix)
    if n == 0:
        return GaussRational(1)
    if any(len(r) != n for r in matrix):
        raise ValueError("determinant of a non-square matrix")
    rows, denom = [], 1
    for r in matrix:
        ir, s = _integer_row([GaussRational.coerce(x) for x in r])
        rows.append(ir)
        denom *= s
    sign, prev = 1, (1, 0)
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if rows[i][k] != (0, 0)), None)
        if piv is None:
            return GaussRational(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                a, b = _gi_mul(pk, rows[i][j]), _gi_mul(rik, rows[k][j])
                rows[i][j] = _gi_exact_div((a[0] - b[0], a[1] - b[1]), prev)
            rows[i][k] = (0, 0)
        prev = pk
    d = rows[n - 1][n - 1]
    return GaussRational(Fraction(sign * d[0], denom), Fraction(sign * d[1], denom))


def _apply_field(obj, field):
    """One constant-coefficient field (a variable name or a direction dict)
    applied to a polynomial or fraction."""
    if isinstance(field, str):
        return obj.derivative(field)
    out = None
    for var, coeff in field.items():
        d = obj.derivative(var)
        term = (d.scale(coeff) if isinstance(d, Polynomial)
                else PolyFraction(d.num.scale(coeff), d.den))
        out = term if out is None else (
            out + term if isinstance(term, Polynomial) else fraction_sum(out, term))
    return out


def derivative_jet_row(system, fields, point, beta):
    """[L^beta f(point) for f in system], differentiating symbolically."""
    row = []
    for f in system:
        for k, order in enumerate(beta):
            for _ in range(order):
                f = _apply_field(f, fields[k])
        row.append(evaluate_fraction(f, point))
    return row


def flattening_jacobian_bordered(rows):
    """(det of the gradient pair bordered by the rows -e_k, k outside the
    first slot pair (a, b) with a nonzero 2x2 minor, (a, b)); None when
    every minor vanishes."""
    r0, r1 = rows
    n = len(r0)
    for a in range(n):
        for b in range(a + 1, n):
            if (r0[a] * r1[b] - r0[b] * r1[a]).is_zero():
                continue
            mat = [list(r0), list(r1)]
            for k in range(n):
                if k not in (a, b):
                    mat.append([GaussRational(-1) if i == k else ZERO
                                for i in range(n)])
            return det_exact(mat), (a, b)
    return None


def compose_full(poly, images):
    ring = poly.ring
    one = ring.one()
    total, den = ring.zero(), one
    maxk = [max((e[i] for e in poly.terms), default=0) for i in range(len(ring.vars))]
    for i, v in enumerate(ring.vars):
        img = images.get(v, PolyFraction(ring.var(v), one))
        den = den * poly_pow(img.den, maxk[i])
    for e, c in poly.terms.items():
        t = ring.const(c)
        for i, v in enumerate(ring.vars):
            img = images.get(v, PolyFraction(ring.var(v), one))
            t = t * poly_pow(img.num, e[i]) * poly_pow(img.den, maxk[i] - e[i])
        total = total + t
    return PolyFraction(total, den)


def composed_space(space, images):
    """``space`` with psi replaced by psi o F, F the polynomial map sending
    each variable named in ``images`` to its polynomial image and fixing
    the others: the jets of the returned space are those of psi o F."""
    images = {v: as_fraction(p) for v, p in images.items()}
    composed = [compose_full(p, images) for p in space.psi]
    assert all(f.den == space.ring.one() for f in composed)
    return dataclasses.replace(space, psi=tuple(f.num for f in composed))


def embed(poly, ring, var_map):
    """Rename the variables of ``poly`` into a (possibly larger) ring."""
    slots = [ring.index(var_map[v]) for v in poly.ring.vars]
    out = {}
    for e, c in poly.terms.items():
        ne = [0] * len(ring.vars)
        for k, slot in zip(e, slots):
            ne[slot] += k
        out[tuple(ne)] = c
    return Polynomial(ring, out)


@lru_cache(maxsize=8)
def rho_by_products(fam):
    """1 + sum_j psi_j(z) psi_j(xi) in the doubled ring of ``fam``, each
    term a product of two renamed copies of psi_j."""
    zmap = {v: v for v in fam.zvars}
    cmap = {v: conj_name(v) for v in fam.zvars}
    rho = fam.ring.one()
    for p in fam.space.pairing_psi:
        rho = rho + embed(p, fam.ring, zmap) * embed(p, fam.ring, cmap)
    return rho


def partial_evaluate(poly, point):
    """Substitute exact values for a subset of the variables of ``poly``."""
    idx = {poly.ring.index(v): GaussRational.coerce(c) for v, c in point.items()}
    out = {}
    for e, c in poly.terms.items():
        ne = list(e)
        for i, val in idx.items():
            for _ in range(e[i]):
                c = c * val
            ne[i] = 0
        ne = tuple(ne)
        out[ne] = out.get(ne, GaussRational(0)) + c
    return Polynomial(poly.ring, out)


def is_constant(poly):
    return all(sum(e) == 0 for e in poly.terms)


def point_pair(fam, z, xi):
    """The doubled-ring point (z, xi) of the expanded family polynomial."""
    out = {v: GaussRational.coerce(z[v]) for v in fam.zvars}
    out.update(_conj_assign(fam, xi))
    return out


def _conj_assign(fam, xi):
    return {conj_name(v): GaussRational.coerce(xi[v]) for v in fam.zvars}


def rho_at_expanded(fam, z, xi):
    restricted = partial_evaluate(rho_by_products(fam), _conj_assign(fam, xi))
    return restricted.evaluate(point_pair(fam, z, xi))


def xi_gradient_expanded(fam, z, xi):
    assign, point = _conj_assign(fam, xi), point_pair(fam, z, xi)
    rho = rho_by_products(fam)
    return [partial_evaluate(rho.derivative(conj_name(v)), assign).evaluate(point)
            for v in fam.zvars]


def xi_gradient_by_evaluate(fam, z, xi):
    """d rho / d xi_v at (z, xi) from the first-order jets of psi at xi and
    psi evaluated term by term at z: the reference for the gradients that
    read psi at both points off the weight-0 rows of their jet tables."""
    psi = fam.space.pairing_psi
    n = len(fam.zvars)
    jets = TaylorJets(psi, fam.zvars, xi, 1)
    rows = [jets.row(tuple(int(k == i) for k in range(n))) for i in range(n)]
    psi_z = {j: psi[j].evaluate(z) for j in set().union(*rows)}
    return [sum((psi_z[j] * d for j, d in row.items()), ZERO) for row in rows]


def z_gradient_expanded(fam, z, xi):
    point = point_pair(fam, z, xi)
    return [rho_by_products(fam).derivative(v).evaluate(point) for v in fam.zvars]


def specialize_expanded(fam, xi):
    """rho(., xi) moved into the cell ring of the space."""
    width = len(fam.zvars)
    restricted = partial_evaluate(rho_by_products(fam), _conj_assign(fam, xi))
    terms = {}
    for e, c in restricted.terms.items():
        assert not any(e[width:]), "conjugate slot survived specialization"
        terms[e[:width]] = c
    return Polynomial(fam.space.ring, terms)


def rho_at_float(fam, z, xi):
    """rho(z, xi) in floats, summed over the psi vector."""
    return 1 + sum((evaluate_float(p, z) * evaluate_float(p, xi)
                    for p in fam.space.pairing_psi), 0j)


def z_part_groups_expanded(fam):
    """z-exponent tuple -> {xi-exponent tuple: coefficient} over the
    expanded doubled-ring rho."""
    nz = len(fam.space.vars)
    groups = {}
    for e, c in rho_by_products(fam).terms.items():
        groups.setdefault(e[:nz], {})[e[nz:]] = c
    return groups


def divide_modp(target, cand):
    """target / cand in F_p[x] when cand, with constant term 1, divides
    target exactly; otherwise None."""
    p = target.p

    def homogeneous_part(poly, d):
        return {e: c for e, c in poly.terms.items() if sum(e) == d}

    cand_parts = [homogeneous_part(cand, j) for j in range(cand.degree() + 1)]
    # graded quotient: Q_k = R_k - sum_j (P_j * Q_{k-j})
    q_parts = [{(0,) * len(target.vars): 1}]
    for k in range(1, target.degree() + 1):
        acc = homogeneous_part(target, k)
        for j in range(1, min(k, len(cand_parts) - 1) + 1):
            for e1, c1 in cand_parts[j].items():
                for e2, c2 in q_parts[k - j].items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    acc[e] = (acc.get(e, 0) - c1 * c2) % p
        q_parts.append(acc)
    quotient = PolyModP(target.vars, p, {e: c for q in q_parts for e, c in q.items()})
    return quotient if cand * quotient == target else None


def trial_division_loop(target, d, budget):
    """(factor, tried) of ``modp.trial_division_modp``, one candidate at
    a time."""
    p = target.p
    names = target.vars
    nvars = len(names)
    monos = multiindices_upto(nvars, d)[1:]
    count = p ** len(monos)
    if count > budget:
        raise OverflowError(count)
    tried = 0
    for coeffs in itertools.product(range(p), repeat=len(monos)):
        if not any(coeffs):
            continue
        tried += 1
        cand = PolyModP(names, p, {(0,) * nvars: 1, **dict(zip(monos, coeffs))})
        quotient = divide_modp(target, cand)
        if quotient is not None and quotient.degree() >= 1:
            return cand, tried
    return None, tried


def rho_swap_symmetric(fam):
    """Exact z <-> xi swap symmetry of the expanded family polynomial."""
    perm = {v: conj_name(v) for v in fam.zvars}
    perm.update({conj_name(v): v for v in fam.zvars})
    rho = rho_by_products(fam)
    return embed(rho, fam.ring, perm) == rho


def unit_at_origin_expanded(fam):
    """Whether rho(0, xi) is the constant 1, by ``partial_evaluate``."""
    rest = partial_evaluate(rho_by_products(fam),
                            {v: GaussRational(0) for v in fam.zvars})
    return is_constant(rest) and rest.constant_term() == GaussRational(1)


def parse_terms_by_products(ring, text):
    """'+a*b-c*d' as a sum of products of ring constants and variables."""
    out = ring.zero()
    text = text.replace("-", "+-")
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        term = ring.const(sign)
        for name in chunk.split("*"):
            term = term * ring.var(name)
        out = out + term
    return out


def square_sum_by_products(ring, names):
    out = ring.zero()
    for n in names:
        v = ring.var(n)
        out = out + v * v
    return out


def dump_json_reference(obj) -> str:
    """Sorted keys, floats at 17 significant digits, one call per value."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dump_json_reference(v)}"
                         for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dump_json_reference(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _gauss_json_reference(c):
    return {"re": str(c.re), "im": str(c.im)}


def poly_json_reference(p):
    """{"vars": [names], "terms": [{"exp": [k, ...], "re": .., "im": ..}]},
    the terms in sorted exponent order."""
    terms = [{"exp": list(e), **_gauss_json_reference(p.terms[e])}
             for e in sorted(p.terms)]
    return {"vars": list(p.ring.vars), "terms": terms}


def rho_report_by_dicts(fam):
    """The ``rho`` entry of the ``rho`` report: a term dict {"exp": ze + xe,
    "im": .., "re": ..} per term, in sorted exponent order."""
    terms = [{"exp": ze + xe, **_gauss_json_reference(c)}
             for ze, group in sorted(fam.z_groups.items())
             for xe, c in sorted(group.items())]
    return {"vars": list(fam.ring.vars), "terms": terms}


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class FractionPair:
    """``re + im*i`` with exact rational ``re``, ``im``: the scalar type as
    two ``Fraction`` parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPair is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "FractionPair":
        if isinstance(x, FractionPair):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionPair(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to FractionPair")

    @staticmethod
    def i() -> "FractionPair":
        return FractionPair(0, 1)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = FractionPair.coerce(other)
        return FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = FractionPair.coerce(other)
        return FractionPair(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return FractionPair.coerce(other) - self

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __mul__(self, other):
        other = FractionPair.coerce(other)
        return FractionPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FractionPair.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero FractionPair")
        return FractionPair(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return FractionPair.coerce(other) / self

    # -- structure -----------------------------------------------------

    def conj(self) -> "FractionPair":
        return FractionPair(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPair(other)
        if not isinstance(other, FractionPair):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}*i)"


class TangencyError(ValueError):
    pass


class LambdaUndefinedError(ArithmeticError):
    pass


def _segre_field_apply(fam, var, expr):
    dist = fam.space.distinguished
    rho = rho_by_products(fam)
    rho_i = rho.derivative(var)
    rho_d = rho.derivative(dist)
    if rho_d.is_zero():
        raise TangencyError("distinguished derivative of the family vanishes identically")
    d_i = expr.derivative(var)
    d_d = expr.derivative(dist)
    # d_i and d_d share the denominator expr.den^2 by construction, so the
    # combination d/dz_i - (rho_i / rho_d) d/dz_d stays on one denominator
    num = d_i.num * rho_d - rho_i * d_d.num
    den = d_i.den * rho_d
    return PolyFraction(num, den)


def tangent_apply(frame, fam, expr, beta):
    """Iterated application of the fields of the frame ``(kind, fields)``
    per the multiindex beta.

    Composition applies later-listed fields first (the product convention
    L_1^{k_1} L_2^{k_2} ... acting on the right)."""
    kind, fields = frame
    out = expr
    for idx, k in reversed(list(enumerate(beta))):
        for _ in range(k):
            if kind == "segre":
                out = _segre_field_apply(fam, fields[idx], out)
            else:
                acc = None
                for var, coeff in fields[idx].items():
                    d = out.derivative(var)
                    term = PolyFraction(d.num.scale(GaussRational.coerce(coeff)), d.den)
                    acc = term if acc is None else fraction_sum(acc, term)
                out = acc
    return out


def lambda_determinant(space, fam, betas, z0, xi0, frame=None):
    """Exact determinant of [L^beta_l psi_j] at a family point, the frame
    fields applied symbolically over the expanded family polynomial; the
    witness search reads the same value off Taylor jets.  ``frame`` is a
    ``(kind, fields)`` pair, by default the Segre-tangent fields of the
    truncated variables."""
    if frame is None:
        frame = ("segre", truncated_vars(space))
    kind, fields = frame
    if not fam.rho_at(z0, xi0).is_zero():
        raise ValueError("point is not on the Segre family")
    point = point_pair(fam, z0, xi0)
    if kind == "segre":
        rho_d = rho_by_products(fam).derivative(space.distinguished)
        if partial_evaluate(rho_d, {v: point[v] for v in fam.zvars}).is_zero():
            raise LambdaUndefinedError(
                "Lambda undefined over this Segre variety: distinguished "
                "derivative vanishes identically on it")
        if rho_d.evaluate(point).is_zero():
            raise LambdaUndefinedError("Lambda undefined at point")
    if betas[0] != (0,) * len(fields):
        raise ValueError("first multiindex must be zero")
    if len(betas) != len(space.psi):
        raise ValueError("need exactly N multiindices")
    zmap = {v: v for v in space.vars}
    lifted = [as_fraction(embed(p, fam.ring, zmap)) for p in space.psi]
    return det_exact([[evaluate_fraction(tangent_apply(frame, fam, f, beta), point)
                       for f in lifted] for beta in betas])


def _small_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(10, BOUND))


def jet_rank_one_order(space, k, seed):
    """Exact rank of the order-<=k truncated-variable jets of psi,
    maximized over _JET_RANK_TRIALS points a/p + (b/q) i (|a|, |b| <= 9,
    10 <= p, q <= BOUND)."""
    rng = random.Random(seed)
    fields = list(truncated_vars(space))
    best = 0
    for _ in range(_JET_RANK_TRIALS):
        point = {v: GaussRational(_small_fraction(rng), _small_fraction(rng))
                 for v in space.vars}
        jets = TaylorJets(space.psi, fields, point, k)
        tracker = RankTracker()
        for beta in multiindices_upto(len(fields), k):
            tracker.add_row(jets.row(beta))
        best = max(best, tracker.rank)
        if best == space.N:
            break
    return best


def greedy_scan_nested(jets, width, top, N, budget):
    """(chosen, examined, exhausted) of the greedy row scan over the
    multiindices of weight <= ``top``, weight by weight."""
    tracker = RankTracker()
    chosen = []
    examined = 0
    exhausted = False
    for w in range(top + 1):
        if tracker.rank == N:
            break
        if examined >= budget:
            exhausted = True
            break
        for beta in monomials(width, w):
            if examined >= budget:
                exhausted = True
                break
            examined += 1
            if tracker.add_row(jets.row(beta)):
                chosen.append(beta)
                if tracker.rank == N:
                    break
    return chosen, examined, exhausted


# ---------------------------------------------------------------------------
# minors and Pfaffians as chains of polynomial products
# ---------------------------------------------------------------------------

def sym_det(rows):
    """Leibniz determinant of a matrix of polynomials."""
    k = len(rows)
    ring = rows[0][0].ring
    out = ring.zero()
    for perm in itertools.permutations(range(k)):
        term = ring.const(_perm_sign(perm))
        for i in range(k):
            term = term * rows[i][perm[i]]
        out = out + term
    return out


def pfaffian(matrix, algo="partition"):
    """Pfaffian of an antisymmetric matrix of polynomials: ``partition``
    sums signed pair partitions, ``recursive`` expands along the first row.
    Odd order gives 0."""
    m = len(matrix)
    if m == 0:
        raise ValueError("empty matrix")
    for i in range(m):
        for j in range(m):
            if not (matrix[i][j] + matrix[j][i]).is_zero():
                raise ValueError("matrix is not antisymmetric")
    ring = matrix[0][0].ring
    if m % 2 == 1:
        return ring.zero()
    if algo == "recursive":
        return _pf_recursive(matrix, list(range(m)), ring)
    out = ring.zero()
    for pairs, sign in _pair_partitions(tuple(range(m))):
        term = ring.const(sign)
        for i, j in pairs:
            term = term * matrix[i][j]
        out = out + term
    return out


def _pf_recursive(matrix, idx, ring):
    if not idx:
        return ring.one()
    out = ring.zero()
    for pos in range(1, len(idx)):
        rest = idx[1:pos] + idx[pos + 1:]
        term = matrix[idx[0]][idx[pos]] * _pf_recursive(matrix, rest, ring)
        out = out + (term if pos % 2 else -term)
    return out


def psi_by_products(space):
    """(psi, pairing_psi) of a typeI, typeII or typeIII space rebuilt from
    polynomial products: minors of its symbolic cell matrix, Pfaffians of
    its principal blocks (by recursion above order 8), and for typeIII the
    per-degree greedy over all minors."""
    params = space.desc.params
    ring = space.ring
    entry = {"typeI": _plain_entry, "typeII": _antisym_entry,
             "typeIII": _sym_entry}[space.desc.kind]

    def value(i, j):
        e = entry(i, j)
        return ring.zero() if e is None else ring.var(e[0]).scale(e[1])
    M = [[value(i, j) for j in range(1, params[-1] + 1)]
         for i in range(1, params[0] + 1)]
    if space.desc.kind == "typeII":
        n = params[0]
        psi = [pfaffian([[M[i - 1][j - 1] for j in sigma] for i in sigma],
                        "partition" if k <= 8 else "recursive")
               for k in range(2, n + 1, 2)
               for sigma in itertools.combinations(range(1, n + 1), k)]
        return psi, psi
    minors = [(k, sym_det([[M[i - 1][j - 1] for j in cols] for i in rows]))
              for k, rows, cols in minor_index_sets(params[0], params[-1])]
    raw = [m for _, m in minors]
    if space.desc.kind == "typeI":
        return raw, raw
    psi = []
    for k in range(1, params[0] + 1):
        group = [m for d, m in minors if d == k]
        monos = sorted({e for g in group for e in g.terms})
        tracker = DenseRankTracker()
        psi.extend(g for g in group if tracker.add_row([g.terms.get(e, ZERO) for e in monos]))
    return psi, raw


# ---------------------------------------------------------------------------
# polynomial, fraction and sampling helpers of the tests
# ---------------------------------------------------------------------------

def monomial(ring, exp, coeff=ONE):
    """coeff times the monomial of exponent tuple ``exp``."""
    if len(exp) != len(ring.vars):
        raise ValueError("exponent length does not match ring")
    return Polynomial(ring, {tuple(exp): GaussRational.coerce(coeff)})


def multiindices_upto(width, max_weight):
    """All exponent tuples of total degree <= ``max_weight``, by degree and
    then lexicographically."""
    out = []
    for w in range(max_weight + 1):
        out.extend(monomials(width, w))
    return out


def poly_pow(p, k):
    out = p.ring.one()
    for _ in range(k):
        out = out * p
    return out


def normalize(f):
    """Strip a common monomial factor and scale the denominator's leading
    coefficient to 1 (no multivariate gcd)."""
    ring = f.num.ring
    if f.num.is_zero():
        return PolyFraction(ring.zero(), ring.one())
    common = [min(min(e[i] for e in p.terms) for p in (f.num, f.den))
              for i in range(len(ring.vars))]

    def strip(p):
        return Polynomial(p.ring, {tuple(k - m for k, m in zip(e, common)): c
                                   for e, c in p.terms.items()})
    num, den = strip(f.num), strip(f.den)
    lead = den.terms[max(den.terms)]
    return PolyFraction(num.scale(ONE / lead), den.scale(ONE / lead))


def as_fraction(p):
    """The polynomial ``p`` as the fraction p / 1."""
    return PolyFraction(p, p.ring.one())


def fraction_sum(f, g):
    """f + g over the denominator f.den * g.den, unreduced."""
    return PolyFraction(f.num * g.den + g.num * f.den, f.den * g.den)


def fractions_equal(f, g):
    """Equality of two fractions by cross-multiplication."""
    return (f.num * g.den - g.num * f.den).is_zero()


def random_fraction(rng, bound=BOUND):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_gauss(rng, bound=BOUND):
    """A Gaussian rational with full-size parts (numerators and
    denominators up to ``bound``)."""
    return GaussRational(random_fraction(rng, bound), random_fraction(rng, bound))


# ---------------------------------------------------------------------------
# the support laws and the slot-solve sampler, as each kind stated them
# ---------------------------------------------------------------------------

def _pair_index(space):
    out = {}
    for v in space.vars:
        i, j = v[1:].split("_")
        out[v] = (int(i), int(j))
    return out


def _xi_neg(a):
    return {e: -c for e, c in a.items()}


def _grassmann_laws(space, groups):
    pairs = _pair_index(space)
    ok_sq = ok_row = ok_col = True
    for ze in groups:
        used = [pairs[space.vars[i]] for i, k in enumerate(ze) if k]
        if any(k > 1 for k in ze):
            ok_sq = False
        rows = [ij[0] for ij in used]
        cols = [ij[1] for ij in used]
        if len(rows) != len(set(rows)):
            ok_row = False
        if len(cols) != len(set(cols)):
            ok_col = False
    return {"no_squared_entry": ok_sq, "no_repeated_row": ok_row,
            "no_repeated_column": ok_col}


def _orthogonal_laws(space, groups):
    pairs = _pair_index(space)
    ok_sq = ok_overlap = True
    for ze in groups:
        used = []
        for i, k in enumerate(ze):
            if k > 1:
                ok_sq = False
            if k:
                used.append(set(pairs[space.vars[i]]))
        for a in range(len(used)):
            for b in range(a + 1, len(used)):
                if used[a] & used[b]:
                    ok_overlap = False
    return {"no_squared_entry": ok_sq, "no_overlapping_index_pairs": ok_overlap}


def _symplectic_laws(space, groups):
    n = space.desc.params[0]
    vindex = {v: i for i, v in enumerate(space.vars)}

    def vname(i, j):
        return f"z{min(i, j)}_{max(i, j)}"

    def add_var(ze, i, j, k=1):
        ze = list(ze)
        ze[vindex[vname(i, j)]] += k
        return tuple(ze)

    def get(ze):
        return groups.get(tuple(ze), {})

    def attach(q, pair, k=1):
        return add_var(add_var(q, *pair[0], k), *pair[1], k)

    def paired(p_pair, t_pair, marker, factor):
        seen = set()
        for ze in groups:
            for pair in (p_pair, t_pair):
                q = attach(ze, pair, -1)
                if min(q) < 0 or q in seen:
                    continue
                seen.add(q)
                cp = get(attach(q, p_pair))
                if q[vindex[vname(*marker)]]:
                    cp = {e: c * factor for e, c in cp.items()}
                if get(attach(q, t_pair)) != _xi_neg(cp):
                    return False
        return True

    half, two = GaussRational(Fraction(1, 2)), GaussRational(2)
    ok_a = all(paired(((i, n), (j, n)), ((i, j), (n, n)), (i, j), half)
               for i in range(1, n) for j in range(1, n))
    ok_b = all(paired(((j, n), (n - 1, n - 1)), ((j, n - 1), (n - 1, n)),
                      (j, n), two) for j in range(1, n - 1))
    ok_c = all(paired(((i, n - 1), (i, n)), ((i, i), (n - 1, n)), (n - 1, n),
                      half) for i in range(1, n - 1))
    ok_d = True
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if i == j:
                continue
            for ze in groups:
                if not (ze[vindex[vname(i, j)]] and ze[vindex[vname(n - 1, n)]]):
                    continue
                q = add_var(add_var(ze, i, j, -1), n - 1, n, -1)
                P1 = add_var(add_var(q, i, n - 1), j, n)
                P2 = add_var(add_var(q, i, n), j, n - 1)
                if not get(P1) and not get(P2):
                    ok_d = False
    return {"pairing_law_corner": ok_a, "pairing_law_row": ok_b,
            "pairing_law_diag": ok_c, "pairing_law_mixed": ok_d}


def _quadric_laws(space, groups):
    vindex = {v: i for i, v in enumerate(space.vars)}
    n = space.n
    diag = None
    ok_diag = ok_cross = True
    for i in range(1, n + 1):
        ze = [0] * n
        ze[vindex[f"z{i}"]] = 2
        cur = groups.get(tuple(ze), {})
        if diag is None:
            diag = cur
        elif diag != cur:
            ok_diag = False
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ze = [0] * n
            ze[vindex[f"z{i}"]] = 1
            ze[vindex[f"z{j}"]] = 1
            if groups.get(tuple(ze), {}):
                ok_cross = False
    return {"square_coefficients_equal": ok_diag, "no_mixed_quadratics": ok_cross}


def _cayley_plane_laws(space, groups):
    vindex = {v: i for i, v in enumerate(space.vars)}
    nvars = len(space.vars)

    def ze_of(*items):
        ze = [0] * nvars
        for name, k in items:
            ze[vindex[name]] += k
        return tuple(ze)
    okx = oky = True
    for i in range(8):
        for j in range(i + 1, 8):
            if groups.get(ze_of((f"x{i}", 1), (f"x{j}", 1)), {}):
                okx = False
            if groups.get(ze_of((f"y{i}", 1), (f"y{j}", 1)), {}):
                oky = False
    bx = [groups.get(ze_of((f"x{i}", 2)), {}) for i in range(8)]
    by = [groups.get(ze_of((f"y{i}", 2)), {}) for i in range(8)]
    ok_pair = True
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            a = groups.get(ze_of((f"x{i}", 1), (f"y{j}", 1)), {})
            b = groups.get(ze_of((f"x{j}", 1), (f"y{i}", 1)), {})
            if a != _xi_neg(b):
                ok_pair = False
    return {"no_x_cross_terms": okx, "no_y_cross_terms": oky,
            "x_square_coefficients_equal": all(bx[0] == b for b in bx),
            "y_square_coefficients_equal": all(by[0] == b for b in by),
            "xy_antisymmetric_pairing": ok_pair}


def _freudenthal_laws(space, groups):
    ok_xsq = True
    div_x1x2 = set()
    ok_x3t = ok_x3w = True
    div_x3y0 = set()
    div_t0w0 = set()
    for ze in groups:
        exp = {space.vars[i]: k for i, k in enumerate(ze) if k}
        if any(exp.get(f"x{i}", 0) > 1 for i in (1, 2, 3)):
            ok_xsq = False
        if exp.get("x1") and exp.get("x2"):
            div_x1x2.add(tuple(sorted(exp.items())))
        if exp.get("x3"):
            if any(exp.get(f"t{i}") for i in range(8)):
                ok_x3t = False
            if any(exp.get(f"w{i}") for i in range(8)):
                ok_x3w = False
        if exp.get("x3") and exp.get("y0"):
            div_x3y0.add(tuple(sorted(exp.items())))
        if exp.get("t0") and exp.get("w0"):
            div_t0w0.add(tuple(sorted(exp.items())))
    return {
        "no_squared_diagonal": ok_xsq,
        "x1x2_multiples": div_x1x2 <= {
            (("x1", 1), ("x2", 1)), (("x1", 1), ("x2", 1), ("x3", 1))},
        "no_x3_t_terms": ok_x3t,
        "no_x3_w_terms": ok_x3w,
        "x3y0_multiples": div_x3y0 <= {
            (("x3", 1), ("y0", 1)), (("x3", 1), ("y0", 2))},
        "t0w0_multiples": div_t0w0 <= {
            (("t0", 1), ("w0", 1)), (("t0", 1), ("w0", 1), ("y0", 1))},
    }


_REFERENCE_LAWS = {"typeI": _grassmann_laws, "typeII": _orthogonal_laws,
                   "typeIII": _symplectic_laws, "typeIV": _quadric_laws,
                   "e16": _cayley_plane_laws, "e27": _freudenthal_laws}


def support_laws_reference(space, groups):
    """The support facts of the space's kind on the z-groups."""
    return _REFERENCE_LAWS[space.desc.kind](space, groups)


def slot_solve_sample(fam, rng):
    """A family point (z, xi) of a cell kind: z and xi drawn at random, then
    the distinguished conjugate slot solved, rho being linear in it."""
    space = fam.space
    dist = space.distinguished
    for _ in range(64):
        z = random_gauss_point(rng, space.vars)
        xi = random_gauss_point(rng, space.vars)
        at0, at1 = dict(xi), dict(xi)
        at0[dist], at1[dist] = ZERO, ONE
        B = fam.rho_at(z, at0)
        A = fam.rho_at(z, at1) - B
        if A.is_zero():
            continue
        xi[dist] = -(B / A)
        assert fam.rho_at(z, xi).is_zero(), "distinguished slot not linear"
        return z, xi
    raise ArithmeticError("could not sample a family point (degenerate draws)")
