"""Property tests: each fast exact path against its slow reference route,
with exact equality (see ``oracles.py``); the one float route, the psi sum
``rho_at_float``, is held to a relative 1e-9."""

import dataclasses
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, inf, lcm, nan, prod

import numpy as np
import pytest
from hypothesis import (Phase, assume, example, given, settings,
                        strategies as st)

from hermsym.acceptance import regular_locus_nonempty, unit_at_origin
from hermsym.cli import (Written, build_parser, cmd_rho, dump_json, main,
                         print_table)
from hermsym import gauss as gauss_module, poly as poly_module
from hermsym.gauss import GaussRational as G, ZERO
from hermsym.linalg import RankTracker, _scale_row, det_exact
from hermsym.modp import PolyModP, _GradedProducts, trial_division_modp
from hermsym.poly import Polynomial, PolyRing, monomials
from hermsym.rigidity import (TaylorJets, _greedy_rows, _pair_rank,
                              default_order_bound, flattening_jacobian,
                              irreducibility_oracle,
                              transversality_rank, transversality_recipe,
                              witness_frame)
from hermsym.sampling import BOUND, random_small_gauss, rng_from_seed
from hermsym.segre import SegreFamily, sample_on_family, special_point
from hermsym.spaces import build_space, minor_index_sets
from oracles import (DenseRankTracker, FractionPair, _integer_row,
                     composed_space,
                     derivative_jet_row, det_bareiss, dump_json_reference,
                     flattening_jacobian_bordered,
                     evaluate_loop, greedy_scan_nested, monomials_sorted,
                     multiindices_upto,
                     poly_json_reference, psi_by_products,
                     rho_at_float, rho_by_products, rho_flattened,
                     rho_report_by_dicts,
                     rho_swap_symmetric,
                     unit_at_origin_expanded,
                     rho_at_expanded, specialize_expanded,
                     support_laws_reference, taylor_table_by_series,
                     trial_division_loop,
                     xi_gradient_by_evaluate, xi_gradient_expanded,
                     z_gradient_expanded,
                     z_part_groups_expanded)

RING = PolyRing(("x", "y", "z"))
BOUNDED = settings(max_examples=40, deadline=None, derandomize=True)

gauss = st.builds(lambda a, b, d: G(Fraction(a, d), Fraction(b, d)),
                  st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3))
polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), gauss,
                        max_size=5).map(lambda t: Polynomial(RING, t))
entries = st.one_of(st.just(G(0)), gauss)      # sparse, as witness rows are
points = st.fixed_dictionaries({v: gauss for v in RING.vars})
# coordinate fields (a subset of the variables) or direction dicts
fields = st.one_of(
    st.lists(st.sampled_from(RING.vars), min_size=1, max_size=3, unique=True),
    st.lists(st.dictionaries(st.sampled_from(RING.vars), gauss, min_size=1),
             min_size=1, max_size=2))


def _check_jets(psi, flds, point, top):
    """Jets of psi against its symbolic derivatives."""
    jets = TaylorJets(psi, flds, point, top)
    for beta in multiindices_upto(len(flds), top):
        scale = G(prod(factorial(b) for b in beta))
        row = jets.row(beta)
        assert all(row.values())               # a sparse row: nonzeros only
        assert [row.get(j, ZERO) * scale for j in range(len(psi))] == \
            derivative_jet_row(psi, flds, point, beta)


@BOUNDED
@given(st.lists(polys, min_size=1, max_size=3), fields, points)
def test_taylor_jets_match_derivatives_on_polynomials(system, flds, point):
    _check_jets(system, flds, point, 3)


# points with zero coordinates, where the shift skips the terms of psi that
# cannot reach weight ``top``
zero_points = st.fixed_dictionaries({v: st.one_of(st.just(G(0)), gauss)
                                     for v in RING.vars})


@BOUNDED
@given(st.lists(polys, min_size=1, max_size=3), fields, zero_points,
       st.integers(1, 3))
def test_taylor_jets_skip_exact_at_zero_coordinates(system, flds, point, top):
    _check_jets(system, flds, point, top)


# denominators 1..9, so that the lcm's of the integer kernel differ per
# component and per variable
wide_gauss = st.builds(lambda a, b, p, q: G(Fraction(a, p), Fraction(b, q)),
                       st.integers(-5, 5), st.integers(-5, 5),
                       st.integers(1, 9), st.integers(1, 9))
wide_polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), wide_gauss,
                             max_size=5).map(lambda t: Polynomial(RING, t))
wide_fields = st.one_of(
    st.lists(st.sampled_from(RING.vars), min_size=1, max_size=3, unique=True),
    st.lists(st.dictionaries(st.sampled_from(RING.vars), wide_gauss,
                             min_size=1), min_size=1, max_size=3))
wide_points = st.fixed_dictionaries({v: st.one_of(st.just(G(0)), wide_gauss)
                                     for v in RING.vars})


def _poly(terms):
    return Polynomial(RING, {e: G(c) for e, c in terms.items()})


X3 = _poly({(3, 0, 0): 1})                          # degree 3 = digit cap
XY2 = _poly({(1, 2, 0): Fraction(2, 3), (0, 0, 1): Fraction(-1, 5)})
ZERO_POLY = _poly({})
Q_POINT = {"x": G(Fraction(1, 2), Fraction(-1, 3)), "y": G(Fraction(3, 7)),
           "z": G(0, Fraction(1, 4))}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(wide_polys, min_size=1, max_size=3), wide_fields, wide_points,
       st.integers(0, 6))
# the field exponent at the digit's cap min(deg, top) = 3 = 2^2 - 1, next to
# a second field's digit, and below and above it
@example([X3, XY2], ["x", "y"], Q_POINT, 3)
@example([X3, XY2], ["x", "y"], Q_POINT, 2)
@example([X3, XY2], ["y", "x"], Q_POINT, 7)
# dict fields sharing x and z, with x = 0 at the point
@example([XY2, X3], [{"x": G(1), "z": G(Fraction(2, 5))},
                     {"x": G(0, Fraction(1, 3)), "y": G(-2)}],
         {**Q_POINT, "x": G(0)}, 3)
# zero coordinates with and without a field, and an empty component
@example([ZERO_POLY, XY2, X3], ["y"], {"x": G(0), "y": G(1), "z": G(0)}, 2)
@example([ZERO_POLY, XY2], ["x", "z"], {"x": G(0), "y": G(0), "z": G(0)}, 1)
@example([ZERO_POLY], ["x"], Q_POINT, 0)
def test_integer_jets_match_series_route(system, flds, point, top):
    """The Gaussian-integer kernel on packed keys holds the table of the
    truncated series over Q(i), entry for entry, each row in component
    order."""
    table = TaylorJets(system, flds, point, top).table
    assert table == taylor_table_by_series(system, flds, point, top)
    assert all(list(row) == sorted(row) for row in table.values())


def test_integer_jets_make_one_gauss_rational_per_entry(monkeypatch):
    """A typeI:3,3 table costs at most one canonical reduction per nonzero
    entry: no per-operation GaussRational arithmetic in the kernel."""
    fam = SegreFamily(build_space("typeI:3,3"))
    z0, _ = sample_on_family(fam, rng_from_seed(7))
    _, fields = witness_frame(fam.space)
    calls = [0]

    def counting(a, b, d, _reduced=gauss_module._reduced):
        calls[0] += 1
        return _reduced(a, b, d)

    monkeypatch.setattr(gauss_module, "_reduced", counting)
    monkeypatch.setattr(poly_module, "_reduced", counting)
    jets = TaylorJets(fam.space.psi, fields, z0, default_order_bound(fam.space))
    entries = sum(len(row) for row in jets.table.values())
    assert entries and calls[0] <= entries


def test_lazy_monomials_match_sorted_reference():
    for width in range(7):
        for weight in range(6):
            assert list(monomials(width, weight)) == \
                monomials_sorted(width, weight), (width, weight)


@BOUNDED
@given(polys, st.fixed_dictionaries({v: st.one_of(st.just(G(0)), gauss)
                                     for v in RING.vars}))
def test_evaluate_matches_plain_loop(poly, point):
    """Skipping the terms that vanish at the point keeps the exact value."""
    assert poly.evaluate(point) == evaluate_loop(poly, point)


# -- the term-table rule against a list of (key, sum) pairs ------------------

def _add_term_reference(steps):
    """The table that ``add_term`` builds, as a list of [key, sum] pairs in
    insertion order: a sum is updated in place, a new nonzero coefficient is
    appended, and a pair whose sum is zero is removed, so a key that comes
    back after it cancelled goes to the end."""
    pairs = []
    for e, c in steps:
        at = next((k for k, (key, _) in enumerate(pairs) if key == e), None)
        if at is None:
            if c != 0:
                pairs.append([e, c])
        elif pairs[at][1] + c == 0:
            del pairs[at]
        else:
            pairs[at][1] += c
    return [tuple(pair) for pair in pairs]


@st.composite
def term_steps(draw):
    """(key, coefficient) steps over three keys, all ints or all Gaussian
    rationals.  A step drawn as None becomes the negated running sum at its
    key, so sums cancel and keys come back after cancelling."""
    coeffs, zero = draw(st.sampled_from([(st.integers(-2, 2), 0),
                                         (gauss, G(0))]))
    raw = draw(st.lists(st.tuples(st.sampled_from([(0, 1), (1, 0), (2, 2)]),
                                  st.one_of(st.none(), coeffs)), max_size=12))
    steps, sums = [], {}
    for e, c in raw:
        if c is None:
            c = -sums.get(e, zero)
        sums[e] = sums.get(e, zero) + c
        steps.append((e, c))
    return steps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(term_steps())
@example([((0, 1), 1), ((1, 0), 2), ((0, 1), -1), ((0, 1), 3)])
@example([((0, 1), G(1, 1)), ((1, 0), G(2)), ((0, 1), G(-1, -1)),
          ((1, 0), G(0)), ((0, 1), G(Fraction(1, 2)))])
def test_add_term_matches_list_reference(steps):
    """``add_term`` keeps the ordered items of the list reference: a
    coefficient and its negation at one key drop it, and the key comes back
    at the end."""
    terms = {}
    for e, c in steps:
        poly_module.add_term(terms, e, c)
    assert list(terms.items()) == _add_term_reference(steps)


@st.composite
def row_sequences(draw):
    """Sparse rows of a random width <= 40 and density <= 30%, with
    explicit zeros and shuffled keys, mixed with repeats, scalings and
    linear combinations of earlier rows."""
    width = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        how = draw(st.sampled_from(["fresh", "repeat", "scale", "combo"])
                   if rows else st.just("fresh"))
        if how == "fresh":
            support = draw(st.lists(st.integers(0, width - 1), unique=True,
                                    max_size=3 * width // 10))
            row = {j: draw(gauss) for j in support}
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(gauss), draw(gauss)
            row = (dict(a) if how == "repeat" else
                   {j: ca * x for j, x in a.items()} if how == "scale" else
                   {j: ca * a.get(j, ZERO) + cb * b.get(j, ZERO)
                    for j in set(a) | set(b)})
        rows.append(dict(draw(st.permutations(list(row.items())))))
    return width, rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(row_sequences())
def test_sparse_rank_tracker_matches_dense(case):
    """The sparse tracker accepts exactly the rows the dense one accepts,
    and holds the same echelon rows and pivots."""
    width, rows = case
    sparse, dense = RankTracker(), DenseRankTracker()
    for row in rows:
        accepted = sparse.add_row(row)
        assert accepted == dense.add_row([row.get(j, ZERO) for j in range(width)])
        assert sparse.rank == dense.rank
    assert sparse.pivots == dense.pivots
    assert sparse.rows == [{j: x for j, x in enumerate(r) if x != (0, 0)}
                           for r in dense.rows]


def test_type3_basis_matches_dense_greedy():
    """typeIII:6's psi is the per-degree greedy of the dense tracker over
    all its minors (the mirror minors the builder leaves out are rejected)."""
    space = build_space("typeIII:6")
    psi = []
    for k in range(1, 7):
        group = [m for (d, _, _), m in zip(minor_index_sets(6, 6), space.pairing_psi)
                 if d == k]
        monos = sorted({e for g in group for e in g.terms})
        tracker = DenseRankTracker()
        psi += [g for g in group
                if tracker.add_row([g.terms.get(e, ZERO) for e in monos])]
    assert [list(p.terms.items()) for p in space.psi] == \
        [list(p.terms.items()) for p in psi]


SCAN_SPECS = ["typeI:2,2", "typeI:2,3", "typeII:4", "typeIII:3", "typeIV:3", "e16"]
SCAN_BUDGETS = {1, 2, 5, 9, 10, 11, 17, 30, 60, 200, 20000}


def _merged(space):
    """psi o F, F replacing the last variable by the first: the jets have
    rank below N, so the scan runs through every candidate."""
    return composed_space(space, {space.vars[-1]: space.ring.var(space.vars[0])})


@pytest.mark.parametrize("merged", [False, True])
@pytest.mark.parametrize("top", [1, 2, None])
@pytest.mark.parametrize("spec", SCAN_SPECS)
def test_greedy_rows_match_nested_scan(spec, top, merged):
    """The flat row scan against the weight-by-weight loop, on the witness
    search's jets: at the listed budgets, at the weight boundaries and
    around the unbudgeted scan's candidate count (where the rank and the
    budget stop the scan together)."""
    fam = SegreFamily(build_space(spec))
    space = fam.space
    top = default_order_bound(space) if top is None else top
    z0, _ = special_point(space, rng_from_seed(7))
    _, fields = witness_frame(space)
    psi = _merged(space).psi if merged else space.psi
    jets = TaylorJets(psi, fields, z0, top)
    width, N = len(fields), len(space.psi)
    # comb(width + w, w) multiindices have weight <= w
    marks = [comb(width + w, w) for w in range(top + 1)]
    if not merged or marks[-1] <= 20000:
        full = _greedy_rows(jets, width, top, N)
        assert full == greedy_scan_nested(jets, width, top, N, inf)
        marks.append(full[1])
    budgets = SCAN_BUDGETS | {m + d for m in marks for d in (-1, 0, 1)
                              if 1 <= m + d <= 20000}
    for budget in sorted(budgets):
        assert _greedy_rows(jets, width, top, N, budget) == \
            greedy_scan_nested(jets, width, top, N, budget), budget


@pytest.mark.parametrize("spec", SCAN_SPECS)
def test_integer_jets_match_series_route_at_witness_points(spec):
    """The full table at the witness search's first point of each scanned
    space, with its fields and order bound."""
    fam = SegreFamily(build_space(spec))
    z0, _ = sample_on_family(fam, rng_from_seed(7))
    _, fields = witness_frame(fam.space)
    top = default_order_bound(fam.space)
    assert TaylorJets(fam.space.psi, fields, z0, top).table == \
        taylor_table_by_series(fam.space.psi, fields, z0, top)


@BOUNDED
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_exact_matches_bareiss(matrix):
    assert det_exact(matrix) == det_bareiss(matrix)


@BOUNDED
@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.lists(st.lists(entries, min_size=n, max_size=n),
                                 min_size=n - 1, max_size=n - 1),
                        st.lists(gauss, min_size=n - 1, max_size=n - 1))))
def test_det_exact_vanishes_on_rank_deficient(data):
    rows, weights = data
    combo = [sum((w * r[j] for w, r in zip(weights, rows)), G(0))
             for j in range(len(rows[0]))]
    matrix = rows + [combo]
    assert det_exact(matrix).is_zero() and det_bareiss(matrix).is_zero()


# -- the Segre family from its psi vector against the expanded rho ------------

FAMILY_SPECS = ["typeI:2,3", "typeII:5", "typeIII:3", "typeIV:4", "e16"]


@lru_cache(maxsize=None)
def _family(spec):
    return SegreFamily(build_space(spec))


def _points(names):
    """Dense random points, or recipe-like ones: one or two nonzero slots."""
    dense = st.fixed_dictionaries({v: gauss for v in names})
    sparse = st.dictionaries(st.sampled_from(names), gauss, min_size=1,
                             max_size=2).map(
        lambda d: {v: d.get(v, G(0)) for v in names})
    return st.one_of(dense, sparse)


family_points = st.sampled_from(FAMILY_SPECS).flatmap(
    lambda spec: st.tuples(st.just(spec), _points(_family(spec).space.vars),
                           _points(_family(spec).space.vars)))


@BOUNDED
@given(family_points)
def test_rho_at_matches_expansion(case):
    spec, z, xi = case
    fam = _family(spec)
    want = rho_at_expanded(fam, z, xi)
    assert fam.rho_at(z, xi) == want
    got = rho_at_float(fam, {v: complex(z[v]) for v in z},
                       {v: complex(xi[v]) for v in xi})
    assert abs(got - complex(want)) <= 1e-9 * max(1.0, abs(complex(want)))


@BOUNDED
@given(family_points)
def test_gradients_match_expansion(case):
    """The conjugate gradient of transversality, and both gradient blocks
    of the regular-locus check (the z block by the swap of the psi sum)."""
    spec, z, xi = case
    fam = _family(spec)
    d_z, d_xi = fam.gradients(z, xi)
    assert d_xi == xi_gradient_expanded(fam, z, xi)
    assert d_z == z_gradient_expanded(fam, z, xi)


@pytest.mark.parametrize("spec", FAMILY_SPECS + ["typeIII:5"])
def test_recipe_gradients_and_flattening_match_references(spec):
    """At the hyp2 pencil of each space: both conjugate gradients against
    the expansion, and the flattening minor against the bordered
    determinant."""
    fam = _family(spec)
    xi0, z0, z1 = transversality_recipe(fam, seed=7)
    rows = transversality_rank(fam, xi0, z0, z1)[1]
    assert rows == [xi_gradient_expanded(fam, z, xi0) for z in (z0, z1)]
    assert flattening_jacobian(rows) == flattening_jacobian_bordered(rows)


@pytest.mark.parametrize("spec", FAMILY_SPECS + ["e27"])
def test_one_jet_table_per_point_matches_evaluate_route(spec):
    """hyp2's rows (one jet table at xi0) and the regular-locus blocks (one
    at each point), with psi read off the weight-0 rows, equal the route
    that evaluates psi at the other point; the weight-0 row is psi there."""
    fam = _family(spec)
    xi0, z0, z1 = transversality_recipe(fam, seed=7)
    rows = transversality_rank(fam, xi0, z0, z1)[1]
    assert rows == [xi_gradient_by_evaluate(fam, z, xi0) for z in (z0, z1)]
    z, xi = sample_on_family(fam, rng_from_seed(8))
    assert fam.gradients(z, xi) == (xi_gradient_by_evaluate(fam, xi, z),
                                    xi_gradient_by_evaluate(fam, z, xi))
    for point in (xi0, z, xi):
        values = [p.evaluate(point) for p in fam.space.pairing_psi]
        assert fam.first_jets(point)[0] == {
            j: v for j, v in enumerate(values) if not v.is_zero()}


def _row_pairs(n):
    """Pairs of n-entry rows: free ones (mostly rank 2), a row with a
    multiple of itself (rank 1, or 0 when the row is zero), zero rows."""
    row = st.lists(entries, min_size=n, max_size=n)
    return st.one_of(
        st.lists(row, min_size=2, max_size=2),
        st.tuples(row, gauss).map(lambda t: [t[0], [t[1] * x for x in t[0]]]),
        st.just([[G(0)] * n, [G(0)] * n]))


@BOUNDED
@given(st.integers(2, 7).flatmap(_row_pairs))
@example([[G(0)] * 3, [G(0)] * 3])
@example([[G(0), G(1), G(2)], [G(0), G(2), G(4)]])
@example([[G(0), G(1)], [G(1), G(0)]])
def test_flattening_minor_matches_bordered_determinant(rows):
    """hyp2's rank read off the minor scan equals the tracker's rank; the
    minor is the bordered determinant at rank 2 and None below."""
    tracker = RankTracker()
    for row in rows:
        tracker.add_row(dict(enumerate(row)))
    rank, jacobian, slots = _pair_rank(rows)
    assert rank == tracker.rank
    want = flattening_jacobian_bordered(rows)
    assert (jacobian, slots) == flattening_jacobian(rows) == \
        ((None, None) if want is None else want)
    assert (jacobian is None) == (rank < 2)


@BOUNDED
@given(family_points)
def test_specialize_conjugate_matches_expansion(case):
    spec, _, xi = case
    fam = _family(spec)
    assert fam.specialize(xi) == specialize_expanded(fam, xi)


@BOUNDED
@given(st.sampled_from(FAMILY_SPECS + ["e27"]), st.integers(0, 10 ** 6))
def test_sampled_points_match_expansion(spec, seed):
    """Sampled points lie on the expanded family, on every kind."""
    fam = _family(spec)
    z, xi = sample_on_family(fam, rng_from_seed(seed))
    assert rho_at_expanded(fam, z, xi).is_zero()


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("spec", FAMILY_SPECS + ["typeIII:5"])
def test_regular_locus_nonempty(spec, seed):
    assert regular_locus_nonempty(_family(spec), seed)


LAW_SPECS = ["typeI:2,3", "typeI:3,3", "typeII:4", "typeII:6", "typeIII:2",
             "typeIII:3", "typeIII:4", "typeIV:3", "typeIV:6", "e16", "e27"]


class _Mutated(dict):
    """A kind's z-groups after one mutation, printed as that mutation: a
    failing example on e27 printed as its 360 groups took hypothesis about
    150 s."""

    def __init__(self, groups, mutation: str):
        super().__init__(groups)
        self.mutation = mutation

    def __repr__(self):
        return f"<z-groups, {self.mutation}>"


@st.composite
def mutated_groups(draw):
    """A kind's z-groups, as they are or with one group dropped, one group
    negated, or a foreign z-monomial added with the coefficients of a
    group: the product of two groups' monomials, or of two variables (the
    monomials of the linear groups)."""
    spec = draw(st.sampled_from(LAW_SPECS))
    groups = dict(_family(spec).z_groups)
    how = draw(st.sampled_from(["none", "drop", "negate", "groups", "variables"]))
    keys = st.sampled_from([ze for ze in sorted(groups)
                            if how != "variables" or sum(ze) == 1])
    ze = draw(keys)
    mutation = f"{how} {ze}"
    if how == "drop":
        del groups[ze]
    elif how == "negate":
        groups[ze] = {e: -c for e, c in groups[ze].items()}
    elif how != "none":
        other = draw(keys)
        foreign = tuple(map(sum, zip(ze, other)))
        assume(foreign not in groups)
        groups[foreign] = groups[ze]
        mutation += f" + {other}"
    return spec, _Mutated(groups, mutation)


# no shrink phase: each shrink step of an e27 example evaluates both law
# sets on 360 groups
@settings(max_examples=300, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(mutated_groups())
def test_support_laws_match_reference(case):
    """Each kind's support laws, declared over shared predicates, equal the
    laws as each kind wrote them out, on its z-groups and on mutations."""
    spec, groups = case
    space = _family(spec).space
    assert space.kind.support_laws(space, groups) == \
        support_laws_reference(space, groups)


@pytest.mark.parametrize("spec", FAMILY_SPECS + ["e27"])
def test_support_laws_match_reference_on_every_variable_product(spec):
    """As above, with each product of two variables that is no z-monomial
    added in turn."""
    fam = _family(spec)
    space, groups = fam.space, fam.z_groups
    linear = [ze for ze in groups if sum(ze) == 1]
    for a, b in itertools.combinations_with_replacement(linear, 2):
        foreign = tuple(map(sum, zip(a, b)))
        if foreign not in groups:
            mutated = {**groups, foreign: groups[a]}
            assert space.kind.support_laws(space, mutated) == \
                support_laws_reference(space, mutated), (spec, foreign)


@BOUNDED
@given(st.sampled_from(["typeI:2,3", "typeI:3,3", "typeII:4", "typeII:6",
                        "typeIII:2", "typeIII:3", "typeIV:3", "typeIV:6",
                        "e16", "e27"]))
def test_support_groups_match_expansion(spec):
    fam = _family(spec)
    assert fam.z_groups == z_part_groups_expanded(fam)


@pytest.mark.parametrize("how", ["group", "term", "comeback"])
def test_z_groups_drop_cancelled_terms_and_groups(how):
    """Pairing vectors that cancel a whole z-group (z, iz), one term of a
    group (z1, iz1 + z2), or one term that comes back (z1, iz1, z1): the
    groups hold no zero and no empty group, and equal the expansion's."""
    space = build_space("typeI:1,2")
    ring = space.ring
    z1, z2 = (ring.var(v) for v in space.vars)
    i = ring.const(G.i())
    psi = {"group": (z1, i * z1), "term": (z1, i * z1 + z2),
           "comeback": (z1, i * z1, z1)}[how]
    fam = SegreFamily(dataclasses.replace(space, pairing_psi=psi))
    groups = fam.z_groups
    assert all(groups.values())
    assert all(not c.is_zero() for g in groups.values() for c in g.values())
    assert groups == z_part_groups_expanded(fam)
    one = {(0, 0): {(0, 0): G(1)}}
    assert groups == {
        "group": one,
        "term": {**one, (1, 0): {(0, 1): G.i()},
                 (0, 1): {(1, 0): G.i(), (0, 1): G(1)}},
        "comeback": {**one, (1, 0): {(1, 0): G(1)}}}[how]


@pytest.mark.parametrize("spec", ["typeI:3,4", "typeII:6", "typeIII:5",
                                  "e27", "e16"])
def test_term_writer_matches_reference(spec, capsys):
    """The ``describe`` and ``rho`` reports, whose terms the one term writer
    joins from pieces, read back as the reference's one dict per term."""
    space = build_space(spec)
    assert main(["describe", "--space", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["psi"] == [poly_json_reference(p) for p in space.psi]
    assert main(["rho", "--space", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    rho = rho_flattened(SegreFamily(space))
    assert report["vars"] == list(rho.ring.vars)
    assert report["rho"] == poly_json_reference(rho)


@pytest.mark.parametrize("spec", FAMILY_SPECS + ["e27"])
def test_rho_report_matches_term_dicts(spec, capsys):
    """The rho report, joined from pieces written once, writes the bytes of
    the one-dict-per-term report, as JSON and as a table."""
    _, report = cmd_rho(build_parser().parse_args(["rho", "--space", spec]))
    want = dict(report, rho=rho_report_by_dicts(_family(spec)))
    assert dump_json(report) == dump_json(want)
    print_table(want)
    table = capsys.readouterr().out
    assert main(["rho", "--space", spec, "--output", "table"]) == 0
    assert capsys.readouterr().out == table


@pytest.mark.parametrize("spec", FAMILY_SPECS + ["e27"])
def test_rho_table_matches_products(spec):
    """rho flattened from the z-monomial table equals the product of the
    renamed psi copies, and prints the same JSON."""
    fam = _family(spec)
    want = rho_by_products(fam)
    rho = rho_flattened(fam)
    assert rho == want
    assert poly_json_reference(rho) == poly_json_reference(want)


# -- the batched F_p trial division against the one-candidate loop -------------

def _modp_poly(names, p, coeffs, degree):
    """1 + sum of the given coefficients on the monomials of degree 1..degree."""
    monos = multiindices_upto(len(names), degree)[1:]
    terms = {(0,) * len(names): 1}
    terms.update(zip(monos, coeffs))
    return PolyModP(names, p, terms)


# targets over F_5 and F_7 in one to three variables with constant term 1:
# random ones of degree 2-4, and products g*h with deg g in {1, 2}; the
# searched degree d is 1 or 2, and at most 5**5 candidates are enumerated
@st.composite
def modp_cases(draw):
    p = draw(st.sampled_from([5, 7]))
    names = ("a", "b", "c")[:draw(st.integers(1, 3))]
    d = draw(st.integers(1, 2 if len(names) == 1 or p == 5 and len(names) == 2
                         else 1))

    def poly(degree):
        size = len(multiindices_upto(len(names), degree)) - 1
        return _modp_poly(names, p, draw(st.lists(st.integers(0, p - 1),
                                                  min_size=size, max_size=size)),
                          degree)
    if draw(st.booleans()):
        target = poly(draw(st.integers(1, 2))) * poly(draw(st.integers(1, 2)))
    else:
        target = poly(draw(st.integers(2, 4)))
    return target, d


def _kernel_agrees(target, d):
    try:
        return trial_division_modp(target, d, 10 ** 6) == \
            trial_division_loop(target, d, 10 ** 6)
    except ArithmeticError:          # a hit that fails the exact check
        return False


@settings(max_examples=60, deadline=None, derandomize=True)
@given(modp_cases())
def test_trial_division_kernel_matches_loop(case):
    assert _kernel_agrees(*case)


PLANE = PolyRing(("x", "y"))


def _plane_poly(coeffs, degree):
    """1 + integer coefficients on the monomials of degree 1..degree."""
    monos = multiindices_upto(2, degree)[1:]
    return Polynomial(PLANE, {(0, 0): G(1),
                              **{m: G(c) for m, c in zip(monos, coeffs)}})


small_int_polys = st.integers(1, 2).flatmap(
    lambda degree: st.lists(st.integers(-3, 3), min_size=degree * (degree + 3) // 2,
                            max_size=degree * (degree + 3) // 2).map(
        lambda coeffs: _plane_poly(coeffs, degree)))


@BOUNDED
@given(small_int_polys, small_int_polys, st.sampled_from([5, 7]))
def test_oracle_never_certifies_products(g, h, prime):
    assume(g.degree() >= 1 and h.degree() >= 1)
    result = irreducibility_oracle(g * h, prime, budget=10 ** 5)
    assert result.status != "irreducible_certified"


AB = ("a", "b")
FAULT_CASES = [_modp_poly(AB, 5, [1, 3], 1) * _modp_poly(AB, 5, [2, 0, 1, 4, 1], 2),
               _modp_poly(AB, 7, [3, 1], 1) * _modp_poly(AB, 7, [0, 5], 1),
               _modp_poly(AB, 5, [1, 2, 0, 4, 3, 0, 1, 2, 2], 3)]


def test_kernel_fault_injection_trips_agreement(monkeypatch):
    """One wrong table entry, or one product reduced modulo the wrong number,
    and the agreement with the loop fails on a fixed set of targets."""
    assert all(_kernel_agrees(t, 1) for t in FAULT_CASES)
    table = _GradedProducts.table

    def flipped_table(self, j, m):
        left, right, starts = table(self, j, m)
        right = right.copy()
        right[-1] = (right[-1] + 1) % len(self.monos[m])
        return left, right, starts
    monkeypatch.setattr(_GradedProducts, "table", flipped_table)
    assert not all(_kernel_agrees(t, 1) for t in FAULT_CASES)
    monkeypatch.undo()
    mul = _GradedProducts.mul
    monkeypatch.setattr(_GradedProducts, "mul",
                        lambda self, a, b, j, m, p: mul(self, a, b, j, m, p + 1))
    assert not all(_kernel_agrees(t, 1) for t in FAULT_CASES)


# -- the scalar layer against its Fraction-pair reference ---------------------

big = st.integers(-10 ** 40, 10 ** 40)
rationals = st.builds(Fraction, st.one_of(st.integers(-6, 6), big),
                      st.one_of(st.integers(1, 12), st.integers(1, 10 ** 40)))
zero_q = st.just(Fraction(0))
part_pairs = st.one_of(st.tuples(rationals, rationals),
                       st.tuples(rationals, zero_q),      # pure real
                       st.tuples(zero_q, rationals),      # pure imaginary
                       st.tuples(zero_q, zero_q),
                       st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
scalars = part_pairs.map(lambda t: (G(*t), FractionPair(*t)))
plain = st.one_of(st.integers(-9, 9), big, rationals)   # int and Fraction
SCALAR_RUNS = settings(max_examples=200, deadline=None, derandomize=True)


def _same(x, ref):
    """x is canonical and agrees with the reference value in every reading."""
    assert type(x) is G
    a, b, d = x.parts()
    assert type(a) is type(b) is type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert (x.re, x.im) == (ref.re, ref.im)
    assert type(x.re) is type(x.im) is Fraction
    assert repr(x) == repr(ref)
    # a real value hashes as its Fraction, so it agrees with the equal
    # int or Fraction; any other value as the pair of its parts
    assert hash(x) == (hash(ref.re) if ref.is_real() else hash(ref))
    cx, cr = complex(x), complex(ref)
    assert (cx.real.hex(), cx.imag.hex()) == (cr.real.hex(), cr.imag.hex())
    assert x.is_zero() == ref.is_zero() and (not x.im) == ref.is_real()
    assert bool(x) == bool(ref)
    assert x == G(ref.re, ref.im) and not x != G(ref.re, ref.im)


@SCALAR_RUNS
@given(scalars, scalars)
def test_gauss_arithmetic_matches_fraction_pairs(xs, ys):
    (x, rx), (y, ry) = xs, ys
    _same(x, rx)
    _same(-x, -rx)
    _same(x.conj(), rx.conj())
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(x * y, rx * ry)
    _same(x * x, rx * rx)
    assert (x == y) == (rx == ry) and (x == x)
    if ry.is_zero():
        for f in (lambda: x / y, lambda: rx / ry):
            try:
                f()
            except ZeroDivisionError:
                continue
            raise AssertionError("division by zero did not raise")
    else:
        _same(x / y, rx / ry)


@SCALAR_RUNS
@given(scalars, plain)
def test_gauss_mixed_operands_match_fraction_pairs(xs, c):
    x, rx = xs
    for got, want in ((x + c, rx + c), (c + x, c + rx), (x - c, rx - c),
                      (c - x, c - rx), (x * c, rx * c), (c * x, c * rx),
                      (G.coerce(c), FractionPair.coerce(c))):
        _same(got, want)
    assert (x == c) == (rx == c) and (G(c) == c)
    if c:
        _same(x / c, rx / c)
    if not rx.is_zero():
        _same(c / x, c / rx)


@BOUNDED
@given(st.lists(scalars, min_size=1, max_size=8))
def test_scale_row_matches_fraction_route(row):
    want, scale = _integer_row([r for _, r in row])
    assert _scale_row(dict(enumerate(x for x, _ in row))) == \
        {j: v for j, v in enumerate(want) if v != (0, 0)}
    # d is the lcm of the reduced denominators of re and im
    assert scale == lcm(*(x.parts()[2] for x, _ in row))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_random_small_gauss_matches_fraction_pair(seed):
    """The sampler draws a, p, b, q in that order and returns a/p + (b/q) i
    in canonical form, the value that two Fractions give."""
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(20):
        x = random_small_gauss(rng)
        a, p = ref.randint(-9, 9), ref.randint(10, BOUND)
        b, q = ref.randint(-9, 9), ref.randint(10, BOUND)
        want = G(Fraction(a, p), Fraction(b, q))
        assert x == want and x.parts() == want.parts()


def test_gauss_is_immutable():
    x = G(Fraction(1, 2), 3)
    for name in ("re", "im", "_abd", "other"):
        try:
            setattr(x, name, 1)
        except AttributeError:
            continue
        raise AssertionError(f"{name} could be set")
    assert x.parts() == (1, 6, 2)
    assert G("1/2", "-3/4").parts() == (2, -3, 4)
    for bad in (0.5, 1j, None):
        try:
            G(bad)
        except TypeError:
            continue
        raise AssertionError(f"{bad!r} was accepted")


# -- the einstein identity checks against the expanded rho --------------------

EINSTEIN_SPECS = ["typeI:2,3", "typeII:5", "typeIII:3", "typeIV:4", "e16", "e27"]


def _shift_first_psi(space, c):
    """The space with the constant c added to its first psi component."""
    psi = list(space.pairing_psi)
    psi[0] = psi[0] + c
    return dataclasses.replace(space, pairing_psi=tuple(psi))


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("spec", EINSTEIN_SPECS)
def test_einstein_identities_match_expansion(spec, shifted):
    """unit_at_origin from psi equals the partial_evaluate route, and rho is
    swap-symmetric; a constant added to one psi component must make
    unit_at_origin false on both routes."""
    space = _family(spec).space
    fam = SegreFamily(_shift_first_psi(space, 1) if shifted else space)
    assert unit_at_origin(fam) == unit_at_origin_expanded(fam) == (not shifted)
    assert rho_swap_symmetric(fam)


LAYOUT_SPECS = ([f"typeI:{p},{q}" for q in range(1, 6) for p in range(1, q + 1)]
                + [f"typeII:{n}" for n in range(2, 11)]
                + [f"typeIII:{n}" for n in range(2, 6)])


@pytest.mark.parametrize("spec", LAYOUT_SPECS)
def test_signed_monomials_match_polynomial_products(spec):
    """Every psi and pairing_psi term of the builder, in insertion order,
    equals that of the chains of polynomial products; for typeIII psi is
    the greedy basis over all minors, and the pairing holds minor(I, J) for
    I <= J and reuses it as minor(J, I), which Z's symmetry makes the same
    polynomial."""
    space = build_space(spec)
    psi, pairing_psi = psi_by_products(space)
    assert [list(p.terms.items()) for p in space.psi] == \
        [list(p.terms.items()) for p in psi]
    if space.desc.kind == "typeIII":
        n = space.desc.params[0]
        pairs = [(rows, cols) for _, rows, cols in minor_index_sets(n, n)]
        at = {pair: i for i, pair in enumerate(pairs)}
        upper = [pairing_psi[at[min(pair, pair[::-1])]] for pair in pairs]
        assert [p.terms for p in upper] == [p.terms for p in pairing_psi]
        pairing_psi = upper
    assert [list(p.terms.items()) for p in space.pairing_psi] == \
        [list(p.terms.items()) for p in pairing_psi]


# -- the report writer ------------------------------------------------------

finite = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-9, 5e-324, 2.5e-310, 1e300, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10 ** 40, 10 ** 40), finite,
    st.text(),                                 # non-ASCII and control characters
    finite.map(np.float64),                    # a float subclass
    st.lists(st.integers(), max_size=6),       # the all-int list join
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=6))
reports = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-20, 20)),
                    inner, max_size=4)), max_leaves=24)
NONFINITE = [(nan, "NaN"), (inf, "Infinity"), (-inf, "-Infinity"),
             (np.float64("nan"), "NaN"), (np.float64("-inf"), "-Infinity")]
WRITER_RUNS = settings(max_examples=100, deadline=None, derandomize=True)


@WRITER_RUNS
@given(reports)
def test_dump_json_matches_reference(report):
    """The type-dispatched writer writes the bytes of the one-call-per-value
    reference on every finite report."""
    assert dump_json(report) == dump_json_reference(report)


@WRITER_RUNS
@given(reports, st.sampled_from(NONFINITE))
def test_dump_json_writes_nonfinite_tokens(report, case):
    """NaN and the infinities are written as json.dumps writes them, next to
    a report and nested in dicts and tuples; the report keeps the
    reference's bytes."""
    x, token = case
    assert dump_json([report, x]) == f"[{dump_json_reference(report)},{token}]"
    assert dump_json({"r": {"s": (x,)}}) == f'{{"r":{{"s":[{token}]}}}}'


def _prewrite(draw, obj):
    """``obj`` with some of its subtrees, at any depth, replaced by their
    ``Written`` text; a written subtree may hold written ones."""
    if type(obj) is dict:
        obj = {k: _prewrite(draw, v) for k, v in obj.items()}
    elif type(obj) in (list, tuple):
        obj = type(obj)(_prewrite(draw, x) for x in obj)
    return Written(dump_json(obj)) if draw(st.booleans()) else obj


@WRITER_RUNS
@given(reports, st.data())
def test_dump_json_writes_prewritten_text_verbatim(report, data):
    """Replacing subtrees of a report by their pre-written text, inside
    dicts, lists and tuples, leaves its bytes unchanged."""
    assert dump_json(_prewrite(data.draw, report)) == dump_json(report)


plain_ints = st.one_of(st.integers(-300, -1), st.integers(0, 255),
                       st.integers(256, 2 ** 64), st.integers(2 ** 64 + 1, 2 ** 80))
plain_reports = st.recursive(
    st.one_of(st.none(), st.booleans(), plain_ints, st.text(),
              st.lists(plain_ints, max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=4)),
    max_leaves=24)


@WRITER_RUNS
@given(plain_reports)
def test_dump_json_matches_json_dumps_without_floats(report):
    """Without floats the writer writes what json.dumps writes with sorted
    keys and compact separators: the small-int table and its fallback for
    negative and large ints keep the bytes."""
    assert dump_json(report) == json.dumps(report, sort_keys=True,
                                           separators=(",", ":"))


def test_dump_json_copies_no_written_text():
    """A report holding one 8 MB ``Written`` where describe holds a psi
    component's terms, under a dict in a list in a dict, is written in one
    join of its pieces: the peak is the finished text, not a copy of the
    subtree's text at each level above it."""
    big = Written('"' + "x" * (8 * 2 ** 20) + '"')
    report = {"config": None, "psi": [{"terms": big, "vars": ["z"]}]}
    tracemalloc.start()
    try:
        text = dump_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == '{"config":null,"psi":[{"terms":%s,"vars":["z"]}]}' % big.text
    assert peak < 1.5 * len(text)


def test_dump_json_int_lists_at_the_table_edges():
    assert dump_json([True, 1]) == "[true,1]"
    assert dump_json([1, True]) == "[1,true]"
    assert dump_json((255, 256, -1)) == "[255,256,-1]"
    assert dump_json([0, 255]) == "[0,255]"
    assert dump_json([2 ** 64 + 1, 7]) == f"[{2 ** 64 + 1},7]"


def test_dump_json_writes_float64_as_float_and_refuses_other_numpy_scalars():
    """An np.float64 is a float and keeps the bytes of the Python float; a
    numpy scalar that is no subclass of a report type raises TypeError."""
    assert dump_json(np.float64(0.1)) == dump_json(0.1)
    assert dump_json({"r": [np.float64(-1 / 3)]}) == dump_json({"r": [-1 / 3]})
    for bad in (np.int64(1), np.bool_(True), np.float32(0.5)):
        for report in (bad, [1, bad], {"a": bad}):
            with pytest.raises(TypeError):
                dump_json(report)


@pytest.mark.parametrize("bad", [{1, 2}, 1j, b"x", np.zeros(2), object()])
def test_dump_json_refuses_what_the_reference_refuses(bad):
    for report in (bad, [1, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError) as fast:
            dump_json(report)
        with pytest.raises(TypeError) as slow:
            dump_json_reference(report)
        assert str(fast.value) == str(slow.value)
