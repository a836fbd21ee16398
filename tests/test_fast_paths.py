"""Property tests: each fast exact path against its slow reference route,
with exact equality (see ``oracles.py``)."""

from fractions import Fraction
from math import factorial, prod

from hypothesis import assume, given, settings, strategies as st

from hermsym.gauss import GaussRational as G
from hermsym.linalg import det_exact
from hermsym.poly import Polynomial, PolyFraction, PolyRing
from hermsym.rigidity import TaylorJets, multiindices_upto
from oracles import compose_full, derivative_jet_row, det_bareiss

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


def _check_jets(system, flds, point, top):
    jets = TaylorJets(system, flds, point, top)
    for beta in multiindices_upto(len(flds), top):
        scale = G(prod(factorial(b) for b in beta))
        assert [c * scale for c in jets.row(beta)] == \
            derivative_jet_row(system, flds, point, beta)


@BOUNDED
@given(st.lists(polys, min_size=1, max_size=3), fields, points)
def test_taylor_jets_match_derivatives_on_polynomials(system, flds, point):
    _check_jets(system, flds, point, 3)


@BOUNDED
@given(polys, polys, fields, points)
def test_taylor_jets_match_derivatives_on_fractions(num, den_tail, flds, point):
    den = RING.one() + den_tail
    assume(not den.evaluate(point).is_zero())
    _check_jets([PolyFraction(num, den), num], flds, point, 2)


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


@BOUNDED
@given(polys, st.dictionaries(st.sampled_from(RING.vars),
                              st.tuples(polys, polys), max_size=3))
def test_compose_fractions_partly_identity(poly, raw):
    images = {}
    for v, (num, den_tail) in raw.items():
        den = RING.one() + den_tail
        assume(not den.is_zero())
        images[v] = PolyFraction(num, den)
    for v in RING.vars:
        if v not in raw:           # identity images, written out or left out
            images[v] = PolyFraction(RING.var(v), RING.one())
            break
    assert poly.compose_fractions(images).equals(compose_full(poly, images))
    identity = poly.compose_fractions(
        {v: PolyFraction(RING.var(v), RING.one()) for v in RING.vars})
    assert identity.num == poly and identity.den == RING.one()
