"""Hypothesis machinery: jet ranks, tangent frames, witnesses, degeneracy
extraction, bordered identities, transversality, the oracle, and the volume
equation."""

import dataclasses
import itertools

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from hermsym.acceptance import hypothesis_one
from hermsym.floats import (_MAP_RADIUS, _MAX_RETRIES, BatchEvaluator,
                            NotDegenerateError, _MapValues, _worst_residual,
                            degeneracy_relation, isometry_pullback_check,
                            metric_engine, random_complex_ball,
                            volume_equation_check)
from hermsym.gauss import GaussRational as G
from hermsym.linalg import det_exact
from hermsym.maps import RationalMap, identity_map, scaling_map
from hermsym.modp import reduce_mod, trial_division_modp
from hermsym.poly import Polynomial, PolyFraction, PolyRing, TaylorJets
from hermsym.rigidity import (_JET_RANK_TRIALS, _WITNESS_TRIALS, WITNESS_BUDGET,
                              OffVarietyError, default_order_bound,
                              find_nondegeneracy_witness, flattening_jacobian,
                              generic_conjugate_point,
                              irreducibility_oracle,
                              jet_rank, support_claims,
                              transversality_rank, transversality_recipe,
                              truncated_vars, witness_frame)
from hermsym.sampling import random_small_gauss, rng_from_seed
from hermsym.segre import SegreFamily, solve_null_direction, special_point
from hermsym.spaces import build_space
from oracles import (DenseBatchEvaluator, LambdaUndefinedError, as_fraction,
                     compose_full, composed_space, dense_jacobian,
                     doubled_ring, evaluate_float, evaluate_float_fraction,
                     evaluate_float_map, jet_rank_one_order,
                     lambda_determinant, poly_pow, rho_flattened,
                     tangent_apply)

DESK = ["typeI:2,2", "typeII:4", "typeIII:2", "typeIV:3", "e16", "e27"]


def polynomial_map(space, images):
    """The map replacing the named cell variables by polynomial images."""
    r = space.ring
    return RationalMap(r, tuple(as_fraction(images.get(v, r.var(v)))
                                for v in r.vars))


@pytest.fixture(scope="module")
def families():
    return {spec: SegreFamily(build_space(spec)) for spec in DESK}


# -- jet ranks ---------------------------------------------------------------

def test_jet_rank_identity_examples(families):
    fam = families["typeIV:3"]
    sp = fam.space
    for k in range(3):
        assert jet_rank(sp, k, seed=1) == [1, 3, 4][:k + 1]
    sp12 = build_space("typeI:1,2")
    # the embedding of the (1,2) Grassmannian is linear (N = 2), so the jet
    # rank saturates at 2 already at first order
    assert jet_rank(sp12, 2, seed=1) == [1, 2, 2]
    sp22 = families["typeI:2,2"].space
    k = 1 + sp22.N - sp22.n
    assert jet_rank(sp22, k, seed=1)[-1] == sp22.N


def test_jet_rank_basics_all_desk(families):
    for spec, fam in families.items():
        sp = fam.space
        assert jet_rank(sp, 1, seed=2) == [1, sp.n], spec


def _degenerate(sp):
    """typeI:2,2 with psi o F in place of psi, F the map washing out one
    coordinate."""
    return composed_space(sp, {"z2_2": sp.ring.var("z1_1")})


def test_jet_rank_degenerate_map(families):
    """A map washing out one coordinate plateaus strictly below N."""
    sp = _degenerate(families["typeI:2,2"].space)
    kmax = 1 + sp.N - sp.n
    ranks = jet_rank(sp, kmax, seed=3)
    assert len(ranks) == kmax + 1
    assert ranks == sorted(ranks) and ranks[-1] < sp.N
    w = find_nondegeneracy_witness(SegreFamily(sp), seed=3)
    assert not w.found


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(spec, False) for spec in DESK]
                       + [("typeI:2,2", True)]),
       st.integers(0, 3), st.integers(0, 10 ** 6))
def test_jet_rank_matches_one_order_per_call(families, case, k, seed):
    """Every order of one ``jet_rank`` call equals the rank that a search of
    its own order finds at the same points."""
    spec, degenerate = case
    sp = families[spec].space
    if degenerate:
        sp = _degenerate(sp)
    assert jet_rank(sp, k, seed) == [jet_rank_one_order(sp, j, seed)
                                     for j in range(k + 1)]


def test_jet_tables_stop_at_the_rank_ceiling(families, monkeypatch):
    """hyp1 reaches both rank ceilings (1 and n) at its first point, so it
    builds one table for the ranks and one for the witness; the identity
    jets of typeI:2,2 reach N, the ceiling of order 2 (below its 10 rows),
    at the first point too; a degenerate map stays below N and samples
    every trial point."""
    fam = SegreFamily(build_space("typeI:4,4"))
    count = [0]
    init = TaylorJets.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TaylorJets, "__init__", counting)
    h = hypothesis_one(fam, 7, None, WITNESS_BUDGET)
    assert h.passed and count[0] == 2
    sp = families["typeI:2,2"].space
    count[0] = 0
    assert jet_rank(sp, 2, seed=3) == [1, 4, 5]
    assert count[0] == 1
    count[0] = 0
    jet_rank(_degenerate(sp), 1 + sp.N - sp.n, seed=3)
    assert count[0] == _JET_RANK_TRIALS


def test_witness_budget_exhausted_at_weight_boundary(families):
    """A budget that runs out exactly where a weight ends, below the order
    bound, is still reported as exhausted (4 = weights 0 and 1 here), and
    each trial spends the whole budget."""
    fam = SegreFamily(_degenerate(families["typeI:2,2"].space))
    for budget in (4, 5):
        w = find_nondegeneracy_witness(fam, seed=3, budget=budget)
        assert not w.found and w.budget_exhausted, budget
        assert w.candidates_examined == _WITNESS_TRIALS * budget


# -- tangent frames ----------------------------------------------------------

def test_tangency_exact(families):
    for spec in ["typeI:2,2", "typeIII:2", "typeIV:3"]:
        fam = families[spec]
        frame = ("segre", truncated_vars(fam.space))
        expr = as_fraction(rho_flattened(fam))
        width = len(frame[1])
        for i in range(width):
            beta = [0] * width
            beta[i] = 1
            assert tangent_apply(frame, fam, expr, beta).num.is_zero(), (spec, i)


def test_hyperplane_field_formula(families):
    fam = families["typeIV:3"]
    frame = witness_frame(fam.space)
    zn = as_fraction(doubled_ring(fam).var("z3"))
    out = tangent_apply(frame, fam, zn, [1, 0])
    assert (out.num + doubled_ring(fam).const(G.i()) * out.den).is_zero()


def test_witnesses_within_order_bounds(families):
    bounds = {"typeI:2,2": 2, "typeII:4": 2, "typeIII:2": 2, "typeIV:3": 2,
              "e16": 11}
    for spec, bound in bounds.items():
        fam = families[spec]
        w = find_nondegeneracy_witness(fam, max_order=bound, seed=3)
        assert w.found and not w.lambda_value.is_zero(), spec
        assert w.max_order_used <= bound
        assert w.betas[0] == (0,) * len(w.betas[0])
        assert default_order_bound(fam.space) >= w.max_order_used


def test_e27_witness_budgeted(families):
    fam = families["e27"]
    w = find_nondegeneracy_witness(fam, seed=3, budget=6000)
    # found or not, the attempt must be recorded, never silent
    assert w.candidates_examined > 0
    assert w.found


def test_symbolic_lambda_agrees_with_witness(families):
    """The determinant the witness reads off Taylor jets equals the fully
    symbolic one of ``lambda_determinant`` along the same frame.  On the
    slot kinds the witness reads plain d/dz_i jets while
    ``lambda_determinant`` applies the Segre-tangent fields
    d_i - (rho_i / rho_d) d_d; on the quadric both take the hyperplane
    frame."""
    for spec in ["typeIV:3", "typeI:2,2", "typeI:2,3", "typeII:4",
                 "typeIII:2"]:
        _check_symbolic_lambda(families, spec, seed=3)


def _check_symbolic_lambda(families, spec, seed):
    """Witness and symbolic lambda agree for one space at one seed."""
    fam = families[spec] if spec in families else SegreFamily(build_space(spec))
    sp = fam.space
    w = find_nondegeneracy_witness(fam, seed=seed)
    assert w.found, (spec, seed)
    assert w.frame_kind == ("segre" if sp.null_block is None
                            else "hyperplane"), (spec, seed)
    val = lambda_determinant(sp, fam, w.betas, w.z0, w.xi0,
                             frame=witness_frame(sp))
    assert (val - w.lambda_value).is_zero(), (spec, seed)


def test_lambda_repeated_rows_vanish(families):
    fam = families["typeIV:3"]
    sp = fam.space
    w = find_nondegeneracy_witness(fam, seed=3)
    betas = [w.betas[0], w.betas[1], w.betas[1], w.betas[2]]
    val = lambda_determinant(sp, fam, betas, w.z0, w.xi0,
                             frame=witness_frame(sp))
    assert val.is_zero()


def test_lambda_point_validation(families):
    fam = families["typeI:2,2"]
    sp = fam.space
    w = find_nondegeneracy_witness(fam, seed=3)
    off = dict(w.z0)
    off["z2_2"] = off["z2_2"] + G(1)
    with pytest.raises(ValueError, match="not on the Segre family"):
        lambda_determinant(sp, fam, w.betas, off, w.xi0)


def test_special_points_on_family(families):
    for spec, fam in families.items():
        rng = rng_from_seed(5)
        z0, xi0 = special_point(fam.space, rng)
        assert fam.rho_at(z0, xi0).is_zero(), spec


# -- degeneracy extraction ---------------------------------------------------

def test_degeneracy_relation_linear():
    r = PolyRing(["z1", "z2"])
    z1, z2 = r.var("z1"), r.var("z2")
    rep = degeneracy_relation([z1, z2, z1 + z2], seed=1)
    assert max(rep.residuals) < 1e-10
    for s, g in zip(rep.slices, rep.coefficients):
        if s == 0:
            continue
        direction = g / g[0]
        assert np.allclose(direction, [1.0, 1.0, -1.0], atol=1e-8)


def test_degeneracy_relation_h_pattern():
    r = PolyRing(["z1", "z2"])
    z1, z2 = r.var("z1"), r.var("z2")
    rep = degeneracy_relation([z1, z2, z1 * (r.one() + z2)], seed=1)
    for s, g in zip(rep.slices, rep.coefficients):
        gg = g / g[0]
        assert abs(gg[2] - (-1.0 / (1.0 + float(s)))) < 1e-8


def test_degeneracy_zero_slice_head():
    r = PolyRing(["z1", "z2"])
    z1, z2 = r.var("z1"), r.var("z2")
    rep = degeneracy_relation([z1, z2, z1 * z1, z1 * z1 * (r.one() + z2)],
                              seed=1)
    assert max(rep.residuals) < 1e-10
    assert rep.zero_slice_head_max < 1e-8


def test_degeneracy_full_rank_control():
    r = PolyRing(["z1", "z2"])
    z1, z2 = r.var("z1"), r.var("z2")
    with pytest.raises(NotDegenerateError):
        degeneracy_relation([z1, z2, z1 * z1], seed=1)


# -- bordered determinant identities ------------------------------------------

def _minor(mat, rows, cols):
    return det_exact([[mat[i][j] for j in cols] for i in rows])


def bordered_identity_check(n, trials, seed):
    """The bordered two-by-two identity of complementary (n-1)-minors:
    det of the 2x2 block of big minors equals (inner minor) * det(B)."""
    rng = rng_from_seed(seed)
    for t in range(trials):
        B = [[random_small_gauss(rng) for _ in range(n)] for _ in range(n)]
        if t == trials - 1:
            # singular control: replace last row by the sum of the others
            B[n - 1] = [sum((B[i][j] for i in range(n - 1)), G(0)) for j in range(n)]
        detB = det_exact(B)
        top = list(range(n - 1))
        for i_set in itertools.combinations(top, n - 2):
            for j_set in itertools.combinations(top, n - 2):
                rows, cols = list(i_set) + [n - 1], list(j_set) + [n - 1]
                lhs = det_exact([[_minor(B, top, top), _minor(B, top, cols)],
                                 [_minor(B, rows, top), _minor(B, rows, cols)]])
                if not (lhs - _minor(B, i_set, j_set) * detB).is_zero():
                    return False
                if detB.is_zero() and not lhs.is_zero():
                    return False
    return True


def bordered_vanish_probe(n, trials, seed):
    """All n bordered determinants det(b_{i1}..b_{i n-1}, a) vanish iff a=0,
    for invertible B (checked on random data plus the a=0 control)."""
    rng = rng_from_seed(seed)
    for _ in range(trials):
        while True:
            B = [[random_small_gauss(rng) for _ in range(n)] for _ in range(n)]
            if not det_exact(B).is_zero():
                break
        a = [random_small_gauss(rng) for _ in range(n)]
        if all(x.is_zero() for x in a):
            a[0] = G(1)
        for col, want_zero in ((a, False), ([G(0)] * n, True)):
            dets = [det_exact([[B[r][c] for c in cols] + [col[r]] for r in range(n)])
                    for cols in itertools.combinations(range(n), n - 1)]
            if all(d.is_zero() for d in dets) != want_zero:
                return False
    return True


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bordered_identity(n):
    assert bordered_identity_check(n, trials=3, seed=2)


@pytest.mark.parametrize("n", [3, 4])
def test_bordered_vanish(n):
    assert bordered_vanish_probe(n, trials=3, seed=2)


def test_bordered_vanish_unit_vector():
    B = [[G(1 if i == j else 0) for j in range(3)] for i in range(3)]
    a = [G(1), G(0), G(0)]
    dets = []
    for cols in itertools.combinations(range(3), 2):
        dets.append(det_exact([[B[r][c] for c in cols] + [a[r]] for r in range(3)]))
    assert any(not d.is_zero() for d in dets)


# -- transversality and flattening -------------------------------------------

def test_transversality_all_types(families):
    for spec, fam in families.items():
        xi0, z0, z1 = transversality_recipe(fam, seed=6)
        assert transversality_rank(fam, xi0, z0, z1)[0] == 2, spec


def test_transversality_rank_one_and_errors(families):
    fam = families["typeIV:3"]
    xi0, z0, z1 = transversality_recipe(fam, seed=6)
    assert transversality_rank(fam, xi0, z0, z0)[0] == 1
    off = dict(z0)
    off["z3"] = off["z3"] + G(1)
    with pytest.raises(OffVarietyError):
        transversality_rank(fam, xi0, off, z1)


def test_flattening_jacobian(families):
    """transversality_rank returns the flattening Jacobian of its rows:
    nonzero at rank 2, (None, None) below."""
    for spec in ["typeIV:3", "typeI:2,2"]:
        fam = families[spec]
        xi0, z0, z1 = transversality_recipe(fam, seed=6)
        rank, rows, det, slots = transversality_rank(fam, xi0, z0, z1)
        assert rank == 2 and not det.is_zero(), spec
        assert flattening_jacobian(rows) == (det, slots), spec
    # the last pencil, typeI:2,2's slot pencil, moves z0 by 1 + 3i along z1_2
    assert z1["z1_2"] - z0["z1_2"] == G(1, 3)
    fam = families["typeIV:3"]
    xi0, z0, z1 = transversality_recipe(fam, seed=6)
    rank, rows, det, slots = transversality_rank(fam, xi0, z0, z0)
    assert (rank, det, slots) == (1, None, None)
    assert flattening_jacobian(rows) == (None, None)


# -- null directions -----------------------------------------------------------

def _null_identities_hold(base, xi):
    """1 + <base, xi> = 0 and sum(xi^2) = 0, exactly."""
    pairing = sum((b * x for b, x in zip(base, xi)), G(1))
    return pairing.is_zero() and sum((x * x for x in xi), G(0)).is_zero()


def test_solve_null_direction():
    xi = solve_null_direction([G(0), G(0), G(1)])
    assert xi == [G(0, -1), G(0), G(-1)]
    assert _null_identities_hold([G(0), G(0), G(1)], xi)
    with pytest.raises(ZeroDivisionError):
        solve_null_direction([G(1), G(0), G(0, -1)])
    base = [G(1)] + [G(0)] * 6 + [G(2)]
    xi = solve_null_direction(base)
    assert len(xi) == 8
    assert _null_identities_hold(base, xi)


_small_gauss = st.builds(lambda a, b, d: G(Fraction(a, d), Fraction(b, d)),
                         st.integers(-9, 9), st.integers(-9, 9),
                         st.integers(1, 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_small_gauss, min_size=2, max_size=9))
def test_solve_null_direction_identities(base):
    """On every base with a nonzero denominator base_last + i base_0 the
    solve lies on the fixed null direction and meets both identities."""
    assume(not (base[-1] + G.i() * base[0]).is_zero())
    xi = solve_null_direction(base)
    assert len(xi) == len(base)
    assert (xi[0] - G.i() * xi[-1]).is_zero()
    assert all(x.is_zero() for x in xi[1:-1])
    assert _null_identities_hold(base, xi)


@pytest.mark.parametrize("spec", ["typeIV:3", "typeIV:5", "e16"])
def test_witness_frame_tangent_to_null_hyperplane(spec):
    """Every field of a null kind's frame annihilates the linear form
    v_last + i v_first of its block, and the fields are independent: each
    leads with its own variable, every one but the last of the block."""
    space = build_space(spec)
    kind, fields = witness_frame(space)
    block = space.null_block
    assert kind == "hyperplane"
    for f in fields:
        assert (f.get(block[-1], G(0)) + G.i() * f.get(block[0], G(0))).is_zero(), f
    leads = [next(iter(f)) for f in fields]
    assert sorted(leads) == sorted(set(space.vars) - {block[-1]})


def test_witness_frame_kind_follows_null_block():
    """The hyperplane frame belongs exactly to the spaces that store a null
    block; a slot kind's frame is its truncated variables."""
    for spec in ["typeI:1,1", "typeI:2,3", "typeII:4", "typeIII:3", "typeIV:3",
                 "typeIV:4", "e16", "e27"]:
        space = build_space(spec)
        kind, fields = witness_frame(space)
        assert (kind == "hyperplane") == (space.null_block is not None), spec
        if kind == "segre":
            assert fields == truncated_vars(space), spec


# -- support facts and the oracle ---------------------------------------------

def test_support_claims_all_types():
    for spec in ["typeI:2,2", "typeI:2,3", "typeII:4", "typeIII:3",
                 "typeIV:3", "e16", "e27"]:
        fam = SegreFamily(build_space(spec))
        report = support_claims(fam)
        assert report and all(report.values()), (spec, report)


def test_type1_z_degree(families):
    fam = families["typeI:2,2"]
    z_slots = range(len(fam.space.vars))
    assert max(sum(e[i] for i in z_slots) for e in rho_flattened(fam).terms) == 2


def test_oracle_certifications(families):
    for spec in ["typeIV:3", "typeI:2,2"]:
        fam = families[spec]
        _, poly = generic_conjugate_point(fam, seed=4)
        res = irreducibility_oracle(poly, prime=5)
        assert res.status == "irreducible_certified", spec


def test_oracle_control_and_budget():
    r = PolyRing(["z1", "z2"])
    control = (r.one() + r.var("z1")) * (r.one() + r.var("z2"))
    factor, _ = trial_division_modp(reduce_mod(control, 5), 1, 10 ** 6)
    assert factor is not None
    with pytest.raises(OverflowError):
        trial_division_modp(reduce_mod(control, 5), 1, 2)
    # the int64 kernel needs p < 2**31, whatever the budget
    with pytest.raises(ValueError, match="2\\*\\*31"):
        trial_division_modp(reduce_mod(control, 2 ** 31 + 11), 1, 2 ** 63)


def test_oracle_budget_inconclusive(families):
    fam = families["typeI:2,2"]
    _, poly = generic_conjugate_point(fam, seed=4)
    res = irreducibility_oracle(poly, prime=5, budget=3)
    assert res.status == "inconclusive"
    assert res.required_budget is not None and res.required_budget > 3


# -- volume equation and isometry pullback -------------------------------------

@pytest.fixture(scope="module")
def disc_family():
    return SegreFamily(build_space("typeI:1,1"))


def _unitary_map(space):
    r = space.ring
    z = r.var("z1_1")
    return RationalMap(r, (PolyFraction(
        r.const(Fraction(4, 5)) + z.scale(Fraction(3, 5)),
        r.const(Fraction(3, 5)) - z.scale(Fraction(4, 5))),))


def _draws(seed, count):
    """The first ``count`` points the map checks draw at ``seed`` on the disc."""
    rng = rng_from_seed(seed)
    return [random_complex_ball(rng, 1, _MAP_RADIUS) for _ in range(count)]


def _recording(calls, poles=0, bad=None):
    """|z| at each point, recorded in ``calls``; ZeroDivisionError on the
    first ``poles`` calls and at the point ``bad``."""
    def residual(pt):
        calls.append(pt)
        if len(calls) <= poles or pt is bad:
            raise ZeroDivisionError("pole")
        return abs(pt[0])
    return residual


def test_worst_residual_retry_limit(disc_family):
    space = disc_family.space
    calls = []
    worst = _worst_residual(space, _recording(calls, _MAX_RETRIES), 5, seed=2)
    draws = _draws(2, _MAX_RETRIES + 5)
    assert calls == draws
    assert worst == max(abs(pt[0]) for pt in draws[_MAX_RETRIES:])
    with pytest.raises(ZeroDivisionError):
        _worst_residual(space, _recording([], _MAX_RETRIES + 1), 5, seed=2)


def test_worst_residual_given_points(disc_family):
    space = disc_family.space
    bad, good = [0.15], [0.1]
    calls = []
    # a raising given point is dropped, not retried; the given points count
    # toward the sample count, so two draws follow
    worst = _worst_residual(space, _recording(calls, bad=bad), 3, seed=2,
                            points=[bad, good])
    draws = _draws(2, 2)
    assert calls == [bad, good] + draws
    assert worst == max([0.1] + [abs(pt[0]) for pt in draws])
    # more given points than samples: every given point, and no draw
    calls = []
    assert _worst_residual(space, _recording(calls), 0, seed=2, points=[good]) == 0.1
    assert calls == [good]


def test_isometry_check_counts_given_points(disc_family):
    """The scaling-map margin of the selftest reads exactly one point."""
    fam = disc_family
    F = scaling_map(fam.space, 2)
    margin = isometry_pullback_check(fam, F, 0, seed=3, points=[[0.2]])
    assert margin > 0.1
    assert isometry_pullback_check(fam, F, 0, seed=11, points=[[0.2]]) == margin
    assert isometry_pullback_check(fam, F, 1, seed=11, points=[[0.2]]) == margin
    assert isometry_pullback_check(fam, F, 0, seed=3) == 0.0


# -- the compiled float evaluator against the scalar loop ------------------------

_COEFF = st.builds(Fraction, st.integers(-16, 16), st.integers(1, 8))
_SMALL = st.integers(-1, 1).map(lambda k: Fraction(k, 8))


@st.composite
def _float_polys(draw, ring, real, coeff=_COEFF, constant=None):
    """A polynomial of ``ring`` of up to six terms, exponents 0-6, with
    coefficients drawn from ``coeff`` (real ones when ``real``);
    ``constant``, if given, at exponent 0 and only terms of positive degree
    besides it."""
    low = 0 if constant is None else 1
    exps = draw(st.lists(st.tuples(*[st.integers(0, 6)] * len(ring.vars))
                         .filter(lambda e: sum(e) >= low),
                         max_size=6, unique=True))
    terms = {e: G(draw(coeff), 0 if real else draw(coeff)) for e in exps}
    if constant is not None:
        terms[(0,) * len(ring.vars)] = G(constant)
    return Polynomial(ring, terms)


@st.composite
def _float_cases(draw):
    """(ring, a complex point as a list, real coefficients or not)."""
    ring = PolyRing([f"x{i}" for i in range(draw(st.integers(1, 3)))])
    part = st.floats(-0.5, 0.5)
    point = [complex(draw(part), draw(part)) for _ in ring.vars]
    return ring, point, draw(st.booleans())


def _close(got, want):
    """Agreement within 1e-12 relative, the scale at least 1."""
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_float_cases(), st.data())
def test_batch_evaluator_matches_the_scalar_loop(case, data):
    """BatchEvaluator's values are the term-by-term sums of
    ``oracles.evaluate_float``, with real and non-real coefficients."""
    ring, point, real = case
    polys = data.draw(st.lists(_float_polys(ring, real), min_size=1,
                               max_size=4))
    named = dict(zip(ring.vars, point))
    got = BatchEvaluator(polys, ring.vars)(np.array(point))
    for value, p in zip(got, polys):
        assert _close(complex(value), evaluate_float(p, named))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_float_cases(), st.data())
def test_jacobian_evaluator_matches_the_derivatives(case, data):
    """``BatchEvaluator.jacobian`` at j * n + i is
    ``oracles.evaluate_float`` of ``Polynomial.derivative`` of p_j in the
    i-th variable of the evaluator's order, any order of the ring's
    variables; it and the values carry the bits of the dense route."""
    ring, point, real = case
    polys = data.draw(st.lists(_float_polys(ring, real), min_size=1,
                               max_size=4))
    order = data.draw(st.permutations(ring.vars))
    named = dict(zip(ring.vars, point))
    pt = np.array([named[v] for v in order])
    got = BatchEvaluator.jacobian(polys, order)(pt)
    want = [evaluate_float(p.derivative(v), named) for p in polys for v in order]
    assert len(got) == len(want)
    assert all(_close(complex(a), b) for a, b in zip(got, want))
    assert np.array_equal(got.view(np.uint64),
                          dense_jacobian(polys, order)(pt).view(np.uint64))
    assert np.array_equal(BatchEvaluator(polys, order)(pt).view(np.uint64),
                          DenseBatchEvaluator(polys, order)(pt).view(np.uint64))


def test_batch_evaluator_edge_cases():
    """A constant, the zero polynomial, a variable no term uses and one term
    alone at the top exponent: values and Jacobian agree with the scalar
    loop, at a general point and at the origin."""
    ring = PolyRing(["x", "y", "z"])
    x, y = ring.var("x"), ring.var("y")
    systems = [
        [ring.const(G(3, -2))],
        [ring.zero()],
        [ring.zero(), ring.const(5), ring.zero()],
        [x * y + ring.const(G(0, 1)), y * y],            # z unused
        [poly_pow(x, 7) * y - y, x + ring.one()],   # x^7 alone at the top
    ]
    for polys in systems:
        for point in ([0.3 - 0.2j, -0.45 + 0.1j, 0.25j], [0j, 0j, 0j]):
            named = dict(zip(ring.vars, point))
            values = BatchEvaluator(polys, ring.vars)(np.array(point))
            assert [complex(v) for v in values] == pytest.approx(
                [evaluate_float(p, named) for p in polys], rel=1e-12, abs=1e-12)
            jac = BatchEvaluator.jacobian(polys, ring.vars)(np.array(point))
            want = [evaluate_float(p.derivative(v), named)
                    for p in polys for v in ring.vars]
            assert [complex(v) for v in jac] == pytest.approx(want, rel=1e-12,
                                                               abs=1e-12)


def _bit_points(n, rng):
    """Random complex points, real points with negative coordinates, points
    with one zero coordinate, and the origin."""
    def cplx():
        return rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
    points = [cplx() for _ in range(3)]
    points += [rng.uniform(-0.5, 0.5, n).astype(complex) for _ in range(2)]
    for k in sorted({0, n // 2, n - 1}):
        pt = cplx()
        pt[k] = 0
        points.append(pt)
    points.append(np.zeros(n, dtype=complex))
    return points


@pytest.mark.parametrize("spec", DESK + ["typeI:1,1", "typeI:2,3", "typeIII:3"])
def test_metric_engine_bits_match_the_dense_route(families, spec):
    """The metric engine's psi values, Jacobian entries and metric are the
    bits of the dense route (``oracles.DenseBatchEvaluator`` on psi and on
    its ``Polynomial.derivative``s, the weighted Jacobian formed twice)."""
    fam = families[spec] if spec in families else SegreFamily(build_space(spec))
    space = fam.space
    polys, order = list(space.pairing_psi), list(space.vars)
    psi, jac = DenseBatchEvaluator(polys, order), dense_jacobian(polys, order)
    rng = np.random.default_rng(5)
    for weights in ("plain", "invariant"):
        eng = metric_engine(fam, weights)
        for pt in _bit_points(space.n, rng):
            v, J = psi(pt), jac(pt)
            assert np.array_equal(eng.psi_eval(pt).view(np.uint64),
                                  v.view(np.uint64))
            assert np.array_equal(eng.jac_eval(pt).view(np.uint64),
                                  J.view(np.uint64))
            rho = 1.0 + float(np.real((eng.w * v) @ v.conj()))
            J = J.reshape(len(polys), space.n)
            H = (eng.w[:, None] * J).T @ J.conj()
            b = (eng.w[:, None] * J).T @ v.conj()
            g = (rho * H - np.outer(b, b.conj())) / rho ** 2
            assert np.array_equal(eng.metric(pt)[0].view(np.uint64),
                                  g.view(np.uint64))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_float_cases(), st.data())
def test_map_values_match_the_scalar_loop(case, data):
    """The map checks' compiled components and Jacobian entries are the
    quotients of ``oracles.evaluate_float_fraction``; each denominator is
    1 plus terms of coefficient at most 1/8, so it keeps away from 0 on the
    sample box."""
    ring, point, real = case
    comps = tuple(PolyFraction(
        data.draw(_float_polys(ring, real)) + ring.var(v),
        data.draw(_float_polys(ring, real, _SMALL, constant=1)))
        for v in ring.vars)
    F = RationalMap(ring, comps)
    image, J = _MapValues(F)(point)
    named = dict(zip(ring.vars, point))
    assert all(_close(a, b) for a, b in zip(image, evaluate_float_map(F, point)))
    want = [[evaluate_float_fraction(f, named) for f in row]
            for row in F.jacobian_fractions()]
    assert J.shape == (len(comps), len(comps))
    assert all(_close(complex(J[i, k]), want[i][k])
               for i in range(len(comps)) for k in range(len(comps)))


def test_volume_equation(disc_family):
    fam = disc_family
    sp = fam.space
    ident = identity_map(sp)
    assert volume_equation_check(fam, [ident], [1.0], 20, seed=3) < 1e-12
    assert volume_equation_check(fam, [ident, ident], [0.5, 0.5], 20, seed=3) < 1e-12
    assert volume_equation_check(fam, [_unitary_map(sp)], [1.0], 20, seed=3) < 1e-9
    # wrong weights must fail by a visible margin
    assert volume_equation_check(fam, [ident], [0.7], 20, seed=3) > 0.1


def test_isometry_pullback(disc_family):
    fam = disc_family
    sp = fam.space
    assert isometry_pullback_check(fam, identity_map(sp), 8, seed=3) < 1e-12
    assert isometry_pullback_check(fam, _unitary_map(sp), 8, seed=3) < 1e-9
    margin = isometry_pullback_check(fam, scaling_map(sp, 2), 0, seed=3,
                                     points=[[0.2]])
    assert margin > 0.1


def test_volume_equation_grassmannian(families):
    """The compound-induced fractional-linear map on the Grassmannian is an
    isometry, so it satisfies the volume equation with unit weight."""
    fam = families["typeI:2,2"]
    sp = fam.space
    r = sp.ring
    c, s = Fraction(3, 5), Fraction(4, 5)
    # Moebius data of the rational orthogonal Givens rotation mixing frame
    # row 1 with column row 1:  Z -> (A + ZC)^{-1} (B + ZD)
    A = [[r.const(c), r.zero()], [r.zero(), r.one()]]
    B = [[r.const(s), r.zero()], [r.zero(), r.zero()]]
    Cm = [[r.const(-s), r.zero()], [r.zero(), r.zero()]]
    D = [[r.const(c), r.zero()], [r.zero(), r.one()]]
    Z = [[r.var("z1_1"), r.var("z1_2")], [r.var("z2_1"), r.var("z2_2")]]
    left = [[A[i][j] + sum((Z[i][k] * Cm[k][j] for k in range(2)), r.zero())
             for j in range(2)] for i in range(2)]
    right = [[B[i][j] + sum((Z[i][k] * D[k][j] for k in range(2)), r.zero())
              for j in range(2)] for i in range(2)]
    det = left[0][0] * left[1][1] - left[0][1] * left[1][0]
    adj = [[left[1][1], -left[0][1]], [-left[1][0], left[0][0]]]
    comps = []
    for i in range(2):
        for j in range(2):
            num = adj[i][0] * right[0][j] + adj[i][1] * right[1][j]
            comps.append(PolyFraction(num, det))
    F = RationalMap(r, tuple(comps))
    assert volume_equation_check(fam, [F], [1.0], 12, seed=5) < 1e-9
    assert isometry_pullback_check(fam, F, 8, seed=5) < 1e-9


def volume_equation_complexified(fam, maps, lambdas, sample_count, seed):
    """Two-variable (polarized) form of the volume equation at independent
    sample pairs; the diagonal xi = conj(z) anchor is the plain check.

    Valid for maps with real rational coefficients (their conjugate maps
    coincide with themselves), which covers the shipped isometry families."""
    space = fam.space
    lam = space.desc.genus
    eng = metric_engine(fam, "invariant")
    rng = rng_from_seed(seed)
    jacs = [F.jacobian_fractions() for F in maps]

    def rho_pair(a, b):
        va = eng.psi_eval(np.asarray(a, dtype=complex))
        vb = eng.psi_eval(np.asarray(b, dtype=complex))
        return 1.0 + complex((eng.w * va) @ vb)

    def jac_det(jac, pt):
        named = {v: complex(pt[i]) for i, v in enumerate(space.vars)}
        return complex(np.linalg.det([[evaluate_float_fraction(f, named)
                                       for f in row] for row in jac]))

    worst = 0.0
    for _ in range(sample_count):
        z = random_complex_ball(rng, space.n, 0.15)
        xi = random_complex_ball(rng, space.n, 0.15)
        lhs = sum(weight * jac_det(jac, z) * jac_det(jac, xi)
                  / rho_pair(evaluate_float_map(F, z),
                             evaluate_float_map(F, xi)) ** lam
                  for F, jac, weight in zip(maps, jacs, lambdas))
        worst = max(worst, abs(lhs * rho_pair(z, xi) ** lam - 1.0))
    return worst


def test_volume_equation_complexified(disc_family):
    fam = disc_family
    sp = fam.space
    ident = identity_map(sp)
    assert volume_equation_complexified(fam, [ident], [1.0], 10, seed=3) < 1e-10
    assert volume_equation_complexified(fam, [ident, ident], [0.5, 0.5],
                                        10, seed=3) < 1e-10
    assert volume_equation_complexified(fam, [_unitary_map(sp)], [1.0],
                                        10, seed=3) < 1e-8


def test_type2_square_identity_order_six():
    """Convention fixed at n=4 extends to n=6 (the n=5 case sits in the
    acceptance matrix)."""
    from hermsym.linalg import det_exact
    from hermsym.sampling import random_gauss_point
    from hermsym.spaces import cell_matrix_point
    fam = SegreFamily(build_space("typeII:6"))
    sp = fam.space
    rng = rng_from_seed(13)
    for _ in range(3):
        z = random_gauss_point(rng, sp.vars)
        xi = random_gauss_point(rng, sp.vars)
        rho = fam.rho_at(z, xi)
        Z = cell_matrix_point(sp, z)
        X = cell_matrix_point(sp, xi)
        M = [[(G(1 if i == j else 0)
               + sum((Z[i][k] * X[j][k] for k in range(6)), G(0)))
              for j in range(6)] for i in range(6)]
        assert (rho * rho - det_exact(M)).is_zero()


def test_lambda_undefined_at_point(families):
    """A null conjugate direction with vanishing distinguished slot makes
    the tangent denominators vanish at the incidence point."""
    fam = families["typeIV:3"]
    sp = fam.space
    t = G(Fraction(1, 2))
    xi0 = {"z1": t, "z2": G.i() * t, "z3": G(0)}
    z0 = {"z1": G(-1) / t, "z2": G(0), "z3": G(0)}
    assert fam.rho_at(z0, xi0).is_zero()
    betas = [(0, 0), (1, 0), (0, 1), (2, 0)]
    with pytest.raises(LambdaUndefinedError, match="at point"):
        lambda_determinant(sp, fam, betas, z0, xi0)


def test_oracle_poly_control():
    r = PolyRing(["z1", "z2"])
    control = (r.one() + r.var("z1")) * (r.one() + r.var("z2"))
    res = irreducibility_oracle(control, prime=5)
    assert res.status == "factor_found"
    assert res.factor is not None


def test_symplectic_pairing_laws_per_minor():
    """The paired-coefficient laws hold for each individual minor and each
    independent basis element, not just their aggregation; n=4 exercises
    the mixed law non-vacuously."""
    from hermsym.spaces import build_space, symplectic_pairing_facts
    for n in (3, 4):
        s = build_space(f"typeIII:{n}")
        for m in s.pairing_psi + s.psi:
            groups = {e: {(): c} for e, c in m.terms.items()}
            facts = symplectic_pairing_facts(s, groups)
            assert all(facts.values()), (n, facts)


@pytest.mark.parametrize("law,partner", [
    ("pairing_law_corner", ("z1_2", "z3_3")),
    ("pairing_law_row", ("z1_2", "z2_3")),
    ("pairing_law_diag", ("z1_1", "z2_3")),
])
def test_symplectic_pairing_law_catches_a_doubled_partner(law, partner):
    """Doubling the xi-coefficients of one partner monomial of a law, here
    of degree two, makes that law false on the typeIII:3 groups."""
    from hermsym.spaces import symplectic_pairing_facts
    space = build_space("typeIII:3")
    groups = dict(SegreFamily(space).z_groups)
    assert all(symplectic_pairing_facts(space, groups).values())
    ze = tuple(int(v in partner) for v in space.vars)
    assert groups[ze]
    groups[ze] = {e: c + c for e, c in groups[ze].items()}
    assert not symplectic_pairing_facts(space, groups)[law]


def test_support_claims_symplectic_order_four():
    assert all(support_claims(SegreFamily(build_space("typeIII:4"))).values())


def test_witnesses_larger_desk():
    for spec in ["typeI:2,3", "typeIII:3", "typeII:5"]:
        fam = SegreFamily(build_space(spec))
        sp = fam.space
        w = find_nondegeneracy_witness(fam, seed=3)
        assert w.found and not w.lambda_value.is_zero(), spec
        assert w.max_order_used <= default_order_bound(sp), spec


def test_tangency_exceptional_sixteen():
    fam = SegreFamily(build_space("e16"))
    frame = ("segre", truncated_vars(fam.space))
    expr = as_fraction(rho_flattened(fam))
    beta = [0] * len(frame[1])
    beta[0] = 1
    assert tangent_apply(frame, fam, expr, beta).num.is_zero()
    beta = [0] * len(frame[1])
    beta[-1] = 1
    assert tangent_apply(frame, fam, expr, beta).num.is_zero()


def test_volume_equation_quadric_permutation(families):
    """A coordinate permutation of the quadric cell is an isometry and
    satisfies the volume equation exactly."""
    fam = families["typeIV:3"]
    sp = fam.space
    r = sp.ring
    F = polynomial_map(sp, {"z1": r.var("z2"), "z2": r.var("z3"),
                            "z3": r.var("z1")})
    assert volume_equation_check(fam, [F], [1.0], 15, seed=6) < 1e-12
    assert isometry_pullback_check(fam, F, 8, seed=6) < 1e-12


def test_quadric_gradient_row_structure(families):
    """At xi0 = (1,0,...,0) the conjugate gradient of the incidence equation
    at a point of its Segre variety is exactly (-2 - z1, z2, ..., zn)."""
    fam = families["typeIV:3"]
    xi0, z0, z1 = transversality_recipe(fam, seed=11)
    row = transversality_rank(fam, xi0, z0, z1)[1][0]
    want = [G(-2) - z0["z1"], z0["z2"], z0["z3"]]
    assert all((a - b).is_zero() for a, b in zip(row, want))


def test_grassmannian_gradient_row_structure(families):
    """At xi0 = E11 the conjugate gradient at z in {1 + z11 = 0} carries -1
    in the (1,1) slot, the first row/column entries linearly, and
    -z_i1 z_1j in the mixed slots."""
    fam = families["typeI:2,2"]
    xi0, z0, z1 = transversality_recipe(fam, seed=11)
    row = transversality_rank(fam, xi0, z0, z1)[1][0]
    slots = {v: row[i] for i, v in enumerate(fam.space.vars)}
    assert (slots["z1_1"] - G(-1)).is_zero()
    assert (slots["z1_2"] - z0["z1_2"]).is_zero()
    assert (slots["z2_1"] - z0["z2_1"]).is_zero()
    assert (slots["z2_2"] + z0["z2_1"] * z0["z1_2"]).is_zero()


def test_big_grassmannian_det_identity():
    """The 3x3 Grassmannian pairing needs arbitrary-precision intermediates;
    its family polynomial still matches the exact determinant."""
    from hermsym.linalg import det_exact
    from hermsym.spaces import cell_matrix_point
    from oracles import random_gauss
    fam = SegreFamily(build_space("typeI:3,3"))
    sp = fam.space
    assert sp.N == 19
    rng = rng_from_seed(17)
    for _ in range(3):
        z = {v: random_gauss(rng) for v in sp.vars}   # full-size numerators
        zbar = {v: z[v].conj() for v in sp.vars}
        Z = cell_matrix_point(sp, z)
        M = [[(G(1 if i == j else 0)
               + sum((Z[i][k] * Z[j][k].conj() for k in range(3)), G(0)))
              for j in range(3)] for i in range(3)]
        assert (fam.rho_at(z, zbar) - det_exact(M)).is_zero()


def test_volume_equation_mixed_isometries(disc_family):
    fam = disc_family
    sp = fam.space
    ident = identity_map(sp)
    uni = _unitary_map(sp)
    assert volume_equation_check(fam, [ident, uni], [0.5, 0.5], 20, seed=8) < 1e-9
    assert volume_equation_check(fam, [ident, uni], [0.3, 0.7], 20, seed=8) < 1e-9


def test_witness_for_rational_isometry(families):
    """A fractional-linear isometry F is nondegenerate: the witness search
    finds a witness for psi o F with its denominators cleared.  Each
    component of psi o F is over a power of one linear det, and the search
    runs on all of them times one power of det.  Row beta of h f is
    h(z0) times row beta of f plus rows of f at multiindices below beta,
    so for h(z0) != 0 the scan accepts the same multiindices."""
    fam = families["typeI:2,2"]
    sp = fam.space
    r = sp.ring
    from fractions import Fraction as Fr
    c, s = Fr(3, 5), Fr(4, 5)
    Z = [[r.var("z1_1"), r.var("z1_2")], [r.var("z2_1"), r.var("z2_2")]]
    left = [[r.const(c) - Z[0][0].scale(s), r.zero()],
            [-(Z[1][0].scale(s)), r.one()]]
    right = [[r.const(s) + Z[0][0].scale(c), Z[0][1]],
             [Z[1][0].scale(c), Z[1][1]]]
    det = left[0][0] * left[1][1] - left[0][1] * left[1][0]
    adj = [[left[1][1], -left[0][1]], [-left[1][0], left[0][0]]]
    comps = []
    for i in range(2):
        for j in range(2):
            num = adj[i][0] * right[0][j] + adj[i][1] * right[1][j]
            comps.append(PolyFraction(num, det))
    composed = [compose_full(p, dict(zip(sp.vars, comps))) for p in sp.psi]
    top = max(f.den.degree() for f in composed)
    psi = []
    for f in composed:
        assert f.den == poly_pow(det, f.den.degree())
        psi.append(f.num * poly_pow(det, top - f.den.degree()))
    cleared = SegreFamily(dataclasses.replace(sp, psi=tuple(psi)))
    w = find_nondegeneracy_witness(cleared, seed=5)
    assert w.found and not w.lambda_value.is_zero()


def test_support_claims_negative_control(families):
    """A corrupted pairing vector must trip the support facts: a squared
    entry in one psi component gives rho a z1_1^2 group."""
    import dataclasses
    from hermsym.poly import Polynomial
    from hermsym.segre import SegreFamily
    space = families["typeI:2,2"].space
    psi = list(space.pairing_psi)
    first = psi[0]
    square = tuple(2 if v == "z1_1" else 0 for v in first.ring.vars)
    psi[0] = Polynomial(first.ring, {**first.terms, square: G(1)})
    bad = dataclasses.replace(space, pairing_psi=tuple(psi))
    assert all(support_claims(SegreFamily(space)).values())
    report = support_claims(SegreFamily(bad))
    assert not report["no_squared_entry"]


def test_symbolic_lambda_more_types(families):
    """The slice determinant equals the fully symbolic family-tangent
    determinant on the orthogonal and symplectic Grassmannians at a second
    seed too."""
    for spec in ["typeII:4", "typeIII:2"]:
        _check_symbolic_lambda(families, spec, seed=7)


def test_transversality_recipe_deterministic(families):
    fam = families["e16"]
    a = transversality_recipe(fam, seed=21)
    b = transversality_recipe(fam, seed=21)
    for x, y in zip(a, b):
        assert all((x[v] - y[v]).is_zero() for v in x)


def test_volume_equation_rejects_non_isometry(disc_family):
    fam = disc_family
    sp = fam.space
    assert volume_equation_check(fam, [scaling_map(sp, 2)], [1.0],
                                 10, seed=4) > 0.5


def test_degenerate_composition_relation(families):
    """End-to-end: a jet-degenerate composed system on the Grassmannian
    yields the expected constant coefficient relation on every slice."""
    fam = families["typeI:2,2"]
    rep = degeneracy_relation(list(_degenerate(fam.space).psi), seed=2)
    assert max(rep.residuals) < 1e-10
    import numpy as np
    for s, g in zip(rep.slices, rep.coefficients):
        if s == 0:
            continue
        direction = g / g[0]
        assert np.allclose(direction, [1, 0, 0, -1, 0], atol=1e-8)


def test_witness_one_dimensional_edge(families):
    """n = 1 leaves no truncated variables; the witness degenerates to the
    value row and still certifies."""
    fam = SegreFamily(build_space("typeI:1,1"))
    sp = fam.space
    w = find_nondegeneracy_witness(fam, seed=1)
    assert w.found and w.betas == [()]
    assert jet_rank(sp, 1, seed=1) == [1, 1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_e16_witness_seed_sweep(families, seed):
    fam = families["e16"]
    w = find_nondegeneracy_witness(fam, max_order=11, seed=seed)
    assert w.found and not w.lambda_value.is_zero()
    assert w.max_order_used <= 2
