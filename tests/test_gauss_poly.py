"""Exact scalar and polynomial layer: ring laws, calculus, serialization."""

from fractions import Fraction

import pytest

from hermsym.floats import evaluate_poly
from hermsym.gauss import GaussRational as G
from hermsym.modp import reduce_mod
from hermsym.maps import poly_from_json
from hermsym.poly import PolyRing, PolyFraction
from hermsym.sampling import random_small_gauss, rng_from_seed
from oracles import (as_fraction, compose_full, evaluate_fraction,
                     fractions_equal, is_constant, monomial, normalize,
                     poly_json_reference)


def rnd_poly(ring, rng, max_terms=5, max_deg=3):
    terms = {}
    nv = len(ring.vars)
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nv))
        terms[exp] = random_small_gauss(rng)
    out = ring.zero()
    for e, c in terms.items():
        out = out + monomial(ring, e, c)
    return out


def test_gauss_field_ops():
    a, b = G(1, 2), G(Fraction(3, 4), Fraction(-1, 5))
    assert (a / b) * b == a
    assert a * b == b * a
    assert (a + b).conj() == a.conj() + b.conj()
    assert G.i() * G.i() == G(-1)
    with pytest.raises(ZeroDivisionError):
        a / G(0)


def test_gauss_hash_agrees_with_equality():
    """Equal values hash alike across int, Fraction and GaussRational, so
    sets and dicts may mix them."""
    for x, plain in ((G(3), 3), (G(Fraction(-5, 6)), Fraction(-5, 6)),
                     (G(0), 0), (G(Fraction(4, 2)), 2)):
        assert x == plain and hash(x) == hash(plain)
        assert len({x, plain}) == 1
    assert {G(1, 2): "a"}[G(Fraction(2, 2), 2)] == "a"


def test_values_copy_and_pickle():
    """Scalars, rings, polynomials, fractions and whole spaces survive
    copy, deepcopy and a pickle round trip with equal values."""
    import copy
    import pickle
    from hermsym.spaces import build_space
    r = PolyRing(["z", "w"])
    p = r.var("z").scale(G(Fraction(1, 2), 3)) + r.one()
    values = [G(1, 2), G(Fraction(-7, 3)), r, p, PolyFraction(p, r.var("w") + 2)]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x)
            if isinstance(x, PolyFraction):
                assert y.num == x.num and y.den == x.den
            else:
                assert y == x
    assert pickle.loads(pickle.dumps(G(1, 2))).parts() == (1, 2, 1)
    space = build_space("typeI:2,2")
    assert copy.deepcopy(space) == space
    assert pickle.loads(pickle.dumps(space.psi)) == space.psi
    # the cell table and the null block are left out of equality, so
    # compare them on their own
    for space in (space, build_space("typeIV:3")):
        for y in (copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
            assert y == space and y.cell == space.cell
            assert y.null_block == space.null_block


def test_basic_products():
    r = PolyRing(["z"])
    z = r.var("z")
    assert (r.one() + z) * (r.one() - z) == r.one() - z * z
    p = rnd_poly(r, rng_from_seed(1))
    assert p + r.zero() == p


def test_two_factor_expansion():
    r = PolyRing(["z1", "z2", "xi1", "xi2"])
    z1, z2, x1, x2 = (r.var(v) for v in r.vars)
    lhs = (r.one() + z1 * x1) * (r.one() + z2 * x2)
    rhs = r.one() + z1 * x1 + z2 * x2 + z1 * z2 * x1 * x2
    assert lhs == rhs


def test_ring_mismatch_raises():
    p = PolyRing(["a"]).var("a")
    q = PolyRing(["b"]).var("b")
    with pytest.raises(ValueError, match="variable sets differ"):
        p + q


def test_ring_axioms_random_triples():
    r = PolyRing(["x", "y"])
    rng = rng_from_seed(7)
    for _ in range(12):
        p, q, s = (rnd_poly(r, rng) for _ in range(3))
        assert (p + q) + s == p + (q + s)
        assert p * q == q * p
        assert p * (q + s) == p * q + p * s
        assert (p * q) * s == p * (q * s)


def test_derivatives_commute_and_examples():
    r = PolyRing(["z", "xi"])
    z, xi = r.var("z"), r.var("xi")
    assert (z * z * xi).derivative("z") == z.scale(2) * xi
    assert r.const(5).derivative("xi").is_zero()
    rng = rng_from_seed(3)
    for _ in range(10):
        p = rnd_poly(r, rng)
        assert p.derivative("z").derivative("xi") == p.derivative("xi").derivative("z")
    with pytest.raises(KeyError):
        z.derivative("w")


def test_quadric_family_derivative():
    n = 3
    names = [f"z{i}" for i in range(1, n + 1)] + [f"xi{i}" for i in range(1, n + 1)]
    r = PolyRing(names)
    rho = r.one()
    sz = r.zero()
    sx = r.zero()
    for i in range(1, n + 1):
        rho = rho + r.var(f"z{i}") * r.var(f"xi{i}")
        sz = sz + r.var(f"z{i}") * r.var(f"z{i}")
        sx = sx + r.var(f"xi{i}") * r.var(f"xi{i}")
    rho = rho + (sz * sx).scale(Fraction(1, 4))
    want = r.var("xi1") + (r.var("z1") * sx).scale(Fraction(1, 2))
    assert rho.derivative("z1") == want


def test_evaluate_exact_and_float():
    r = PolyRing(["z", "xi"])
    p = r.one() + r.var("z") * r.var("xi")
    assert p.evaluate({"z": G(2), "xi": G(3)}) == G(7)
    with pytest.raises(KeyError):
        p.evaluate({"z": G(2)})
    rng = rng_from_seed(11)
    for _ in range(10):
        q = rnd_poly(r, rng)
        pt = {"z": random_small_gauss(rng), "xi": random_small_gauss(rng)}
        exact = complex(q.evaluate(pt))
        approx = evaluate_poly(q, {k: complex(v) for k, v in pt.items()})
        assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))


def test_evaluate_is_multiplicative():
    r = PolyRing(["x", "y"])
    rng = rng_from_seed(5)
    for _ in range(10):
        p, q = rnd_poly(r, rng), rnd_poly(r, rng)
        pt = {"x": random_small_gauss(rng), "y": random_small_gauss(rng)}
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_substitute_fraction():
    r = PolyRing(["z", "t"])
    z, t = r.var("z"), r.var("t")
    frac = compose_full(z * z, {"z": PolyFraction(r.one() + t, t)})
    want_num = (r.one() + t) * (r.one() + t)
    assert (frac.num * (t * t) - want_num * frac.den).is_zero()


def test_substitute_hyperplane_restriction():
    """Restricting the quadric family polynomial to a null hyperplane in the
    last variable removes that variable entirely."""
    n = 3
    names = [f"z{i}" for i in range(1, n + 1)] + [f"xi{i}" for i in range(1, n + 1)]
    r = PolyRing(names)
    rho = r.one()
    sz, sx = r.zero(), r.zero()
    for i in range(1, n + 1):
        rho = rho + r.var(f"z{i}") * r.var(f"xi{i}")
        sz = sz + r.var(f"z{i}") * r.var(f"z{i}")
        sx = sx + r.var(f"xi{i}") * r.var(f"xi{i}")
    rho = rho + (sz * sx).scale(Fraction(1, 4))
    mu1 = G.i()
    image = -(r.one() + r.var("z1").scale(mu1))
    out = compose_full(rho, {"z3": PolyFraction(image, r.one())})
    iz = r.index("z3")
    assert all(e[iz] == 0 for e in out.num.terms)
    assert is_constant(out.den)


def test_scaled_point_substitution_builds_pencil_equation():
    """Substituting a scaled base point turns the family polynomial into the
    first equation of the flattening system."""
    names = ["z1", "z2", "xi1", "xi2", "s"]
    r = PolyRing(names)
    rho = r.one() + r.var("z1") * r.var("xi1") + r.var("z2") * r.var("xi2")
    z0 = {"z1": G(2), "z2": G(Fraction(1, 3))}
    scaled = rho
    for v, val in z0.items():
        scaled = compose_full(
            scaled, {v: PolyFraction(r.var("s").scale(val), r.one())}).num
    want = (r.one() + r.var("s") * r.var("xi1").scale(G(2))
            + r.var("s") * r.var("xi2").scale(G(Fraction(1, 3))))
    assert scaled == want


def test_support_and_degree():
    r = PolyRing(["z"])
    p = r.one() + r.var("z") * r.var("z")
    assert set(p.terms) == {(0,), (2,)}
    assert p.degree() == 2
    assert r.zero().degree() == -1


def test_reduce_mod_p():
    r = PolyRing(["z"])
    p = r.var("z").scale(3) + r.one()
    m = reduce_mod(p, 5)
    assert m.terms == {(1,): 3, (0,): 1}
    bad = r.var("z").scale(Fraction(1, 2))
    with pytest.raises(ValueError, match="denominator"):
        reduce_mod(bad, 2)
    imag = r.var("z").scale(G.i())
    with pytest.raises(ValueError, match="non-real"):
        reduce_mod(imag, 5)


def test_json_round_trip():
    r = PolyRing(["z", "w"])
    p = r.var("z").scale(G(Fraction(2, 3), Fraction(-1, 7))) + r.one()
    obj = poly_json_reference(p)
    assert obj["vars"] == ["z", "w"]
    assert all(isinstance(t["re"], str) for t in obj["terms"])
    assert poly_from_json(obj, r) == p


def test_fraction_normalize_keeps_value():
    r = PolyRing(["z"])
    z = r.var("z")
    f = PolyFraction(z * z * (r.one() + z).scale(6), z.scale(3))
    g = normalize(f)
    assert fractions_equal(f, g)
    assert g.den.degree() <= f.den.degree()


def test_substitution_evaluation_commute():
    """Substituting a fraction then evaluating equals evaluating the
    fraction first and plugging the value in."""
    r = PolyRing(["z", "w"])
    rng = rng_from_seed(21)
    frac = PolyFraction(r.one() + r.var("w"), r.const(2) + r.var("w"))
    for _ in range(10):
        p = rnd_poly(r, rng)
        pt = {"z": random_small_gauss(rng), "w": random_small_gauss(rng)}
        image = dict(pt)
        image["z"] = evaluate_fraction(frac, pt)
        direct = p.evaluate(image)
        via_subst = evaluate_fraction(compose_full(p, {"z": frac}), pt)
        assert (direct - via_subst).is_zero()


def test_compose_full_simultaneous_swap():
    """Composition substitutes simultaneously: the coordinate swap must not
    collapse to a repeated variable."""
    r = PolyRing(["z", "w"])
    z, w = r.var("z"), r.var("w")
    p = z * z + w
    swapped = compose_full(p, {"z": as_fraction(w), "w": as_fraction(z)})
    assert is_constant(swapped.den)
    want = w * w + z
    assert (swapped.num - want * swapped.den.constant_term()).is_zero()


def test_compose_full_identity():
    r = PolyRing(["z", "w"])
    rng = rng_from_seed(5)
    p = rnd_poly(r, rng)
    out = compose_full(p, {})
    assert fractions_equal(out, as_fraction(p))
