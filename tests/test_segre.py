"""Segre families: defining polynomial identities, metric and Einstein
structure, projectively induced automorphisms."""

import numpy as np
import pytest
from fractions import Fraction

from hermsym.floats import (EinsteinError, einstein_fit, kahler_metric,
                            metric_engine, ricci_residual)
from hermsym.gauss import GaussRational as G
from hermsym.linalg import det_exact
from hermsym.sampling import random_gauss_point, rng_from_seed
from hermsym.rigidity import (OffVarietyError, generic_conjugate_point,
                              transversality_rank, transversality_recipe)
from hermsym.segre import SegreFamily, build_rho, sample_on_family, conj_name
from hermsym.spaces import build_space, cell_matrix_point, minor_index_sets
from oracles import (evaluate_float, is_constant, partial_evaluate, point_pair,
                     rho_at_float, rho_swap_symmetric, slot_solve_sample,
                     sym_det)

DESK = ["typeI:1,1", "typeI:2,2", "typeII:4", "typeIII:2", "typeIV:3", "e16", "e27"]


@pytest.fixture(scope="module")
def families():
    return {spec: build_rho(build_space(spec)) for spec in DESK}


def test_rho_structure(families):
    for spec, fam in families.items():
        assert rho_swap_symmetric(fam), spec
        zero = {v: G(0) for v in fam.space.vars}
        rest = partial_evaluate(fam.rho, zero)
        assert is_constant(rest) and rest.constant_term() == G(1), spec


def test_rho_examples(families):
    fam = families["typeI:1,1"]
    r = fam.ring
    assert fam.rho == r.one() + r.var("z1_1") * r.var("cz1_1")
    fam = families["typeIV:3"]
    r = fam.ring
    want = r.one()
    sz, sx = r.zero(), r.zero()
    for i in range(1, 4):
        want = want + r.var(f"z{i}") * r.var(f"cz{i}")
        sz = sz + r.var(f"z{i}") * r.var(f"z{i}")
        sx = sx + r.var(f"cz{i}") * r.var(f"cz{i}")
    want = want + (sz * sx).scale(Fraction(1, 4))
    assert fam.rho == want


def test_rho_real_lower_bound(families):
    """rho(z, zbar) = 1 + sum |psi_j(z)|^2 >= 1 at 200 points per space; the
    pairing form is cross-checked against the family polynomial directly on
    a subsample."""
    from hermsym.floats import BatchEvaluator
    rng = np.random.default_rng(0)
    for spec, fam in families.items():
        space = fam.space
        n = space.n
        psi = BatchEvaluator(list(space.pairing_psi), list(space.vars))
        for k in range(200):
            pt = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
            vals = psi(pt)
            rho = 1.0 + float(np.real(vals @ vals.conj()))
            assert rho >= 1.0 - 1e-12
            if k < 5:
                z = {v: pt[i] for i, v in enumerate(space.vars)}
                zbar = {v: complex(z[v]).conjugate() for v in z}
                direct = rho_at_float(fam, z, zbar)
                assert abs(direct.imag) < 1e-9 * max(1.0, rho)
                assert abs(direct.real - rho) < 1e-9 * max(1.0, rho)


def test_type_I_III_det_identity(families):
    rng = rng_from_seed(12)
    for spec in ["typeI:2,2", "typeIII:2"]:
        fam = families[spec]
        space = fam.space
        for _ in range(25):
            z = random_gauss_point(rng, space.vars)
            xi = random_gauss_point(rng, space.vars)
            Z = cell_matrix_point(space, z)
            X = cell_matrix_point(space, xi)
            rows, cols = len(Z), len(Z[0])
            M = [[(G(1 if i == j else 0)
                   + sum((Z[i][k] * X[j][k] for k in range(cols)), G(0)))
                  for j in range(rows)] for i in range(rows)]
            assert (fam.rho_at(z, xi) - det_exact(M)).is_zero()


def test_membership(families):
    fam = families["typeIV:3"]
    xi = {"z1": G(1), "z2": G(0), "z3": G(0)}
    z = {"z1": G(-2), "z2": G(0), "z3": G(0)}
    assert fam.rho_at(z, xi).is_zero()
    for spec, f in families.items():
        origin = {v: G(0) for v in f.space.vars}
        assert not f.rho_at(origin, origin).is_zero()


def test_membership_by_linear_solve(families):
    """Find a family witness by solving the incidence equation linearly in
    one matrix entry."""
    fam = families["typeI:2,2"]
    space = fam.space
    rng = rng_from_seed(3)
    xi = random_gauss_point(rng, space.vars)
    z = random_gauss_point(rng, space.vars)
    pt = point_pair(fam, z, xi)
    del pt["z1_1"]
    rest = partial_evaluate(fam.rho, pt)
    slot = fam.ring.index("z1_1")
    A = sum((c for e, c in rest.terms.items() if e[slot] == 1), G(0))
    B = sum((c for e, c in rest.terms.items() if e[slot] == 0), G(0))
    z["z1_1"] = -(B / A)
    assert fam.rho_at(z, xi).is_zero()


def test_on_family_sampler(families):
    for spec, fam in families.items():
        rng = rng_from_seed(8)
        for _ in range(3):
            z, xi = sample_on_family(fam, rng)
            assert fam.rho_at(z, xi).is_zero(), spec


def test_metric_at_origin(families):
    for spec in ["typeI:1,1", "typeIV:3", "e16"]:
        fam = families[spec]
        ms = kahler_metric(fam, [0.0] * fam.space.n)
        assert np.allclose(ms.g, np.eye(fam.space.n)), spec
        assert abs(ms.volume_density - 1.0) < 1e-12


def test_metric_second_derivative_route(families):
    """Dual route: the Jacobian-pairing metric equals the mixed second
    derivative of the family polynomial at xi = conj(z)."""
    for spec in ["typeI:1,1", "typeIV:3"]:
        fam = families[spec]
        space = fam.space
        n = space.n
        rng = np.random.default_rng(5)
        pt = rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(-0.3, 0.3, n)
        named = {v: pt[i] for i, v in enumerate(space.vars)}
        named.update({conj_name(v): complex(named[v]).conjugate()
                      for v in space.vars})
        expanded = fam.rho
        rho = evaluate_float(expanded, named)
        gdir = np.zeros((n, n), dtype=complex)
        for i, vi in enumerate(space.vars):
            di = expanded.derivative(vi)
            for j, vj in enumerate(space.vars):
                dj = expanded.derivative(conj_name(vj))
                dij = di.derivative(conj_name(vj))
                gdir[i, j] = (evaluate_float(dij, named) * rho
                              - evaluate_float(di, named) * evaluate_float(dj, named)) / rho ** 2
        ms = kahler_metric(fam, list(pt))
        assert np.allclose(gdir, ms.g, atol=1e-12), spec


def test_einstein_fits(families):
    """The fitted exponent is the genus of the per-kind table."""
    for spec, fam in families.items():
        lam, c, res = einstein_fit(fam, 30, seed=5)
        assert lam == fam.space.desc.genus, spec
        assert res < 1e-8, spec
        assert c > 0


def test_einstein_violation_detected(families, monkeypatch):
    """The unit-weight pairing on the 16-dimensional exceptional cell is not
    Einstein; the fit must refuse to round."""
    from hermsym import floats
    from hermsym.segre import SegreFamily
    monkeypatch.setattr(floats, "invariant_weights",
                        lambda space: np.ones(len(space.pairing_psi)))
    with pytest.raises(EinsteinError):
        einstein_fit(SegreFamily(families["e16"].space), 30, seed=5)


def test_ricci_cross_check(families, monkeypatch):
    from hermsym import floats
    monkeypatch.setattr(floats, "RICCI_POINTS", 4)
    assert ricci_residual(families["typeIV:3"], seed=9) < 1e-5
    assert ricci_residual(families["typeI:1,1"], seed=9) < 1e-5


# -- projectively induced maps ---------------------------------------------------

class MapsIntoHyperplaneError(ValueError):
    pass


class NotPreservingError(ValueError):
    pass


def apply_projective_map(space, M, z):
    """Push a cell point through a projective matrix acting on [1, psi].

    Exact mode: ``z`` a dict of GaussRational and ``M`` nested lists of
    GaussRational.  Float mode: ``z`` a complex sequence and ``M`` a numpy
    array.  Returns the image cell point (same shape as the input) and
    verifies the image stays on the embedded variety."""
    if isinstance(z, dict):
        vec = [G(1)] + [p.evaluate(z) for p in space.psi]
        img = [sum((vec[k] * M[k][j] for k in range(len(vec))), G(0))
               for j in range(len(vec))]
        if img[0].is_zero():
            raise MapsIntoHyperplaneError("point maps into hyperplane at infinity")
        out = {v: img[j + 1] / img[0] for j, v in enumerate(space.vars)}
        for j, p in enumerate(space.psi[space.n:]):
            if not (p.evaluate(out) - img[space.n + 1 + j] / img[0]).is_zero():
                raise NotPreservingError("matrix does not preserve the space")
        return out
    point = {v: complex(z[i]) for i, v in enumerate(space.vars)}
    vec = np.array([1.0 + 0j] + [evaluate_float(p, point) for p in space.psi])
    img = vec @ np.asarray(M, dtype=complex)
    if abs(img[0]) < 1e-14:
        raise MapsIntoHyperplaneError("point maps into hyperplane at infinity")
    out = img[1:space.n + 1] / img[0]
    outpoint = {v: out[i] for i, v in enumerate(space.vars)}
    scale = max(1.0, float(np.max(np.abs(img / img[0]))))
    for j, p in enumerate(space.psi[space.n:]):
        want = img[space.n + 1 + j] / img[0]
        if abs(evaluate_float(p, outpoint) - want) > 1e-9 * scale:
            raise NotPreservingError("matrix does not preserve the space")
    return list(out)


def segre_invariance_check(fam, M, Mbar, sample_count, seed):
    """For on-family samples, map (z, xi) by (M, Mbar) and measure rho there.

    A cell kind's samples are generic (z and xi random, one conjugate slot
    solved), so every row of M acts on both points; the other kinds take
    ``sample_on_family``.  Returns (max |rho| over samples, whether every
    value was exactly zero); exact inputs keep the whole computation in
    Gaussian rationals."""
    rng = rng_from_seed(seed)
    space = fam.space
    sample = slot_solve_sample if space.cell is not None else sample_on_family
    exact = not isinstance(M, np.ndarray)
    worst = 0.0
    all_zero = True
    for _ in range(sample_count):
        z, xi = sample(fam, rng)
        if exact:
            val = fam.rho_at(apply_projective_map(space, M, z),
                             apply_projective_map(space, Mbar, xi))
            all_zero = all_zero and val.is_zero()
            worst = max(worst, abs(complex(val)))
        else:
            z2 = apply_projective_map(space, M, [complex(z[v]) for v in space.vars])
            xi2 = apply_projective_map(space, Mbar, [complex(xi[v]) for v in space.vars])
            val = rho_at_float(fam, dict(zip(space.vars, z2)), dict(zip(space.vars, xi2)))
            all_zero = False
            worst = max(worst, abs(val))
    return worst, all_zero


def _type1_subsets(p, q):
    """psi-slot order -> column subset of the widened p x (p+q) frame."""
    subsets = [tuple(range(1, p + 1))]                       # constant slot
    for k, rows, cols in minor_index_sets(p, q):
        keep = tuple(sorted(set(range(1, p + 1)) - set(rows)))
        subsets.append(keep + tuple(p + j for j in cols))
    return subsets


def _type1_signs(space):
    """epsilon with det of frame columns == epsilon * psi, computed symbolically."""
    p, q = space.desc.params
    ring = space.ring
    frame = [[ring.const(1 if i == j else 0) for j in range(1, p + 1)]
             + [ring.var(f"z{i}_{j}") for j in range(1, q + 1)]
             for i in range(1, p + 1)]
    signs = []
    psis = [ring.one()] + list(space.psi)
    for slot, S in enumerate(_type1_subsets(p, q)):
        d = sym_det([[frame[i][s - 1] for s in S] for i in range(p)])
        if d == psis[slot]:
            signs.append(1)
        elif d == -psis[slot]:
            signs.append(-1)
        else:
            raise ArithmeticError("minor does not match embedding slot")
    return signs


def type1_compound_matrix(space, g):
    """The (N+1)x(N+1) matrix acting on [1, psi] induced by g in GL(p+q).

    Entry (a, b) = eps_a * det g[S_a, S_b] * eps_b (Cauchy-Binet transported
    to the signed minor basis).  ``g`` may be exact (nested GaussRational)
    or complex; the output matches."""
    p, q = space.desc.params
    subsets = _type1_subsets(p, q)
    signs = _type1_signs(space)
    if not isinstance(g, np.ndarray):
        return [[det_exact([[g[i - 1][j - 1] for j in Sb] for i in Sa]) * G(sa * sb)
                 for Sb, sb in zip(subsets, signs)] for Sa, sa in zip(subsets, signs)]
    return np.array([[sa * sb * complex(np.linalg.det(
        g[np.ix_([i - 1 for i in Sa], [j - 1 for j in Sb])]))
        for Sb, sb in zip(subsets, signs)] for Sa, sa in zip(subsets, signs)])


def _invert_exact(m):
    n = len(m)
    aug = [[m[i][j] for j in range(n)] + [G(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if not aug[i][k].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = G(1) / aug[k][k]
        aug[k] = [x * inv for x in aug[k]]
        for i in range(n):
            if i != k and not aug[i][k].is_zero():
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def type1_moebius(space, g, z):
    """The fractional-linear action Z -> (g11 + Z g21)^{-1} (g12 + Z g22)."""
    p, q = space.desc.params
    Z = [[G.coerce(z[f"z{i}_{j}"]) for j in range(1, q + 1)] for i in range(1, p + 1)]
    A = [[g[i][j] for j in range(p)] for i in range(p)]
    B = [[g[i][p + j] for j in range(q)] for i in range(p)]
    C = [[g[p + i][j] for j in range(p)] for i in range(q)]
    D = [[g[p + i][p + j] for j in range(q)] for i in range(q)]
    left = [[A[i][j] + sum((Z[i][k] * C[k][j] for k in range(q)), G(0))
             for j in range(p)] for i in range(p)]
    right = [[B[i][j] + sum((Z[i][k] * D[k][j] for k in range(q)), G(0))
              for j in range(q)] for i in range(p)]
    inv = _invert_exact(left)
    return {f"z{i + 1}_{j + 1}": sum((inv[i][k] * right[k][j] for k in range(p)), G(0))
            for i in range(p) for j in range(q)}


def quadric_permutation_matrix(space, perm):
    """Projective matrix permuting the quadric cell coordinates z_1..z_n."""
    size = space.N + 1
    M = [[G(1 if a == b else 0) for b in range(size)] for a in range(size)]
    for i in range(space.n):
        for j in range(space.n):
            M[1 + i][1 + j] = G(1 if perm[i] == j else 0)
    return M


def test_apply_projective_identity(families):
    fam = families["typeI:2,2"]
    space = fam.space
    size = space.N + 1
    M = [[G(1 if i == j else 0) for j in range(size)] for i in range(size)]
    rng = rng_from_seed(2)
    z = random_gauss_point(rng, space.vars)
    out = apply_projective_map(space, M, z)
    assert all((out[v] - z[v]).is_zero() for v in space.vars)


def _givens4():
    """Rational orthogonal 4x4 mixing a frame row with a coordinate row."""
    g = [[G(1 if i == j else 0) for j in range(4)] for i in range(4)]
    c, s = G(Fraction(3, 5)), G(Fraction(4, 5))
    g[0][0], g[0][2], g[2][0], g[2][2] = c, s, -s, c
    return g


def test_compound_matrix_matches_moebius(families):
    fam = families["typeI:2,2"]
    space = fam.space
    g = _givens4()
    M = type1_compound_matrix(space, g)
    rng = rng_from_seed(6)
    for _ in range(5):
        z = random_gauss_point(rng, space.vars)
        via_matrix = apply_projective_map(space, M, z)
        via_moebius = type1_moebius(space, g, z)
        assert all((via_matrix[v] - via_moebius[v]).is_zero() for v in space.vars)


def test_unitary_invariance(families):
    fam = families["typeI:2,2"]
    space = fam.space
    g = _givens4()
    M = type1_compound_matrix(space, g)
    worst, all_zero = segre_invariance_check(fam, M, M, 6, seed=4)
    assert all_zero and worst == 0.0
    # a complex unitary: diagonal phase (3+4i)/5 on the first frame row
    gc = np.eye(4, dtype=complex)
    gc[0, 0] = (3 + 4j) / 5
    Mc = type1_compound_matrix(space, np.asarray(gc))
    worst, _ = segre_invariance_check(fam, Mc, np.conj(Mc), 6, seed=4)
    assert worst < 1e-9


def test_quadric_permutation_invariance(families):
    fam = families["typeIV:3"]
    space = fam.space
    M = quadric_permutation_matrix(space, [1, 2, 0])
    worst, all_zero = segre_invariance_check(fam, M, M, 8, seed=4)
    assert all_zero and worst == 0.0


def test_projective_map_errors(families):
    fam = families["typeI:1,1"]
    space = fam.space
    # [1, z] . M lands on the hyperplane at infinity for z = 1
    M = [[G(0), G(1)], [G(1), G(0)]]
    out = apply_projective_map(space, M, {"z1_1": G(2)})
    assert (out["z1_1"] - G(Fraction(1, 2))).is_zero()
    with pytest.raises(MapsIntoHyperplaneError):
        apply_projective_map(space, M, {"z1_1": G(0)})
    fam2 = build_rho(build_space("typeIV:3"))
    space2 = fam2.space
    bad = [[G(1 if i == j else 0) for j in range(5)] for i in range(5)]
    bad[1][2] = G(1)  # shear off the quadric
    with pytest.raises(NotPreservingError):
        apply_projective_map(space2, bad, {"z1": G(1, 2), "z2": G(Fraction(1, 3)),
                                           "z3": G(Fraction(1, 5))})


def test_membership_float_residual(families):
    fam = families["typeIV:3"]
    z = {"z1": -2.0 + 0j, "z2": 0j, "z3": 0j}
    xi = {"z1": 1.0 + 0j, "z2": 0j, "z3": 0j}
    assert abs(rho_at_float(fam, z, xi)) < 1e-14
    z["z1"] = -1.9 + 0j
    assert abs(rho_at_float(fam, z, xi)) > 1e-3


def test_concurrent_metric_sampling(families):
    """Families are shareable read-only: concurrent metric evaluation from
    a thread pool matches the serial results exactly."""
    import concurrent.futures as cf
    fam = build_rho(build_space("typeII:4"))  # fresh family: engine built under contention
    pts = [[0.01 * (i + 1) + 0.02j * (i + 1)] * fam.space.n for i in range(16)]
    serial = [kahler_metric(fam, p).volume_density for p in pts]
    with cf.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda p: kahler_metric(fam, p).volume_density, pts))
    assert serial == parallel


def test_family_caches_built_once_under_contention():
    """Concurrent first reads of a fresh family's lazy caches share one
    build: every thread sees the same expansion and the same engine."""
    import sys
    import threading
    from hermsym.segre import SegreFamily
    fam = SegreFamily(build_space("typeI:2,3"))
    seen = []
    start = threading.Barrier(8)

    def read():
        start.wait(timeout=60)
        seen.append((fam.z_groups, metric_engine(fam, "invariant")))

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8
    assert all(r is seen[0][0] and e is seen[0][1] for r, e in seen)


@pytest.mark.parametrize("spec", ["typeI:2,2", "typeIV:3", "e16"])
def test_weighting_the_pairing_moves_every_exact_query(monkeypatch, spec):
    """Weighting one index j of ``SegreFamily.pair`` by 2, as the invariant
    weights will, moves rho_at, both gradient blocks, the transversality
    rows (or puts the pencil off its variety) and rho(., xi) at a generic
    xi: each exact query of rho goes through the one pairing."""
    fam = SegreFamily(build_space(spec))
    rng = rng_from_seed(5)
    z, xi = (random_gauss_point(rng, fam.zvars) for _ in range(2))
    recipe = transversality_recipe(fam, seed=7)
    generic = generic_conjugate_point(fam, seed=7)[0]

    def queries():
        try:
            rows = transversality_rank(fam, *recipe)[1]
        except OffVarietyError:
            rows = "off the variety"
        d_z, d_xi = fam.gradients(z, xi)
        return {"rho_at": fam.rho_at(z, xi), "d_z": d_z, "d_xi": d_xi,
                "transversality": rows, "specialize": fam.specialize(generic)}

    before = queries()
    assert before["transversality"] != "off the variety"
    pair, j = SegreFamily.pair, 0

    def weighted(a, b):
        return pair({k: x * 2 if k == j else x for k, x in a.items()}, b)
    monkeypatch.setattr(SegreFamily, "pair", staticmethod(weighted))
    after = queries()
    assert [k for k in before if before[k] == after[k]] == []
