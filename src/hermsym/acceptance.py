"""The acceptance matrix: one callable per criterion, shared by the pytest
suite and the command-line selftest.

Each criterion returns a ``CriterionResult``; float-tolerance failures are
classified separately from logic failures so that a deliberately tightened
tolerance is reported as such.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .gauss import GaussRational
from .linalg import det_exact
from .maps import RationalMap, identity_map, scaling_map
from .octonion import (Octonion, cayley_matrix, freudenthal_forms,
                       freudenthal_jordan_matrix, jordan_det, jordan_product,
                       jordan_trace, mat_eq, symbolic_octonion, M16_VARS)
from .poly import PolyFraction, PolyRing, trial_division_modp
from .rigidity import (degeneracy_relation, find_nondegeneracy_witness,
                       flattening_jacobian, generic_conjugate_point,
                       irreducibility_oracle, jet_rank, support_claims,
                       transversality_rank, transversality_recipe,
                       isometry_pullback_check, volume_equation_check)
from .sampling import random_gauss_point, rng_from_seed, random_small_gauss
from .segre import det_model_holds, einstein_fit, ricci_residual, SegreFamily
from .spaces import build_space, pfaffian

DEFAULT_SEED = 1729
LOOSE_FLOAT_BOUND = 1e-4    # residuals below this are tolerance failures, not logic


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    failure_kind: Optional[str] = None   # 'tolerance' | 'logic' when failed


@dataclass
class Tolerances:
    float_tol: float = 1e-9
    einstein_tol: float = 1e-8
    ricci_tol: float = 1e-5
    degeneracy_tol: float = 1e-10
    claim_head_tol: float = 1e-8
    oracle_budget: int = 10 ** 7


_FAMILIES: Dict[str, SegreFamily] = {}
_FAMILIES_BOUND = 16                # above the 11 spaces of the selftest
_FAMILIES_LOCK = threading.Lock()


def family(spec: str) -> SegreFamily:
    """The shared family of ``spec``, built once; a full cache drops its oldest."""
    fam = _FAMILIES.get(spec)
    if fam is None:
        with _FAMILIES_LOCK:
            fam = _FAMILIES.get(spec)
            if fam is None:
                if len(_FAMILIES) >= _FAMILIES_BOUND:
                    del _FAMILIES[next(iter(_FAMILIES))]
                fam = _FAMILIES[spec] = SegreFamily(build_space(spec))
    return fam


def _float_result(name: str, residual: float, tol: float, detail: str,
                  elapsed: float) -> CriterionResult:
    if residual < tol:
        return CriterionResult(name, True, detail, elapsed)
    kind = "tolerance" if residual < LOOSE_FLOAT_BOUND else "logic"
    return CriterionResult(name, False, detail, elapsed, kind)


# -- criterion 1 -------------------------------------------------------------

def check_embedding_identity(seed: int = DEFAULT_SEED,
                             tol: Optional[Tolerances] = None,
                             points: int = 100) -> CriterionResult:
    t0 = time.perf_counter()
    rng = rng_from_seed(seed)
    bad = []
    for spec in ["typeI:1,2", "typeI:2,2", "typeI:2,3", "typeIII:2", "typeIII:3"]:
        fam = family(spec)
        space = fam.space
        for _ in range(points):
            z = random_gauss_point(rng, space.vars, small=True)
            if not det_model_holds(fam, z, {v: z[v].conj() for v in space.vars}):
                bad.append(spec)
                break
    elapsed = time.perf_counter() - t0
    if bad:
        return CriterionResult("embedding_identity", False,
                               f"mismatch for {bad}", elapsed, "logic")
    return CriterionResult("embedding_identity", True,
                           f"exact at {points} points x 5 spaces", elapsed)


# -- criterion 2 -------------------------------------------------------------

def check_pfaffian_suite(seed: int = DEFAULT_SEED,
                         tol: Optional[Tolerances] = None) -> CriterionResult:
    t0 = time.perf_counter()
    rng = rng_from_seed(seed)
    ring = PolyRing(("t",))

    def random_antisym(order):
        M = [[ring.zero()] * order for _ in range(order)]
        for i in range(order):
            for j in range(i + 1, order):
                v = ring.const(random_small_gauss(rng))
                M[i][j] = v
                M[j][i] = -v
        return M

    for order in range(2, 9):          # odd orders vanish on both routes
        M = random_antisym(order)
        if pfaffian(M, "partition") != pfaffian(M, "recursive"):
            return CriterionResult("pfaffian_suite", False,
                                   f"algorithms disagree at order {order}",
                                   time.perf_counter() - t0, "logic")
    for order in range(2, 7):
        M = random_antisym(order)
        pf = pfaffian(M, "partition").constant_term()
        det = det_exact(
            [[M[i][j].constant_term() for j in range(order)] for i in range(order)])
        if not (pf * pf - det).is_zero():
            return CriterionResult("pfaffian_suite", False,
                                   f"pf^2 != det at order {order}",
                                   time.perf_counter() - t0, "logic")
    # family polynomial squared equals det(I + Z Xi^t), convention fixed at
    # n=4 and then asserted at n=5
    for n in (4, 5):
        fam = family(f"typeII:{n}")
        space = fam.space
        for _ in range(10):
            z = random_gauss_point(rng, space.vars, small=True)
            xi = random_gauss_point(rng, space.vars, small=True)
            if not det_model_holds(fam, z, xi):
                return CriterionResult(
                    "pfaffian_suite", False,
                    f"rho^2 != det(I+Z Xi^t) at n={n}", time.perf_counter() - t0,
                    "logic")
    return CriterionResult("pfaffian_suite", True,
                           "partition==recursive (2-8); pf^2=det (2-6); "
                           "rho^2=det at n=4,5", time.perf_counter() - t0)


# -- criterion 3 -------------------------------------------------------------

def check_octonion_suite(seed: int = DEFAULT_SEED,
                         tol: Optional[Tolerances] = None) -> CriterionResult:
    t0 = time.perf_counter()
    zero, one = GaussRational(0), GaussRational(1)
    basis = [Octonion.basis(k, one, zero) for k in range(8)]
    for i in range(8):
        for j in range(8):
            prod = basis[i] * basis[j]
            if i == 0 and prod != basis[j]:
                return CriterionResult("octonion_suite", False, "e0 not identity",
                                       time.perf_counter() - t0, "logic")
            if j == 0 and prod != basis[i]:
                return CriterionResult("octonion_suite", False, "e0 not identity",
                                       time.perf_counter() - t0, "logic")
            if i == j and i >= 1:
                if prod != Octonion.scalar(GaussRational(-1), zero):
                    return CriterionResult("octonion_suite", False,
                                           f"e{i}^2 != -1", time.perf_counter() - t0,
                                           "logic")
            if 1 <= i != j >= 1:
                anti = basis[j] * basis[i]
                if not (prod + anti).is_zero():
                    return CriterionResult("octonion_suite", False,
                                           f"e{i} e{j} not antisymmetric",
                                           time.perf_counter() - t0, "logic")
    rng = rng_from_seed(seed)

    def rnd_oct():
        return Octonion([random_small_gauss(rng) for _ in range(8)])

    for _ in range(100):
        a, b = rnd_oct(), rnd_oct()
        if not ((a * b).norm() - a.norm() * b.norm()).is_zero():
            return CriterionResult("octonion_suite", False,
                                   "norm not multiplicative", time.perf_counter() - t0,
                                   "logic")
    ring = PolyRing(M16_VARS)
    x = symbolic_octonion(ring, "x")
    y = symbolic_octonion(ring, "y")
    X = cayley_matrix(x, y)
    XX = jordan_product(X, X)
    scaled = [[e.scale(jordan_trace(X)) for e in row] for row in X.to_full()]
    if not mat_eq(XX, scaled):
        return CriterionResult("octonion_suite", False,
                               "Cayley identity X o X = tr(X) X failed",
                               time.perf_counter() - t0, "logic")
    if not jordan_det(freudenthal_jordan_matrix()) == freudenthal_forms()[54]:
        return CriterionResult("octonion_suite", False,
                               "jordan_det != cubic coordinate polynomial",
                               time.perf_counter() - t0, "logic")
    return CriterionResult("octonion_suite", True,
                           "table laws, norm multiplicativity, Cayley identity, "
                           "det==cubic form", time.perf_counter() - t0)


# -- criterion 4 -------------------------------------------------------------

def check_einstein_fits(seed: int = DEFAULT_SEED,
                        tol: Optional[Tolerances] = None) -> CriterionResult:
    tol = tol or Tolerances()
    t0 = time.perf_counter()
    worst = 0.0
    for spec in ["typeI:1,1", "typeI:1,2", "typeI:2,2", "typeIV:3", "typeII:4",
                 "typeIII:2"]:
        fam = family(spec)
        lam, c, residual = einstein_fit(fam, 50, seed)
        genus = fam.space.desc.genus
        if lam != genus:
            return CriterionResult("einstein_fits", False,
                                   f"{spec}: exponent {lam} != {genus}",
                                   time.perf_counter() - t0, "logic")
        worst = max(worst, residual)
    ricci = ricci_residual(family("typeIV:3"), 10, seed)
    detail = (f"exponents match; constancy residual {worst:.2e}; "
              f"Ricci cross-check {ricci:.2e}")
    if worst >= tol.einstein_tol:
        return _float_result("einstein_fits", worst, tol.einstein_tol, detail,
                             time.perf_counter() - t0)
    return _float_result("einstein_fits", ricci, tol.ricci_tol, detail,
                         time.perf_counter() - t0)


# -- criterion 5 -------------------------------------------------------------

def check_hypothesis_one(seed: int = DEFAULT_SEED,
                         tol: Optional[Tolerances] = None) -> CriterionResult:
    t0 = time.perf_counter()
    desk = ["typeI:2,2", "typeII:4", "typeIII:2", "typeIV:3", "e16", "e27"]
    for spec in desk:
        fam = family(spec)
        space = fam.space
        F = identity_map(space)
        r0 = jet_rank(space, F, 0, trials=2, seed=seed)
        r1 = jet_rank(space, F, 1, trials=2, seed=seed)
        if r0 != 1 or r1 != space.n:
            return CriterionResult(
                "hypothesis_I", False,
                f"{spec}: rank0={r0}, rank1={r1} (expected 1, {space.n})",
                time.perf_counter() - t0, "logic")
    bounds = {"typeI:2,2": 2, "typeII:4": 2, "typeIII:2": 2, "typeIV:3": 2,
              "e16": 11}
    details = []
    for spec, bound in bounds.items():
        fam = family(spec)
        w = find_nondegeneracy_witness(fam.space, fam, identity_map(fam.space),
                                       max_order=bound, seed=seed)
        if not w.found or w.lambda_value.is_zero():
            return CriterionResult("hypothesis_I", False,
                                   f"{spec}: no witness within order {bound}",
                                   time.perf_counter() - t0, "logic")
        details.append(f"{spec}@{w.max_order_used}")
    fam = family("e27")
    w27 = find_nondegeneracy_witness(fam.space, fam, identity_map(fam.space),
                                     seed=seed, budget=6000)
    e27_note = (f"e27 witness {'found' if w27.found else 'not-found-within-budget'} "
                f"(order {w27.max_order_used}, {w27.candidates_examined} candidates)")
    return CriterionResult("hypothesis_I", True,
                           "ranks ok; witnesses " + ", ".join(details) +
                           "; " + e27_note, time.perf_counter() - t0)


# -- criterion 6 -------------------------------------------------------------

def check_hypothesis_two(seed: int = DEFAULT_SEED,
                         tol: Optional[Tolerances] = None) -> CriterionResult:
    t0 = time.perf_counter()
    gradients = {}
    for spec in ["typeI:2,2", "typeII:4", "typeIII:2", "typeIV:3", "e16", "e27"]:
        fam = family(spec)
        xi0, z0, z1 = transversality_recipe(fam, seed)
        r, gradients[spec] = transversality_rank(fam, xi0, z0, z1)
        if r != 2:
            return CriterionResult("hypothesis_II", False,
                                   f"{spec}: transversality rank {r} != 2",
                                   time.perf_counter() - t0, "logic")
    for spec in ["typeIV:3", "typeI:2,2"]:
        det, slots = flattening_jacobian(gradients[spec])
        if det.is_zero():
            return CriterionResult("hypothesis_II", False,
                                   f"{spec}: flattening Jacobian vanished",
                                   time.perf_counter() - t0, "logic")
    return CriterionResult("hypothesis_II", True,
                           "rank 2 on all six recipes; flattening Jacobian "
                           "nonzero on quadric and Grassmannian",
                           time.perf_counter() - t0)


# -- criterion 7 -------------------------------------------------------------

def check_hypothesis_three(seed: int = DEFAULT_SEED,
                           tol: Optional[Tolerances] = None) -> CriterionResult:
    tol = tol or Tolerances()
    t0 = time.perf_counter()
    for spec in ["typeI:2,2", "typeII:4", "typeIII:3", "typeIV:3", "e16", "e27"]:
        report = support_claims(family(spec))
        if not all(report.values()):
            failed = [k for k, v in report.items() if not v]
            return CriterionResult("hypothesis_III", False,
                                   f"{spec}: support facts failed {failed}",
                                   time.perf_counter() - t0, "logic")
    for spec in ["typeIV:3", "typeI:2,2"]:
        fam = family(spec)
        xi = generic_conjugate_point(fam, seed)
        res = irreducibility_oracle(fam, xi, prime=5, budget=tol.oracle_budget)
        if res.status != "irreducible_certified":
            return CriterionResult("hypothesis_III", False,
                                   f"{spec}: oracle returned {res.status}",
                                   time.perf_counter() - t0, "logic")
    ring = PolyRing(["z1", "z2"])
    control = (ring.one() + ring.var("z1")) * (ring.one() + ring.var("z2"))
    factor, _ = trial_division_modp(control.reduce_mod(5), 1, tol.oracle_budget)
    if factor is None:
        return CriterionResult("hypothesis_III", False,
                               "oracle missed the reducible control",
                               time.perf_counter() - t0, "logic")
    return CriterionResult("hypothesis_III", True,
                           "support facts on all six; oracle certified the "
                           "quadric and the Grassmannian over F5; control refuted",
                           time.perf_counter() - t0)


# -- criterion 8 -------------------------------------------------------------

def _unitary_moebius_map(space) -> RationalMap:
    ring = space.ring
    z = ring.var("z1_1")
    num = ring.const(Fraction(4, 5)) + z.scale(Fraction(3, 5))
    den = ring.const(Fraction(3, 5)) - z.scale(Fraction(4, 5))
    return RationalMap(ring, (PolyFraction(num, den),))


def check_volume_isometry(seed: int = DEFAULT_SEED,
                          tol: Optional[Tolerances] = None) -> CriterionResult:
    tol = tol or Tolerances()
    t0 = time.perf_counter()
    fam = family("typeI:1,1")
    space = fam.space
    ident = identity_map(space)
    unitary = _unitary_moebius_map(space)
    residuals = {
        "volume_identity": volume_equation_check(fam, [ident], [1.0], 25, seed),
        "volume_half_half": volume_equation_check(fam, [ident, ident],
                                                  [0.5, 0.5], 25, seed),
        "volume_unitary": volume_equation_check(fam, [unitary], [1.0], 25, seed),
        "isometry_identity": isometry_pullback_check(fam, ident, 10, seed),
        "isometry_unitary": isometry_pullback_check(fam, unitary, 10, seed),
    }
    worst = max(residuals.values())
    margin = isometry_pullback_check(fam, scaling_map(space, 2), 0, seed,
                                     points=[[0.2]])
    detail = (f"residuals <= {worst:.2e}; scaling map margin {margin:.3f}")
    if margin <= 0.1:
        return CriterionResult("volume_isometry", False,
                               f"scaling map margin {margin:.3f} <= 0.1",
                               time.perf_counter() - t0, "logic")
    return _float_result("volume_isometry", worst, tol.float_tol, detail,
                         time.perf_counter() - t0)


# -- criterion 9 -------------------------------------------------------------

def check_degeneracy_extraction(seed: int = DEFAULT_SEED,
                                tol: Optional[Tolerances] = None) -> CriterionResult:
    tol = tol or Tolerances()
    t0 = time.perf_counter()
    r2 = PolyRing(["z1", "z2"])
    z1, z2 = r2.var("z1"), r2.var("z2")
    one2 = r2.one()
    r3 = PolyRing(["z1", "z2", "z3"])
    w1, w2, w3 = r3.var("z1"), r3.var("z2"), r3.var("z3")
    inputs = [
        [z1, z2, z1 * z1, z1 * z1 * (one2 + z2)],
        [z1, z2, z1 * z2, z1 * z2 * (one2 + z2 + z2 * z2)],
        [w1, w2, w3, w1 * w3, w1 * w3 * (r3.one() + r3.one() + w3)],
    ]
    worst_res, worst_head = 0.0, 0.0
    for polys in inputs:
        rep = degeneracy_relation(polys, slice_count=3, seed=seed)
        worst_res = max(worst_res, max(rep.residuals))
        worst_head = max(worst_head, rep.zero_slice_head_max)
    detail = f"residual {worst_res:.2e}; zero-slice head {worst_head:.2e}"
    if worst_res >= tol.degeneracy_tol:
        return _float_result("degeneracy_extraction", worst_res,
                             tol.degeneracy_tol, detail, time.perf_counter() - t0)
    return _float_result("degeneracy_extraction", worst_head,
                         tol.claim_head_tol, detail, time.perf_counter() - t0)


ALL_CRITERIA: List[Callable] = [
    check_embedding_identity,
    check_pfaffian_suite,
    check_octonion_suite,
    check_einstein_fits,
    check_hypothesis_one,
    check_hypothesis_two,
    check_hypothesis_three,
    check_volume_isometry,
    check_degeneracy_extraction,
]


def run_all(seed: int = DEFAULT_SEED,
            tol: Optional[Tolerances] = None) -> List[CriterionResult]:
    tol = tol or Tolerances()
    return [fn(seed=seed, tol=tol) for fn in ALL_CRITERIA]
