"""The checks: one function per claim on one space, and the acceptance
matrix built from them.

The command-line handlers and the selftest criteria call the same per-space
checks, so each claim is verified by one piece of code.  A criterion body
states its claims: it returns its detail string or raises ``CheckFailed``,
and the ``criterion`` decorator turns either into a ``CriterionResult``.
Float-tolerance failures are classified separately from logic failures so
that a deliberately tightened tolerance is reported as such.  A criterion
gets its families from a memo that lives for the run that calls it.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .gauss import GaussRational
from .linalg import det_exact
from .maps import RationalMap, identity_map, scaling_map
from .octonion import (Octonion, cayley_matrix, freudenthal_forms,
                       freudenthal_jordan_matrix, jordan_det, jordan_trace,
                       mat_eq, mat_mul, symbolic_octonion, M16_VARS)
from .floats import (VOLUME_SAMPLES, degeneracy_relation, einstein_fit,
                     isometry_pullback_check, ricci_residual, volume_equation_check)
from .poly import PolyFraction, PolyRing
from .rigidity import (ORACLE_BUDGET, ORACLE_PRIME, WITNESS_BUDGET,
                       OracleResult, WitnessReport, find_nondegeneracy_witness,
                       generic_conjugate_point, irreducibility_oracle,
                       jet_rank, support_claims,
                       transversality_rank, transversality_recipe)
from .sampling import random_gauss_point, rng_from_seed, random_small_gauss
from .segre import det_model_holds, sample_on_family, SegreFamily
from .spaces import antisymmetric_cell, build_space, pf_expansion

DEFAULT_SEED = 1729
LOOSE_FLOAT_BOUND = 1e-4    # residuals below this are tolerance failures, not logic
RICCI_TOL = 1e-5            # Ricci cross-check of the Einstein criterion
DEGENERACY_TOL = 1e-10      # relation residual of the degeneracy criterion
CLAIM_HEAD_TOL = 1e-8       # zero-slice head of the degeneracy criterion
EMBEDDING_POINTS = 100      # random points per space of the embedding identity
ISOMETRY_POINTS = 10        # random points per map of the isometry criterion
EINSTEIN_SAMPLES = 50       # sample points of each Einstein fit


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    failure_kind: Optional[str] = None   # 'tolerance' | 'logic' when failed


@dataclass
class Tolerances:
    """The tolerances that the --float-tol and --einstein-tol flags set."""
    float_tol: float = 1e-9
    einstein_tol: float = 1e-8


# ---------------------------------------------------------------------------
# per-space checks, shared by the command line and the criteria
# ---------------------------------------------------------------------------

def det_pairing_holds(fam: SegreFamily, rng, points: int) -> bool:
    """rho(z, zbar)^k equals the exact determinant det(I + Z conj(Z)^t) at
    ``points`` random rational points drawn from ``rng``."""
    space = fam.space
    for _ in range(points):
        z = random_gauss_point(rng, space.vars)
        if not det_model_holds(fam, z, {v: z[v].conj() for v in space.vars}):
            return False
    return True


def unit_at_origin(fam: SegreFamily) -> bool:
    """Whether rho(0, .) = 1 + sum_j psi_j(0) psi_j is the constant 1."""
    return fam.specialize({v: GaussRational(0) for v in fam.zvars}) == 1


@dataclass
class EinsteinCheck:
    """The Einstein fit of one space and the exact identities of its rho.
    ``identity_checks["swap_symmetric"]`` is always True and is not
    computed: rho pairs one vector psi with itself, so the z <-> xi swap
    symmetry holds by construction.  The key stays so that ``einstein``
    reports keep their bytes."""
    lam: int
    c: float
    residual: float
    genus: int
    identity_checks: Dict[str, Optional[bool]]   # None: no model on this kind

    @property
    def identities_hold(self) -> bool:
        return all(v for v in self.identity_checks.values() if v is not None)

    def passed(self, tol: float) -> bool:
        # the fit must land on the genus, the exponent the other commands use
        return (self.residual < tol and self.lam == self.genus
                and self.identities_hold)


def einstein_check(fam: SegreFamily, seed: int, samples: int) -> EinsteinCheck:
    """The Einstein condition V = c rho^-lambda fitted from ``samples``
    points, with the exact identities of rho.  The determinant pairing is
    checked on the kinds whose model is rho = det(I + Z Xi^t); the squared
    Pfaffian model is a selftest criterion."""
    lam, c, residual = einstein_fit(fam, samples, seed)
    identity_checks = {
        "swap_symmetric": True,     # by construction, see EinsteinCheck
        "unit_at_origin": unit_at_origin(fam),
        "det_pairing_exact": (det_pairing_holds(fam, rng_from_seed(seed), 5)
                              if fam.space.kind.det_power == 1 else None),
    }
    return EinsteinCheck(lam, c, residual, fam.space.desc.genus, identity_checks)


@dataclass
class HypothesisOne:
    rank0: int
    rank1: int
    cell_dimension: int
    witness: WitnessReport

    @property
    def ranks_ok(self) -> bool:
        return self.rank0 == 1 and self.rank1 == self.cell_dimension

    @property
    def passed(self) -> bool:
        return self.ranks_ok and self.witness.found


def hypothesis_one(fam: SegreFamily, seed: int, max_order: Optional[int],
                   budget: int) -> HypothesisOne:
    """Hypothesis I for the identity map: jet ranks 1 and n at orders 0 and
    1, and an exact nondegeneracy witness of order at most ``max_order``
    (None: the per-kind bound) within ``budget`` candidates per trial."""
    space = fam.space
    F = identity_map(space)
    r0, r1 = jet_rank(space, F, 1, seed)
    w = find_nondegeneracy_witness(fam, F, max_order, seed, budget)
    return HypothesisOne(r0, r1, space.n, w)


@dataclass
class HypothesisTwo:
    pencil: Tuple[Dict, Dict, Dict]          # (xi0, z0, z1)
    rank: int
    jacobian: Optional[GaussRational]        # None below rank 2, else nonzero
    slots: Optional[Tuple[int, int]]

    @property
    def passed(self) -> bool:
        return self.rank == 2


def hypothesis_two(fam: SegreFamily, seed: int) -> HypothesisTwo:
    """Hypothesis II: the transversality rank of the per-kind pencil and,
    at rank 2, the exact flattening Jacobian with its slot pair."""
    xi0, z0, z1 = transversality_recipe(fam, seed)
    rank, _, jacobian, slots = transversality_rank(fam, xi0, z0, z1)
    return HypothesisTwo((xi0, z0, z1), rank, jacobian, slots)


def oracle_check(fam: SegreFamily, seed: int, prime: int,
                 budget: int) -> Tuple[Dict, OracleResult]:
    """The finite-field irreducibility oracle on rho(., xi), at a generic
    rational xi admissible modulo ``prime``: (xi, result)."""
    xi, poly = generic_conjugate_point(fam, seed, prime=prime)
    return xi, irreducibility_oracle(poly, prime=prime, budget=budget)


def regular_locus_nonempty(fam: SegreFamily, seed: int) -> bool:
    """A family point at which both gradient blocks of rho are nonzero: the
    computable shadow of the connectivity statement."""
    rng = rng_from_seed(seed + 1)
    for _ in range(8):
        z, xi = sample_on_family(fam, rng)
        d_z, d_xi = fam.gradients(z, xi)
        if (any(not d.is_zero() for d in d_z)
                and any(not d.is_zero() for d in d_xi)):
            return True
    return False


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """A criterion's claim is false; ``kind`` is 'logic' or 'tolerance'."""

    def __init__(self, detail: str, kind: str = "logic"):
        super().__init__(detail, kind)


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(detail)


def _within(residual: float, tol: float, detail: str) -> None:
    """A float claim: a miss below LOOSE_FLOAT_BOUND is a tolerance failure,
    a larger one (or NaN) a logic failure."""
    if not residual < tol:
        raise CheckFailed(detail, "tolerance" if residual < LOOSE_FLOAT_BOUND
                          else "logic")


def _families() -> Callable[[str], SegreFamily]:
    """A memo for one run: the family of a spec, built on its first request."""
    return functools.cache(lambda spec: SegreFamily(build_space(spec)))


def criterion(name: str):
    """Make a criterion body ``(seed, tol, family) -> detail`` return a
    ``CriterionResult`` under ``name``; called without a ``family`` memo,
    the criterion makes its own, shared by its own requests."""
    def wrap(body):
        @functools.wraps(body)
        def check(seed: int = DEFAULT_SEED, tol: Optional[Tolerances] = None,
                  family: Optional[Callable] = None) -> CriterionResult:
            try:
                detail = body(seed, tol or Tolerances(), family or _families())
            except CheckFailed as exc:
                return CriterionResult(name, False, *exc.args)
            return CriterionResult(name, True, detail)
        return check
    return wrap


@criterion("embedding_identity")
def check_embedding_identity(seed, tol, family):
    rng = rng_from_seed(seed)
    bad = [spec for spec in ["typeI:1,2", "typeI:2,2", "typeI:2,3", "typeIII:2",
                             "typeIII:3"]
           if not det_pairing_holds(family(spec), rng, EMBEDDING_POINTS)]
    _require(not bad, f"mismatch for {bad}")
    return f"exact at {EMBEDDING_POINTS} points x 5 spaces"


def _pf_laplace(M, idx) -> GaussRational:
    """Pfaffian of the antisymmetric matrix M on the indices idx, expanded
    along the first row: the reference for the builder's pair partitions."""
    if not idx:
        return GaussRational(1)
    total = GaussRational(0)
    for pos in range(1, len(idx)):
        term = M[idx[0]][idx[pos]] * _pf_laplace(M, idx[1:pos] + idx[pos + 1:])
        total = total + term if pos % 2 else total - term
    return total


@criterion("pfaffian_suite")
def check_pfaffian_suite(seed, tol, family):
    rng = rng_from_seed(seed)

    def pf_pair(order):
        """The builder's Pfaffian of the order x order antisymmetric cell at
        random entries, and the entries as a matrix."""
        cell = ring, slots = antisymmetric_cell(order)
        M = [[GaussRational(0)] * order for _ in range(order)]
        point = {}
        for i in range(order):
            for j in range(i + 1, order):
                v = point[ring.vars[slots[i + 1, j + 1][0]]] = random_small_gauss(rng)
                M[i][j] = v
                M[j][i] = -v
        pf = pf_expansion(cell, range(1, order + 1))
        return pf.evaluate(point), M

    for order in range(2, 9):          # odd orders vanish on both routes
        pf, M = pf_pair(order)
        _require(pf == _pf_laplace(M, list(range(order))),
                 f"pair partitions != Laplace expansion at order {order}")
    for order in range(2, 7):
        pf, M = pf_pair(order)
        _require((pf * pf - det_exact(M)).is_zero(), f"pf^2 != det at order {order}")
    # family polynomial squared equals det(I + Z Xi^t), convention fixed at
    # n=4 and then asserted at n=5
    for n in (4, 5):
        fam = family(f"typeII:{n}")
        space = fam.space
        for _ in range(10):
            z = random_gauss_point(rng, space.vars)
            xi = random_gauss_point(rng, space.vars)
            _require(det_model_holds(fam, z, xi), f"rho^2 != det(I+Z Xi^t) at n={n}")
    return "partition==recursive (2-8); pf^2=det (2-6); rho^2=det at n=4,5"


@criterion("octonion_suite")
def check_octonion_suite(seed, tol, family):
    zero, one = GaussRational(0), GaussRational(1)
    basis = [Octonion.basis(k, one, zero) for k in range(8)]
    minus_one = Octonion.scalar(GaussRational(-1), zero)
    for i in range(8):
        for j in range(8):
            prod = basis[i] * basis[j]
            if (i == 0 and prod != basis[j]) or (j == 0 and prod != basis[i]):
                raise CheckFailed("e0 not identity")
            if i == j >= 1 and prod != minus_one:
                raise CheckFailed(f"e{i}^2 != -1")
            if 1 <= i != j >= 1:
                _require((prod + basis[j] * basis[i]).is_zero(),
                         f"e{i} e{j} not antisymmetric")
    rng = rng_from_seed(seed)

    def rnd_oct():
        return Octonion([random_small_gauss(rng) for _ in range(8)])

    for _ in range(100):
        a, b = rnd_oct(), rnd_oct()
        _require(((a * b).norm() - a.norm() * b.norm()).is_zero(),
                 "norm not multiplicative")
    ring = PolyRing(M16_VARS)
    X = cayley_matrix(symbolic_octonion(ring, "x"), symbolic_octonion(ring, "y"))
    full = X.to_full()
    scaled = [[e.scale(jordan_trace(X)) for e in row] for row in full]
    # X o X = (XX + XX) / 2 is the one product XX
    _require(mat_eq(mat_mul(full, full), scaled),
             "Cayley identity X o X = tr(X) X failed")
    _require(jordan_det(freudenthal_jordan_matrix()) == freudenthal_forms()[54],
             "jordan_det != cubic coordinate polynomial")
    return "table laws, norm multiplicativity, Cayley identity, det==cubic form"


@criterion("einstein_fits")
def check_einstein_fits(seed, tol, family):
    worst = 0.0
    for spec in ["typeI:1,1", "typeI:1,2", "typeI:2,2", "typeIV:3", "typeII:4",
                 "typeIII:2"]:
        e = einstein_check(family(spec), seed, EINSTEIN_SAMPLES)
        _require(e.lam == e.genus, f"{spec}: exponent {e.lam} != {e.genus}")
        _require(e.identities_hold, f"{spec}: identity checks {e.identity_checks}")
        worst = max(worst, e.residual)
    ricci = ricci_residual(family("typeIV:3"), seed)
    detail = (f"exponents match; constancy residual {worst:.2e}; "
              f"Ricci cross-check {ricci:.2e}")
    _within(worst, tol.einstein_tol, detail)
    _within(ricci, RICCI_TOL, detail)
    return detail


@criterion("hypothesis_I")
def check_hypothesis_one(seed, tol, family):
    def witness(spec, budget):
        h = hypothesis_one(family(spec), seed, None, budget)
        _require(h.ranks_ok, f"{spec}: rank0={h.rank0}, rank1={h.rank1} "
                             f"(expected 1, {h.cell_dimension})")
        return h.witness

    details = []
    for spec in ["typeI:2,2", "typeII:4", "typeIII:2", "typeIV:3", "e16"]:
        w = witness(spec, WITNESS_BUDGET)
        _require(w.found, f"{spec}: no witness within order {w.max_order_used}")
        details.append(f"{spec}@{w.max_order_used}")
    w27 = witness("e27", 6000)
    e27_note = (f"e27 witness {'found' if w27.found else 'not-found-within-budget'} "
                f"(order {w27.max_order_used}, {w27.candidates_examined} candidates)")
    return "ranks ok; witnesses " + ", ".join(details) + "; " + e27_note


@criterion("hypothesis_II")
def check_hypothesis_two(seed, tol, family):
    for spec in ["typeI:2,2", "typeII:4", "typeIII:2", "typeIV:3", "e16", "e27"]:
        h = hypothesis_two(family(spec), seed)
        _require(h.rank == 2, f"{spec}: transversality rank {h.rank} != 2")
    # the flattening Jacobian is the signed minor at rank 2, never 0
    return ("rank 2 on all six recipes; flattening Jacobian nonzero on quadric "
            "and Grassmannian")


@criterion("hypothesis_III")
def check_hypothesis_three(seed, tol, family):
    for spec in ["typeI:2,2", "typeII:4", "typeIII:3", "typeIV:3", "e16", "e27"]:
        report = support_claims(family(spec))
        failed = [k for k, v in report.items() if not v]
        _require(not failed, f"{spec}: support facts failed {failed}")
    for spec in ["typeIV:3", "typeI:2,2"]:
        _, res = oracle_check(family(spec), seed, ORACLE_PRIME, ORACLE_BUDGET)
        _require(res.status == "irreducible_certified",
                 f"{spec}: oracle returned {res.status}")
    ring = PolyRing(["z1", "z2"])
    control = (ring.one() + ring.var("z1")) * (ring.one() + ring.var("z2"))
    res = irreducibility_oracle(control, ORACLE_PRIME, ORACLE_BUDGET)
    _require(res.status == "factor_found", "oracle missed the reducible control")
    return ("support facts on all six; oracle certified the quadric and the "
            "Grassmannian over F5; control refuted")


@criterion("volume_isometry")
def check_volume_isometry(seed, tol, family):
    fam = family("typeI:1,1")
    space = fam.space
    ident = identity_map(space)
    z = space.ring.var(space.vars[0])   # the unitary Moebius map (4 + 3z) / (3 - 4z)
    unitary = RationalMap(space.ring, (PolyFraction(
        space.ring.const(Fraction(4, 5)) + z.scale(Fraction(3, 5)),
        space.ring.const(Fraction(3, 5)) - z.scale(Fraction(4, 5))),))
    worst = max(
        volume_equation_check(fam, [ident], [1.0], VOLUME_SAMPLES, seed),
        volume_equation_check(fam, [ident, ident], [0.5, 0.5], VOLUME_SAMPLES, seed),
        volume_equation_check(fam, [unitary], [1.0], VOLUME_SAMPLES, seed),
        isometry_pullback_check(fam, ident, ISOMETRY_POINTS, seed),
        isometry_pullback_check(fam, unitary, ISOMETRY_POINTS, seed),
    )
    margin = isometry_pullback_check(fam, scaling_map(space, 2), 0, seed,
                                     points=[[0.2]])
    if margin <= 0.1:
        raise CheckFailed(f"scaling map margin {margin:.3f} <= 0.1")
    detail = f"residuals <= {worst:.2e}; scaling map margin {margin:.3f}"
    _within(worst, tol.float_tol, detail)
    return detail


@criterion("degeneracy_extraction")
def check_degeneracy_extraction(seed, tol, family):
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
        rep = degeneracy_relation(polys, seed)
        worst_res = max(worst_res, max(rep.residuals))
        worst_head = max(worst_head, rep.zero_slice_head_max)
    detail = f"residual {worst_res:.2e}; zero-slice head {worst_head:.2e}"
    _within(worst_res, DEGENERACY_TOL, detail)
    _within(worst_head, CLAIM_HEAD_TOL, detail)
    return detail


ALL_CRITERIA: List[Callable] = [          # criteria 1 to 9
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


# The criteria as two groups of indices into ALL_CRITERIA, which ``run_all``
# runs side by side: the first in the calling process, the second in one
# forked child.  Balanced on each criterion's time alone in a fresh process
# (2 vCPUs): embedding 0.18 s, pfaffian 0.03, octonion 0.20, einstein 0.12,
# hyp1 0.06, hyp2 0.02, hyp3 0.04, volume 0.01, degeneracy 0.03.  Each group
# takes about 0.37 s (all nine serially 0.72 s), and criteria that share
# families share a group.
CRITERION_GROUPS: Tuple[Tuple[int, ...], ...] = ((0, 1, 3, 7), (2, 4, 5, 6, 8))

# a group's results by index, and the index and exception of the criterion
# that stopped it, if one raised
_Report = Tuple[Dict[int, CriterionResult], Optional[Tuple[int, Exception]]]


def criterion_groups() -> Tuple[Tuple[int, ...], ...]:
    """``CRITERION_GROUPS`` when two CPUs are usable (``sched_getaffinity``,
    else ``cpu_count``) and ``os.fork`` exists; else one group of all.  A
    caller running other threads gets one group too: a lock that another
    thread holds at the fork, such as a family's lock or an I/O buffer's,
    stays held in the child, which would wait on it for ever."""
    # os, pickle and signal are imported where they are used, so that
    # ``import hermsym.cli`` imports nothing more
    import os
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return (tuple(range(len(ALL_CRITERIA))),)
    return CRITERION_GROUPS


def _run_group(group: Tuple[int, ...], seed: int,
               tol: Optional[Tolerances]) -> _Report:
    """The criteria of ``group`` in order, up to the first that raises:
    ({index: result}, None), or the results before it and (index, exception)."""
    family = _families()     # one thread, 11 specs at most: no lock, no bound
    results = {}
    for i in group:
        try:
            results[i] = ALL_CRITERIA[i](seed=seed, tol=tol, family=family)
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _run_forked(groups: Tuple[Tuple[int, ...], ...], seed: int,
                tol: Optional[Tolerances]) -> _Report:
    """``groups[0]`` here and ``groups[1]`` in one forked child, which sends
    its report back pickled over a pipe.  On every way out, BaseException
    included, the child is reaped, and killed first if it has not reported;
    a child that ends without a report is an internal error."""
    import os
    import pickle
    import signal
    read, write = os.pipe()
    with open(read, "rb") as reader, open(write, "wb") as writer:
        pid = 0
        try:
            pid = os.fork()
            if pid == 0:
                # the child: it never returns into the caller's stack, and
                # os._exit never flushes the stdio it inherited
                status = 1
                try:
                    writer.write(pickle.dumps(_run_group(groups[1], seed, tol)))
                    writer.close()
                    status = 0
                finally:
                    os._exit(status)
            writer.close()
            results, error = _run_group(groups[0], seed, tol)
            data = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = 0
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if code != 0:
        raise RuntimeError(f"selftest child process exited with code {code} "
                           "before reporting")
    more, other = pickle.loads(data)
    results.update(more)
    # the lowest index is the criterion a serial run raises from
    errors = [e for e in (error, other) if e is not None]
    return results, min(errors, key=lambda e: e[0], default=None)


def run_all(seed: int = DEFAULT_SEED,
            tol: Optional[Tolerances] = None) -> List[CriterionResult]:
    """Every criterion, in ``ALL_CRITERIA`` order, run in one process per
    group of ``criterion_groups()``.  Each criterion seeds its own rng from
    ``seed``, so the results do not depend on the grouping; a criterion that
    raises is raised here, with its type and message."""
    groups = criterion_groups()
    if len(groups) == 1:
        results, error = _run_group(groups[0], seed, tol)
    else:
        results, error = _run_forked(groups, seed, tol)
    if error is not None:
        raise error[1]
    return [results[i] for i in range(len(ALL_CRITERIA))]
