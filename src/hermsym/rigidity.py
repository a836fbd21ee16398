"""Machine checks for the three rigidity hypotheses.

Everything rank- or determinant-shaped runs in exact Gaussian-rational
arithmetic; the metric-flavored checks (volume equation, isometry pullback,
degeneracy relation extraction) are in ``floats``.  Genericity arguments
become seeded randomized searches, so identical seeds reproduce identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .gauss import GaussRational, ONE, ZERO
from .linalg import RankTracker, det_exact
from .modp import PolyModP, reduce_mod, trial_division_modp
from .poly import Polynomial, TaylorJets, monomials
from .sampling import random_small_gauss, rng_from_seed
from .segre import SegreFamily, sample_on_family
from .spaces import Space

_JET_RANK_TRIALS = 2       # random points of jet_rank
_WITNESS_TRIALS = 4        # special points of the witness search
WITNESS_BUDGET = 20000     # candidate multiindices per witness trial
ORACLE_PRIME = 5           # the oracle's default prime
ORACLE_BUDGET = 10 ** 7    # candidate factors of the finite-field oracle


# ---------------------------------------------------------------------------
# jet calculus in the truncated variables
# ---------------------------------------------------------------------------

def truncated_vars(space: Space) -> Tuple[str, ...]:
    return tuple(v for v in space.vars if v != space.distinguished)


def _greedy_rows(jets: TaylorJets, width: int, top: int, N: int,
                 budget: Optional[int] = None) -> Tuple[List, int, bool]:
    """The one exact row scan: offers ``jets.row(beta)`` to a RankTracker for
    the multiindices beta of weight <= ``top`` in ``width`` fields, by weight
    with lexicographic tie-break, made one at a time.  Before each
    candidate it stops at rank N first, then at ``budget`` candidates.
    Returns (the betas whose rows enlarged the rank, candidates examined,
    whether the budget stopped the scan with a candidate left)."""
    betas = (beta for w in range(top + 1) for beta in monomials(width, w))
    tracker = RankTracker()
    chosen: List[Tuple[int, ...]] = []
    examined = 0
    while tracker.rank < N:
        beta = next(betas, None)
        if beta is None:
            break
        if budget is not None and examined >= budget:
            return chosen, examined, True
        examined += 1
        if tracker.add_row(jets.row(beta)):
            chosen.append(beta)
    return chosen, examined, False


def _best_jet_rank(psi, fields, top: int, trials: int,
                   seed: int) -> List[int]:
    """Exact ranks of the order-<=k jets of ``psi`` along ``fields``, for
    k = 0..top, each maximized over ``trials`` random points near 0.

    One order-``top`` table per point gives every order: the scan runs by
    weight, so the rows it picks of weight <= k span the order-<=k jets,
    and a row of weight <= k is the same in a table of any higher top.
    The trials stop once every order is at its ceiling min(N, C(width+k, k)),
    its row count capped at N: a rank at one point is a lower bound on the
    maximum and the ceiling an upper bound, so no further point can change
    it.  The points are those of one search per order: the same rng, one
    point per trial."""
    rng = rng_from_seed(seed)
    N = len(psi)
    width = len(fields)
    ceilings = [min(N, comb(width + k, k)) for k in range(top + 1)]
    best = [0] * (top + 1)
    for _ in range(trials):
        pt = {v: random_small_gauss(rng) for v in psi[0].ring.vars}
        jets = TaylorJets(psi, fields, pt, top)
        weights = [sum(beta) for beta in _greedy_rows(jets, width, top, N)[0]]
        best = [max(b, sum(w <= k for w in weights)) for k, b in enumerate(best)]
        if best == ceilings:
            break
    return best


def jet_rank(space: Space, k: int, seed: int = 0) -> List[int]:
    """Exact ranks of the order-0..k truncated-variable jets of psi, one per
    order, from one jet table per point, each maximized over
    _JET_RANK_TRIALS random rational points near 0 (fewer once every order
    is at its ceiling)."""
    return _best_jet_rank(space.psi, list(truncated_vars(space)), k,
                          _JET_RANK_TRIALS, seed)


# ---------------------------------------------------------------------------
# tangent frames along the family and the nondegeneracy determinant
# ---------------------------------------------------------------------------

def witness_frame(space: Space) -> Tuple[str, Tuple]:
    """(kind, fields): the first-order fields of the witness search's jets.

    'segre' (slot kinds): the cell variables but the distinguished d, so the
    jets are plain derivatives d/dz_i; at the witness points their
    determinant equals that of the Segre-tangent fields
    L_i = d/dz_i - (rho_i / rho_d) d/dz_d (``test_rigidity.py::
    test_symbolic_lambda_agrees_with_witness``).  'hyperplane' (null kinds):
    plain derivatives outside the null block, then direction dicts spanning
    the block's hyperplane v_last + i v_first = 0, which holds the null
    direction of ``special_point``."""
    block = space.null_block
    if block is None:
        return "segre", truncated_vars(space)
    fields = [{v: ONE} for v in space.vars if v not in block]
    fields.append({block[0]: ONE, block[-1]: -GaussRational.i()})
    fields += [{v: ONE} for v in block[1:-1]]
    return "hyperplane", tuple(fields)


# ---------------------------------------------------------------------------
# recipe points and the witness search
# ---------------------------------------------------------------------------

@dataclass
class WitnessReport:
    found: bool
    z0: Optional[Dict] = None
    xi0: Optional[Dict] = None
    betas: Optional[List[Tuple[int, ...]]] = None
    lambda_value: Optional[GaussRational] = None
    frame_kind: str = "segre"
    max_order_used: int = 0
    candidates_examined: int = 0
    budget_exhausted: bool = False


def default_order_bound(space: Space) -> int:
    """Jet order bound of the witness search: 1 + N - n."""
    return 1 + space.N - space.n


def find_nondegeneracy_witness(fam: SegreFamily,
                               max_order: Optional[int] = None, seed: int = 0,
                               budget: int = WITNESS_BUDGET) -> WitnessReport:
    """Greedy exact search for N multiindices with nonvanishing determinant,
    at up to _WITNESS_TRIALS special points of the family.

    Base points follow the per-type constructions; multiindices are scanned
    breadth-first by weight with lexicographic tie-break, and a row joins
    the collection only when it enlarges the exact rank."""
    space = fam.space
    if max_order is None:
        max_order = default_order_bound(space)
    rng = rng_from_seed(seed)
    N = space.N
    frame_kind, fields = witness_frame(space)
    examined_total = 0
    exhausted = False
    for _ in range(_WITNESS_TRIALS):
        z0, xi0 = sample_on_family(fam, rng)
        jets = TaylorJets(space.psi, fields, z0, max_order)
        chosen, examined, stopped = _greedy_rows(jets, len(fields), max_order,
                                                 N, budget)
        examined_total += examined
        exhausted = exhausted or stopped
        if len(chosen) == N:
            # the rows hold [t^beta]; the derivative rows are beta! times them
            scale = prod(factorial(b) for beta in chosen for b in beta)
            rows = [jets.row(beta) for beta in chosen]
            lam = det_exact([[r.get(j, ZERO) for j in range(N)] for r in rows]) * \
                GaussRational(scale)
            if lam.is_zero():
                raise ArithmeticError("witness determinant vanished; rank logic broken")
            return WitnessReport(True, z0, xi0, chosen, lam, frame_kind,
                                 max(sum(b) for b in chosen), examined_total,
                                 exhausted)
    return WitnessReport(False, candidates_examined=examined_total,
                         budget_exhausted=exhausted,
                         max_order_used=max_order)


# ---------------------------------------------------------------------------
# transversality and the flattening Jacobian seed
# ---------------------------------------------------------------------------

class OffVarietyError(ArithmeticError):
    """A pencil point off its Segre variety: the recipe is the program's."""


def transversality_rank(fam: SegreFamily, xi0: Dict, z0: Dict, z1: Dict
                        ) -> Tuple[int, List[List[GaussRational]], Optional, Optional]:
    """(rank, [row of z0, row of z1], flattening Jacobian, slots) of the two
    conjugate-gradient rows at xi0, exact; the last two are None below rank
    2.  One first-order jet table at xi0 gives psi(xi0) and its derivatives,
    for both rho checks and both rows; psi is evaluated once at each z, on
    the components they use."""
    at_xi, d_xi = fam.first_jets(xi0)
    used = set(at_xi).union(*d_xi)
    rows = []
    for z in (z0, z1):
        at_z = fam.psi_at(z, used)
        if not (ONE + fam.pair(at_z, at_xi)).is_zero():     # rho(z, xi0)
            raise OffVarietyError("points are not on the Segre variety of xi0")
        rows.append([fam.pair(row, at_z) for row in d_xi])
    rank, jacobian, slots = _pair_rank(rows)
    return rank, rows, jacobian, slots


def _pair_rank(rows: Sequence[List[GaussRational]]):
    """(rank, flattening Jacobian, slots) of two rows from one minor scan:
    rank 2 exactly when some 2x2 minor is nonzero, else 1 if some entry is."""
    jacobian, slots = flattening_jacobian(rows)
    if jacobian is not None:
        return 2, jacobian, slots
    return int(any(not x.is_zero() for row in rows for x in row)), None, None


def flattening_jacobian(rows: Sequence[List[GaussRational]]):
    """Exact Jacobian determinant of the flattening seed system, from the
    gradient pair that ``transversality_rank`` returns.

    The system rescales the two incidence equations along fresh parameters
    and pins the remaining coordinates; at the base point its Jacobian in
    the xi variables is the gradient pair bordered by the rows -e_k, k not
    in the slot pair (a, b), the first with a nonzero 2x2 minor.  Expanded
    along the border, it is (-1)^(n+a+b+1) (r0[a] r1[b] - r0[b] r1[a]) for
    0-based a < b: nonzero exactly when the pair has rank 2, so it restates
    the rank and is no check of its own.  Returns (determinant, slots);
    (None, None) when every 2x2 minor vanishes."""
    r0, r1 = rows
    n = len(r0)
    for a in range(n):
        for b in range(a + 1, n):
            minor = r0[a] * r1[b] - r0[b] * r1[a]
            if not minor.is_zero():
                return (minor if (n + a + b) % 2 else -minor), (a, b)
    return None, None


def transversality_recipe(fam: SegreFamily, seed: int = 0) -> Tuple[Dict, Dict, Dict]:
    """Per-type (xi0, z0, z1) data realizing transversal Segre pencils, on a
    cell of dimension >= 2 (the command line refuses a smaller one)."""
    return fam.space.kind.pencil(fam.space, rng_from_seed(seed))


# ---------------------------------------------------------------------------
# monomial-support facts behind the irreducibility case analysis
# ---------------------------------------------------------------------------

def support_claims(fam: SegreFamily) -> Dict[str, bool]:
    """Verify the monomial-support facts the per-type irreducibility proofs
    rest on, directly on the exact family polynomial (the z-monomial
    coefficients are compared as polynomials in the conjugate variables,
    which is stronger than any sampled specialization)."""
    return fam.space.kind.support_laws(fam.space, fam.z_groups)


# ---------------------------------------------------------------------------
# finite-field irreducibility oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    status: str                       # irreducible_certified | factor_found | inconclusive
    factor: Optional[PolyModP] = None  # a found modular factor
    detail: str = ""
    required_budget: Optional[int] = None


def irreducibility_oracle(poly: Polynomial, prime: int = ORACLE_PRIME,
                          budget: int = ORACLE_BUDGET) -> OracleResult:
    """Certify irreducibility over the rationals of a polynomial with
    constant term 1, such as rho(., xi), by exhaustive trial division modulo
    a prime.

    Soundness: a rational factorization of a polynomial with unit constant
    term descends to one with unit constant terms modulo any prime that
    preserves the total degree, so finding no modular factor of degree up
    to deg/2 certifies rational irreducibility.  A found modular factor is
    only a refutation lead (returned for inspection)."""
    deg = poly.degree()
    if deg <= 1:
        return OracleResult("irreducible_certified", detail="degree <= 1")
    if not poly.constant_term() == GaussRational(1):
        raise ValueError("polynomial must have constant term 1")
    reduced = reduce_mod(poly, prime)
    if reduced.degree() != deg:
        return OracleResult("inconclusive",
                            detail=f"degree drops modulo {prime}; pick another prime/xi")
    for d in range(1, deg // 2 + 1):
        try:
            factor, _ = trial_division_modp(reduced, d, budget)
        except OverflowError as exc:
            return OracleResult("inconclusive",
                                detail="candidate space exceeds budget",
                                required_budget=int(exc.args[0]))
        if factor is not None:
            return OracleResult(
                "factor_found", factor=factor,
                detail=f"nontrivial factor of degree <= {d} modulo {prime}")
    return OracleResult("irreducible_certified",
                        detail=f"no factor of degree <= {deg // 2} modulo {prime}")


def generic_conjugate_point(fam: SegreFamily, seed: int = 0,
                            prime: int = ORACLE_PRIME) -> Tuple[Dict, Polynomial]:
    """A small random rational xi that keeps the specialized polynomial
    rho(., xi) at full degree and admissible modulo the prime, returned with
    that polynomial: (xi, rho(., xi)).  Full degree is the top z-degree of
    the expansion; the psi coefficients are real, so no xi cancels a whole
    top-degree group (its xi^a coefficient is a sum of squares)."""
    rng = rng_from_seed(seed)
    full = max(sum(ze) for ze in fam.z_groups)
    for _ in range(64):
        xi = {v: GaussRational(Fraction(rng.randint(-4, 4))) for v in fam.space.vars}
        poly = fam.specialize(xi)
        if poly.degree() != full:
            continue
        try:
            reduced = reduce_mod(poly, prime)
        except ValueError:
            continue
        if reduced.degree() == full:
            return xi, poly
    raise ArithmeticError("no admissible specialization point found")
