"""Segre families, Kahler metrics, Einstein exponents, and exact sampling
on the family.

The family polynomial rho(z, xi) = 1 + sum_j psi_j(z) psi_j(xi) is evaluated
from the pairing vector psi of the space, exactly as it is defined.  Its
expansion is one table, grouped by z-monomial and built lazily from psi:
the support facts read it, and the rho command prints it term by term in a
doubled ring (the cell variables plus a conjugate copy, prefix ``c``).
Exact gradients come from first-order Taylor jets (``poly.TaylorJets``);
float metric work differentiates psi symbolically once and pushes batches of
points through a compiled numpy evaluator; exact identities never touch floats.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .gauss import GaussRational, ONE, ZERO
from .linalg import det_exact
from .poly import Polynomial, PolyRing, TaylorJets
from .sampling import random_complex_ball, random_gauss_point, rng_from_seed
from .spaces import Space, cell_matrix_point


RICCI_POINTS = 10           # sampled points of the Ricci cross-check


def conj_name(v: str) -> str:
    return "c" + v


class SegreFamily:
    """The Segre family of a space: rho(z, xi) = 1 + sum_j psi_j(z) psi_j(xi)
    over its pairing vector psi (``Space.pairing_psi``).

    Every query evaluates that sum from the psi vector: ``rho_at``, and the
    gradients that ``pair_rows`` forms from ``first_jets``.  The sum is the
    definition of rho, so in exact arithmetic each value equals the one read
    off the expanded polynomial, and no soundness argument beyond it is
    needed.  The expansion is ``z_groups``, the sum grouped by z-monomial,
    which the rho command prints term by term; ``rho`` is that table
    flattened into a doubled-ring ``Polynomial`` for the tests and the
    benchmark's term count, built afresh on each read so the family holds
    one copy of the expansion.

    Exact derivatives of psi at a point are its first-order Taylor jets.
    The expansion and the compiled metric evaluators are the only caches:
    each is built once, on first use, under the family's lock, and is freed
    with the family."""

    def __init__(self, space: Space):
        self.space = space
        self.ring = PolyRing(space.vars + tuple(conj_name(v) for v in space.vars))
        self._cache: Dict = {}
        self._lock = threading.Lock()

    def _cached(self, key, build):
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
        c psi_j(xi)); zero coefficients and empty groups are dropped."""
        def expand():
            origin = (0,) * len(self.zvars)
            groups = {origin: {origin: ONE}}
            for p in self.space.pairing_psi:
                for ze, c in p.terms.items():
                    group = groups.setdefault(ze, {})
                    for xe, cx in p.terms.items():
                        term = c * cx
                        group[xe] = term if xe not in group else group[xe] + term
            return {ze: nonzero for ze, group in groups.items()
                    if (nonzero := {xe: c for xe, c in group.items()
                                    if not c.is_zero()})}
        return self._cached("z_groups", expand)

    @property
    def rho(self) -> Polynomial:
        """The expanded family polynomial in the doubled ring, flattened
        from ``z_groups`` on each read; bind it once to read it often."""
        return Polynomial(self.ring, {
            ze + xe: c for ze, group in self.z_groups.items()
            for xe, c in group.items()})

    def engine(self, weights: str) -> "_MetricEngine":
        return self._cached(("engine", weights),
                            lambda: _MetricEngine(self.space, weights))

    @property
    def zvars(self) -> Tuple[str, ...]:
        return self.space.vars

    def rho_at(self, z: Dict, xi: Dict) -> GaussRational:
        total = ONE
        # psi(xi) first: recipe points are sparse in xi
        for p in self.space.pairing_psi:
            b = p.evaluate(xi)
            if not b.is_zero():
                total = total + p.evaluate(z) * b
        return total

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
        """(d rho / d z_v, d rho / d xi_v) at (z, xi), from one first-order
        jet table at each point, each also giving psi at its point."""
        at_z, d_z = self.first_jets(z)
        at_xi, d_xi = self.first_jets(xi)
        return pair_rows(at_xi, d_z), pair_rows(at_z, d_xi)


def pair_rows(values: Dict[int, GaussRational],
              rows: Sequence[Dict[int, GaussRational]]) -> List[GaussRational]:
    """[sum_j values[j] row[j] for each row], over the j both hold.  With
    psi at z as ``values`` and the derivative rows of ``first_jets`` at xi,
    that is the conjugate gradient sum_j psi_j(z) (d_v psi_j)(xi) of rho;
    with the row [psi(xi)] it is rho(z, xi) - 1.  The psi sum is symmetric,
    so the same call with the points swapped gives the z-gradient."""
    return [sum((values[j] * d for j, d in row.items() if j in values), ZERO)
            for row in rows]


def build_rho(space: Space) -> SegreFamily:
    """The family of ``space`` with its expansion (``z_groups``) built."""
    fam = SegreFamily(space)
    fam.z_groups  # expand now
    return fam


# ---------------------------------------------------------------------------
# batched float evaluation of polynomial systems
# ---------------------------------------------------------------------------

class BatchEvaluator:
    """Evaluate a fixed list of polynomials at complex points, vectorized."""

    def __init__(self, polys: Sequence[Polynomial], var_order: Sequence[str]):
        ring = polys[0].ring
        idx = [ring.index(v) for v in var_order]
        coeffs, exps, owner = [], [], []
        for k, p in enumerate(polys):
            for e, c in p.terms.items():
                coeffs.append(complex(c))
                exps.append([e[i] for i in idx])
                owner.append(k)
        self.count = len(polys)
        self.coeffs = np.array(coeffs, dtype=complex)
        self.exps = np.array(exps, dtype=np.int64) if exps else np.zeros((0, len(idx)), dtype=np.int64)
        self.owner = np.array(owner, dtype=np.int64)

    def __call__(self, point: np.ndarray) -> np.ndarray:
        out = np.zeros(self.count, dtype=complex)
        if len(self.coeffs) == 0:
            return out
        powers = np.prod(np.power(point[None, :], self.exps), axis=1)
        np.add.at(out, self.owner, self.coeffs * powers)
        return out


@dataclass
class MetricSample:
    point: List[complex]
    g: np.ndarray
    volume_density: float


def invariant_weights(space: Space) -> np.ndarray:
    """Pairing weights of the isometry-invariant Hermitian form.

    The minor and Pfaffian pairings of the classical types are already
    invariant (weight 1 throughout; the symplectic raw pairing duplicates
    off-diagonal minors, which is exactly its doubling).  Only the weighted
    pairing of the two exceptional cells is Kahler-Einstein (the exponent
    fits land exactly on the Fano indices 12 and 18)."""
    weights = space.kind.weights
    if weights is None:
        return np.ones(len(space.pairing_psi))
    return np.array(weights)


class _MetricEngine:
    """The compiled pairing system of a space and its symbolic Jacobian."""

    def __init__(self, space: Space, weights: str):
        self.nvars = space.n
        self.order = list(space.vars)
        polys = list(space.pairing_psi)
        derivs = [p.derivative(v) for p in polys for v in self.order]
        self.psi_eval = BatchEvaluator(polys, self.order)
        self.jac_eval = BatchEvaluator(derivs, self.order)
        self.count = len(polys)
        if weights == "invariant":
            self.w = invariant_weights(space)
        else:
            self.w = np.ones(self.count)

    def rho(self, point: Sequence[complex]):
        """(1 + sum_j w_j |psi_j(z)|^2, psi(z)) at a complex point z."""
        v = self.psi_eval(np.asarray(point, dtype=complex))
        return 1.0 + float(np.real((self.w * v) @ v.conj())), v

    def metric(self, point: Sequence[complex]):
        pt = np.array(point, dtype=complex)
        rho, v = self.rho(pt)
        J = self.jac_eval(pt).reshape(self.count, self.nvars)
        H = (self.w[:, None] * J).T @ J.conj()
        b = (self.w[:, None] * J).T @ v.conj()
        g = (rho * H - np.outer(b, b.conj())) / rho ** 2
        return g, rho


def kahler_metric(fam: SegreFamily, point: Sequence[complex]) -> MetricSample:
    """Fubini-Study pullback metric g_{i jbar} = d_i d_jbar log rho(z, zbar).

    The mixed Hessian of log rho at xi = conj(z) is assembled from the exact
    symbolic Jacobian of the embedding system (the two routes agree
    identically because rho is the self-pairing of that system)."""
    g, _ = fam.engine("plain").metric(point)
    dev = float(np.max(np.abs(g - g.conj().T)))
    if dev > 1e-10:
        raise ArithmeticError(f"metric not Hermitian (deviation {dev:g}); "
                              "family polynomial is asymmetric")
    det = np.linalg.det(g)
    return MetricSample(list(point), g, float(det.real))


class EinsteinError(ArithmeticError):
    pass


def einstein_fit(fam: SegreFamily, sample_count: int, seed: int):
    """Fit the integer exponent in volume_density = c * rho(z, zbar)^-lambda.

    Returns (lambda, c, max relative residual over the samples).  The
    exponent is computed from the two most separated samples, rounded, and
    the rounding is then *verified* against all samples; a non-integer fit
    beyond 0.01 raises EinsteinError."""
    rng = rng_from_seed(seed)
    eng = fam.engine("invariant")
    logs = []
    for _ in range(sample_count):
        pt = random_complex_ball(rng, fam.space.n, 0.3)
        g, rho = eng.metric(np.array(pt, dtype=complex))
        det = np.linalg.det(g).real
        if det <= 0:
            raise EinsteinError("volume density not positive in sample ball")
        logs.append((math.log(rho), math.log(det)))
    lo = min(logs, key=lambda t: t[0])
    hi = max(logs, key=lambda t: t[0])
    if abs(hi[0] - lo[0]) < 1e-9:
        raise EinsteinError("samples do not separate rho; enlarge the ball")
    lam_float = -(hi[1] - lo[1]) / (hi[0] - lo[0])
    lam = round(lam_float)
    if abs(lam_float - lam) > 0.01:
        raise EinsteinError(f"Einstein structure violated: exponent {lam_float!r} "
                            "is not an integer")
    logc = sum(lv + lam * lr for lr, lv in logs) / len(logs)
    c = math.exp(logc)
    residual = max(abs(math.exp(lv + lam * lr - logc) - 1.0) for lr, lv in logs)
    return lam, c, residual


def ricci_residual(fam: SegreFamily, seed: int) -> float:
    """Cross-check the Einstein identity -dd_bar log V = lambda * g entrywise,
    lambda the genus of the space.

    The left side is a finite-difference mixed Hessian of log det g; the
    right side is the symbolically derived metric.  Returns the max relative
    deviation over RICCI_POINTS sampled points."""
    lam = fam.space.desc.genus
    rng = rng_from_seed(seed + 1)
    eng = fam.engine("invariant")
    n = fam.space.n
    h = 1e-3

    def logV(pt: np.ndarray) -> float:
        g, _ = eng.metric(pt)
        return math.log(np.linalg.det(g).real)

    worst = 0.0
    for _ in range(RICCI_POINTS):
        z = np.array(random_complex_ball(rng, n, 0.25), dtype=complex)
        g, _ = eng.metric(z)
        target = lam * g
        hess = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                hess[i, j] = _wirtinger_mixed(logV, z, i, j, h)
        rel = np.max(np.abs(-hess - target)) / max(np.max(np.abs(target)), 1e-12)
        worst = max(worst, float(rel))
    return worst


def _second_diff(f, z, di, dj, h):
    if np.array_equal(di, dj):
        return (f(z + h * di) - 2.0 * f(z) + f(z - h * di)) / h ** 2
    return (f(z + h * di + h * dj) - f(z + h * di - h * dj)
            - f(z - h * di + h * dj) + f(z - h * di - h * dj)) / (4 * h ** 2)


def _wirtinger_mixed(f, z, i, j, h):
    """d^2 f / dz_i dzbar_j by real/imaginary central differences."""
    n = len(z)
    xi = np.zeros(n, dtype=complex); xi[i] = 1.0
    yi = np.zeros(n, dtype=complex); yi[i] = 1.0j
    xj = np.zeros(n, dtype=complex); xj[j] = 1.0
    yj = np.zeros(n, dtype=complex); yj[j] = 1.0j
    fxx = _second_diff(f, z, xi, xj, h)
    fyy = _second_diff(f, z, yi, yj, h)
    fxy = _second_diff(f, z, xi, yj, h)
    fyx = _second_diff(f, z, yi, xj, h)
    return 0.25 * (fxx + fyy) + 0.25j * (fxy - fyx)


# ---------------------------------------------------------------------------
# on-family exact sampling
# ---------------------------------------------------------------------------

def null_block(space: Space) -> Optional[Tuple[str, ...]]:
    """The variables carrying the null hyperplane direction of a null kind,
    ending at the distinguished one; None for a slot kind."""
    prefix = space.kind.null_prefix
    if prefix is None:
        return None
    return tuple(v for v in space.vars if v.startswith(prefix))


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
    block.  Returns (z0, xi0)."""
    block = null_block(space)
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
    """A random exact rational point (z, xi) with rho(z, xi) = 0.

    A slot-solve kind draws z and xi and solves the distinguished conjugate
    slot (rho is linear in it); the other kinds take ``special_point``."""
    space = fam.space
    if not space.kind.slot_solve:
        return special_point(space, rng)
    dist = space.distinguished
    psi = space.pairing_psi

    def rho(at_z, xi):      # rho(z, xi), from psi(z) evaluated once per z
        return ONE + pair_rows(at_z, [{j: p.evaluate(xi)
                                       for j, p in enumerate(psi)}])[0]

    for _ in range(64):
        z = random_gauss_point(rng, space.vars)
        xi = random_gauss_point(rng, space.vars)
        at_z = {j: p.evaluate(z) for j, p in enumerate(psi)}
        # rho(z, xi) = A * xi_dist + B: every psi_j is linear in the
        # distinguished slot, which the exact check after the solve confirms
        at0, at1 = dict(xi), dict(xi)
        at0[dist], at1[dist] = ZERO, ONE
        B = rho(at_z, at0)
        A = rho(at_z, at1) - B
        if A.is_zero():
            continue
        xi[dist] = -(B / A)
        if not rho(at_z, xi).is_zero():
            raise ArithmeticError("distinguished slot not linear")
        return z, xi
    raise ArithmeticError("could not sample a family point (degenerate draws)")


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
