"""The float layer, checked against stated tolerances; with ``modp``, the
only user of numpy: one compiled evaluator of exact polynomials
(``BatchEvaluator``: each term compiled once to its nonzero factors, each
point one power table; its Jacobian form is written straight from the
terms, so no derivative polynomial is built), a family's metric engine
(kept in its cache) with the Kahler metric, Einstein fit and Ricci
cross-check, the degeneracy relation, and the map checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .maps import RationalMap
from .poly import Polynomial
from .rigidity import _best_jet_rank
from .sampling import rng_from_seed
from .segre import SegreFamily
from .spaces import Space

RICCI_POINTS = 10           # sampled points of the Ricci cross-check
VOLUME_SAMPLES = 25        # sampled points of the volume equation check
ISOMETRY_SAMPLES = 20      # sampled points of the isometry pullback check


def random_complex_ball(rng, n: int, radius: float = 0.3):
    """n complex coordinates, each of modulus <= radius (max-norm ball)."""
    out = []
    for _ in range(n):
        re = rng.uniform(-radius, radius) * 0.7
        im = rng.uniform(-radius, radius) * 0.7
        out.append(complex(re, im))
    return out


# ---------------------------------------------------------------------------
# batched float evaluation of polynomial systems
# ---------------------------------------------------------------------------

class BatchEvaluator:
    """Evaluate a fixed list of polynomials at complex points, vectorized:
    the one place a polynomial gets a float value.  The point lists the
    values of ``var_order``.

    Compiled form: each term keeps only its nonzero factors, as flat slots
    ``column * (top + 1) + exponent`` in column order, padded to the widest
    term with slot 0, which holds x_0^0; ``top`` is the largest exponent.
    A point is one power table ``x_i^k`` (k = 0..top), gathered at the
    slots, multiplied along each term, scaled by the coefficients and summed
    into the owners by ``np.add.at`` in the terms' insertion order.

    Equality with a dense product over every column (the tests' reference,
    ``oracles.DenseBatchEvaluator``, bit for bit): the coefficients, owners
    and summing order are the same, and each term multiplies the same
    non-unit factors in the same order, by the same ``prod`` reduction (an
    elementwise product of the columns may fuse a multiply-add and move a
    last bit).  The dense product also multiplies by exact 1+0j factors
    (``np.power(x, 0)`` is 1+0j for every x, NaN and inf included), which
    changes no finite value; a zero's sign may differ inside a product, but
    a sum that starts from +0 gives +0 either way.  Where a term overflows
    both routes are non-finite, though this one may hold inf where the
    dense one held nan (so an OverflowError message may print ``inf`` for
    ``nan``)."""

    def __init__(self, polys: Sequence[Polynomial], var_order: Sequence[str]):
        coeffs, exps, owner = _terms(polys, var_order)
        self._compile(len(polys), [complex(c) for c in coeffs], exps, owner)

    @classmethod
    def jacobian(cls, polys: Sequence[Polynomial],
                 var_order: Sequence[str]) -> "BatchEvaluator":
        """The evaluator of d p_j / d var_order[i] at j * n + i, n the number
        of variables, written straight from each term c x^e: for each i with
        e_i > 0, the coefficient c e_i, the exponent lowered by one at i.
        These are the terms of ``p_j.derivative``, in the same order."""
        coeffs, exps, owner = _terms(polys, var_order)
        n = exps.shape[1]
        t, i = np.nonzero(exps)         # by term, then by column
        k = exps[t, i]
        lowered = exps[t]
        lowered[np.arange(len(t)), i] -= 1
        values = [complex(coeffs[a] * b) for a, b in zip(t.tolist(), k.tolist())]
        self = cls.__new__(cls)
        self._compile(len(polys) * n, values, lowered, owner[t] * n + i)
        return self

    def _compile(self, count: int, coeffs: List[complex], exps: np.ndarray,
                 owner: np.ndarray) -> None:
        """The slots of each term's dense exponent row ``exps``; ``count``
        owners."""
        t, i = np.nonzero(exps)         # by term, then by column
        factors = np.bincount(t, minlength=len(exps))
        top = int(exps.max(initial=0))
        # a term's k-th nonzero factor goes to column k of its row of slots
        place = np.arange(len(t)) - (np.cumsum(factors) - factors)[t]
        self.count = count
        self.coeffs = np.array(coeffs, dtype=complex)
        self.slots = np.zeros((len(exps), int(factors.max(initial=0))),
                              dtype=np.int64)
        self.slots[t, place] = i * (top + 1) + exps[t, i]
        self.owner = owner
        self.exponents = np.arange(top + 1)

    def __call__(self, point: np.ndarray) -> np.ndarray:
        out = np.zeros(self.count, dtype=complex)
        if len(self.coeffs) == 0:
            return out
        table = np.power(point[:, None], self.exponents).ravel()
        np.add.at(out, self.owner, self.coeffs * table[self.slots].prod(axis=1))
        return out


def _terms(polys: Sequence[Polynomial], var_order: Sequence[str]):
    """Every term of ``polys`` in order: the exact coefficients, the
    (terms x variables) exponent matrix with columns in ``var_order``, and
    the index of each term's polynomial."""
    ring = polys[0].ring
    cols = [ring.index(v) for v in var_order]
    coeffs = [c for p in polys for c in p.terms.values()]
    exps = np.array([e for p in polys for e in p.terms], dtype=np.int64)
    owner = np.array([k for k, p in enumerate(polys) for _ in p.terms],
                     dtype=np.int64)
    return coeffs, exps.reshape(len(coeffs), len(ring.vars))[:, cols], owner


@dataclass
class MetricSample:
    g: np.ndarray
    volume_density: float
    hermitian_deviation: float              # max |g - g^H|


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
    return np.array(weights, dtype=float)


class _MetricEngine:
    """The compiled pairing system of a space and its symbolic Jacobian."""

    def __init__(self, space: Space, weights: str):
        self.nvars = space.n
        self.order = list(space.vars)
        polys = list(space.pairing_psi)
        self.psi_eval = BatchEvaluator(polys, self.order)
        self.jac_eval = BatchEvaluator.jacobian(polys, self.order)
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
        wJ = self.w[:, None] * J
        H = wJ.T @ J.conj()
        b = wJ.T @ v.conj()
        g = (rho * H - np.outer(b, b.conj())) / rho ** 2
        return g, rho


def metric_engine(fam: SegreFamily, weights: str) -> _MetricEngine:
    """The engine of ``fam`` and ``weights``, built once in the family's cache."""
    return fam.cached(("engine", weights), lambda: _MetricEngine(fam.space, weights))


def kahler_metric(fam: SegreFamily, point: Sequence[complex]) -> MetricSample:
    """Fubini-Study pullback metric g_{i jbar} = d_i d_jbar log rho(z, zbar).

    The mixed Hessian of log rho at xi = conj(z) is assembled from the exact
    symbolic Jacobian of the embedding system (the two routes agree
    identically because rho is the self-pairing of that system)."""
    g, _ = metric_engine(fam, "plain").metric(point)
    dev = float(np.max(np.abs(g - g.conj().T)))
    if dev > 1e-10:
        raise ArithmeticError(f"metric not Hermitian (deviation {dev:g}); "
                              "family polynomial is asymmetric")
    det = np.linalg.det(g)
    return MetricSample(g, float(det.real), dev)


class EinsteinError(ArithmeticError):
    pass


def einstein_fit(fam: SegreFamily, sample_count: int, seed: int):
    """Fit the integer exponent in volume_density = c * rho(z, zbar)^-lambda.

    Returns (lambda, c, max relative residual over the samples).  The
    exponent is computed from the two most separated samples, rounded, and
    the rounding is then *verified* against all samples; a non-integer fit
    beyond 0.01 raises EinsteinError."""
    rng = rng_from_seed(seed)
    eng = metric_engine(fam, "invariant")
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
    eng = metric_engine(fam, "invariant")
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
# degeneracy relation extraction (the jet-collapse consequence)
# ---------------------------------------------------------------------------

@dataclass
class DegeneracyReport:
    slices: List
    coefficients: List[np.ndarray]
    residuals: List[float]
    zero_slice_head_max: float        # max |g_1..g_n| at the slice through 0


class NotDegenerateError(ValueError):
    pass


_GRID = 40             # float sample points per slice
_RANK_TRIALS = 3       # random points of the exact degeneracy precondition
_NULL_TOL = 1e-8       # relative singular-value cut of the null space
_SLICES = 3            # values 0, 1/10, 2/10 of the last variable


def degeneracy_relation(polys: Sequence[Polynomial],
                        seed: int = 0) -> DegeneracyReport:
    """Recover per-slice linear relations sum_i g_i(z_m) psi_i(z) = 0.

    The input must be jet-degenerate: rank_{N-m+1} in the truncated
    variables < N (checked first, exactly).  For each of the _SLICES fixed
    values of the last variable the coefficient vector is the SVD null
    direction of the evaluation matrix on a float grid, normalized so its
    largest entry is exactly 1."""
    ring = polys[0].ring
    m = len(ring.vars)
    N = len(polys)

    # exact precondition via the jet machinery
    if _best_jet_rank(polys, ring.vars[:-1], N - m + 1, _RANK_TRIALS,
                      seed)[-1] >= N:
        raise NotDegenerateError("input not degenerate")

    values = BatchEvaluator(polys, ring.vars)
    rng2 = np.random.default_rng(seed + 1)
    slices = [Fraction(k, 10) for k in range(_SLICES)]
    coefficients, residuals = [], []
    zero_head = None
    for s in slices:
        rows = []
        for _ in range(_GRID):
            zt = rng2.uniform(-0.4, 0.4, size=m - 1) + 1j * rng2.uniform(-0.4, 0.4, size=m - 1)
            rows.append(values(np.append(zt, float(s))))
        M = np.array(rows, dtype=complex)
        _, sv, vh = np.linalg.svd(M)
        if len(sv) < N:
            sv = np.concatenate([sv, np.zeros(N - len(sv))])
        null_rows = [i for i in range(N) if sv[i] <= _NULL_TOL * max(1.0, sv[0])]
        if not null_rows:
            raise NotDegenerateError("input not degenerate")
        basis = vh[null_rows].conj().T          # orthonormal null basis, N x k
        if s == 0:
            # the relation family evaluated at 0 kills the coordinate head;
            # pick the null vector of minimal head norm to expose that
            head = basis[:m, :]
            _, _, vv = np.linalg.svd(head, full_matrices=True)
            g = basis @ vv[-1].conj()
        else:
            g = basis[:, -1]
        k = int(np.argmax(np.abs(g)))
        g = g / g[k]
        coefficients.append(g)
        residuals.append(float(np.max(np.abs(M @ g)) / max(1.0, np.max(np.abs(M)))))
        if s == 0:
            zero_head = float(np.max(np.abs(g[:m])))
    return DegeneracyReport(slices, coefficients, residuals, zero_head)


# ---------------------------------------------------------------------------
# volume equation and isometry pullback checks
# ---------------------------------------------------------------------------

_MAP_RADIUS = 0.2      # sample ball of the map checks
_MAX_RETRIES = 40      # draws that may hit a pole of a map before one raises


def _worst_residual(space: Space, residual, sample_count: int, seed: int,
                    points: Sequence[Sequence[complex]] = ()) -> float:
    """Max of ``residual(pt)`` over the given points, each taken once, then
    over seeded draws from the _MAP_RADIUS ball until ``sample_count``
    evaluations in all succeeded.  A point where the residual raises
    ZeroDivisionError (a pole of a map) is skipped, at most _MAX_RETRIES
    times; the next one re-raises.  Each residual runs with numpy's float
    warnings off; one that is not finite (a value past the float range)
    raises OverflowError: max() would drop a NaN."""
    rng = rng_from_seed(seed)
    queue = list(points)
    worst = 0.0
    done = 0
    retries = 0
    while done < sample_count or queue:
        pt = queue.pop(0) if queue else random_complex_ball(rng, space.n, _MAP_RADIUS)
        try:
            with np.errstate(all="ignore"):
                value = residual(pt)
        except ZeroDivisionError:
            retries += 1
            if retries > _MAX_RETRIES:
                raise
            continue
        if not math.isfinite(value):
            raise OverflowError(f"residual {value} at a sample point")
        worst = max(worst, value)
        done += 1
    return worst


class _MapValues:
    """A map's components and Jacobian entries at a point, from one
    evaluator of all their numerators and denominators; each quotient is
    a Python complex division (ZeroDivisionError at a pole)."""

    def __init__(self, F: RationalMap):
        fractions = list(F.components) + [f for row in F.jacobian_fractions()
                                          for f in row]
        self.n = len(F.components)
        self.values = BatchEvaluator([f.num for f in fractions]
                                     + [f.den for f in fractions], F.ring.vars)

    def __call__(self, pt: Sequence[complex]):
        """(F(pt) as a list, the Jacobian d F_k / d z_i at row i, column k)."""
        v = self.values(np.asarray(pt, dtype=complex)).tolist()
        half = len(v) // 2
        q = [a / b for a, b in zip(v[:half], v[half:])]
        return q[:self.n], np.array(q[self.n:]).reshape(self.n, self.n)


def volume_equation_check(fam: SegreFamily, maps: Sequence[RationalMap],
                          lambdas: Sequence[float], sample_count: int,
                          seed: int = 0) -> float:
    """Max relative residual of the volume-preserving equation
    sum_j lambda_j |J_Fj|^2 / rho(F_j, conj F_j)^lam = rho(z, zbar)^-lam,
    lam the genus of the space."""
    space = fam.space
    lam = space.desc.genus
    eng = metric_engine(fam, "invariant")
    values = [_MapValues(F) for F in maps]

    def residual(pt):
        lhs = 0.0
        for at, w in zip(values, lambdas):
            image, J = at(pt)
            det = complex(np.linalg.det(J))
            rho_f, _ = eng.rho(image)
            lhs += w * (abs(det) ** 2) / rho_f ** lam
        rhs = 1.0 / eng.rho(pt)[0] ** lam
        return abs(lhs / rhs - 1.0)

    return _worst_residual(space, residual, sample_count, seed)


def isometry_pullback_check(fam: SegreFamily, F: RationalMap,
                            sample_count: int, seed: int = 0,
                            points: Sequence[Sequence[complex]] = ()) -> float:
    """Max entrywise deviation of the pulled-back metric from the metric at
    the given ``points``, then at random ones up to ``sample_count`` in all."""
    space = fam.space
    eng = metric_engine(fam, "invariant")
    at = _MapValues(F)

    def residual(pt):
        image, A = at(pt)
        g_here, _ = eng.metric(np.asarray(pt, dtype=complex))
        g_image, _ = eng.metric(np.asarray(image, dtype=complex))
        pull = A @ g_image @ A.conj().T
        return float(np.max(np.abs(pull - g_here)))

    return _worst_residual(space, residual, sample_count, seed, points)
