"""Octonion algebra, Jordan determinant, and the exceptional cell forms."""

from hermsym.gauss import GaussRational as G
from hermsym.octonion import (OCT_TABLE, JordanMatrix, Octonion, cayley_matrix,
                              cayley_plane_forms, freudenthal_forms,
                              freudenthal_jordan_matrix, jordan_det,
                              jordan_trace, mat_eq, mat_mul,
                              symbolic_octonion, M16_VARS, M27_VARS)
from hermsym.poly import PolyRing
from hermsym.sampling import random_small_gauss, rng_from_seed
import hermsym.octonion
from oracles import (parse_terms_by_products, partial_evaluate,
                     square_sum_by_products)

ZERO, ONE = G(0), G(1)
BASIS = [Octonion.basis(k, ONE, ZERO) for k in range(8)]

# the multiplication table rows as printed, in the source's column order
# (1, 2, 4, 7, 3, 6, 5); entries are (sign, index) with index 0 = scalar
LITERAL_TABLE = {
    1: [(-1, 0), (1, 4), (-1, 2), (-1, 3), (1, 7), (-1, 5), (1, 6)],
    2: [(-1, 4), (-1, 0), (1, 1), (-1, 6), (1, 5), (1, 7), (-1, 3)],
    4: [(1, 2), (-1, 1), (-1, 0), (-1, 5), (-1, 6), (1, 3), (1, 7)],
    7: [(1, 3), (1, 6), (1, 5), (-1, 0), (-1, 1), (-1, 2), (-1, 4)],
    3: [(-1, 7), (-1, 5), (1, 6), (1, 1), (-1, 0), (-1, 4), (1, 2)],
    6: [(1, 5), (-1, 7), (-1, 3), (1, 2), (1, 4), (-1, 0), (-1, 1)],
    5: [(-1, 6), (1, 3), (-1, 7), (1, 4), (-1, 2), (1, 1), (-1, 0)],
}
COLUMN_ORDER = [1, 2, 4, 7, 3, 6, 5]


def test_table_matches_literal_transcription():
    for i, row in LITERAL_TABLE.items():
        for col, (sign, k) in zip(COLUMN_ORDER, row):
            assert OCT_TABLE[(i, col)] == (sign, k), (i, col)


def test_basis_products():
    assert BASIS[1] * BASIS[2] == BASIS[4]
    assert BASIS[1] * BASIS[1] == Octonion.scalar(G(-1), ZERO)
    rng = rng_from_seed(1)
    x = Octonion([random_small_gauss(rng) for _ in range(8)])
    assert BASIS[0] * x == x
    assert x * BASIS[0] == x


def test_antisymmetry_exhaustive():
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                assert BASIS[i] * BASIS[j] == Octonion.scalar(G(-1), ZERO)
            else:
                assert (BASIS[i] * BASIS[j] + BASIS[j] * BASIS[i]).is_zero()


def test_alternative_but_not_associative():
    for i in range(8):
        for j in range(8):
            a, b = BASIS[i], BASIS[j]
            assert (a * a) * b == a * (a * b)
            assert (a * b) * b == a * (b * b)
    found = False
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                if (BASIS[i] * BASIS[j]) * BASIS[k] != BASIS[i] * (BASIS[j] * BASIS[k]):
                    found = True
    assert found, "octonions must fail full associativity somewhere"


def test_conjugation_and_norm():
    assert BASIS[3].conj() == -BASIS[3]
    rng = rng_from_seed(2)
    for _ in range(20):
        a = Octonion([random_small_gauss(rng) for _ in range(8)])
        b = Octonion([random_small_gauss(rng) for _ in range(8)])
        assert a.conj().conj() == a
        assert ((a * b).norm() - a.norm() * b.norm()).is_zero()
        aa = a * a.conj()
        assert aa == Octonion.scalar(a.norm(), ZERO)
    e01 = BASIS[0] + BASIS[1]
    assert e01.norm() == G(2)


def square(X):
    """X o X = (XX + XX) / 2, the one octonionic matrix product XX."""
    full = X.to_full()
    return mat_mul(full, full)


def test_jordan_identity_unit_and_diag():
    oz = Octonion([ZERO] * 8)
    A = JordanMatrix((G(2), G(3), G(5)), (oz, oz, oz))
    A2 = JordanMatrix((G(4), G(9), G(25)), (oz, oz, oz))
    assert mat_eq(square(A), A2.to_full())
    assert jordan_det(A) == G(30)
    assert jordan_trace(A) == G(10)
    P = JordanMatrix((ONE, ZERO, ZERO), (oz, oz, oz))
    assert mat_eq(square(P), P.to_full())


def test_cayley_identity_symbolic():
    ring = PolyRing(M16_VARS)
    x = symbolic_octonion(ring, "x")
    y = symbolic_octonion(ring, "y")
    X = cayley_matrix(x, y)
    tr = jordan_trace(X)
    assert mat_eq(square(X), [[e.scale(tr) for e in row] for row in X.to_full()])
    assert jordan_det(X).is_zero()


def test_cayley_special_points():
    zero_oct = Octonion([ZERO] * 8)
    X = cayley_matrix(zero_oct, zero_oct)
    assert X.diag == (ONE, ZERO, ZERO)
    X = cayley_matrix(BASIS[0], zero_oct)
    assert X.diag[1] == ONE


def test_freudenthal_det_is_cubic_form():
    J = freudenthal_jordan_matrix()
    G55 = freudenthal_forms()[54]
    assert jordan_det(J) == G55


def test_cell_forms_match_octonion_products():
    ring = PolyRing(M16_VARS)
    x = symbolic_octonion(ring, "x")
    y = symbolic_octonion(ring, "y")
    forms = cayley_plane_forms(ring)
    prod = y * x.conj()
    for i in range(8):
        assert forms[16 + i] == prod.coeffs[i]
    assert forms[24] == x.norm()
    assert forms[25] == y.norm()

    r27 = PolyRing(M27_VARS)
    yo = symbolic_octonion(r27, "y")
    to = symbolic_octonion(r27, "t")
    wo = symbolic_octonion(r27, "w")
    x1, x2, x3 = r27.var("x1"), r27.var("x2"), r27.var("x3")
    forms = freudenthal_forms(r27)
    d = to * wo.conj()
    e = yo * wo
    f = yo.conj() * to
    for i in range(8):
        assert forms[30 + i] == d.coeffs[i] - x3 * r27.var(f"y{i}")
        assert forms[38 + i] == e.coeffs[i] - x2 * r27.var(f"t{i}")
        assert forms[46 + i] == f.coeffs[i] - x1 * r27.var(f"w{i}")
    tri = sum(((yo * wo).coeffs[i] * to.coeffs[i] for i in range(8)), r27.zero())
    G55 = (x1 * x2 * x3 - x1 * wo.norm() - x2 * to.norm() - x3 * yo.norm()
           + tri + tri)
    assert forms[54] == G55


def _ordered_terms(forms):
    return [list(p.terms.items()) for p in forms]


def test_cell_forms_match_polynomial_sums(monkeypatch):
    """The forms filled from term tables equal those summed from polynomial
    products one monomial at a time, term by term in insertion order (the
    float evaluator sums terms in that order)."""
    tables = _ordered_terms(cayley_plane_forms()), _ordered_terms(freudenthal_forms())
    monkeypatch.setattr(hermsym.octonion, "_parse_terms", parse_terms_by_products)
    monkeypatch.setattr(hermsym.octonion, "_square_sum", square_sum_by_products)
    assert tables == (_ordered_terms(cayley_plane_forms()),
                      _ordered_terms(freudenthal_forms()))


def test_first_pairing_form_and_zero_slice():
    ring = PolyRing(M16_VARS)
    forms = cayley_plane_forms(ring)
    want = ring.zero()
    for i in range(8):
        want = want + ring.var(f"y{i}") * ring.var(f"x{i}")
    assert forms[16] == want

    r27 = PolyRing(M27_VARS)
    forms = freudenthal_forms(r27)
    kill = {v: G(0) for v in M27_VARS if v[0] in ("t", "w")}
    d0 = partial_evaluate(forms[30], kill)
    assert d0 == -(r27.var("x3") * r27.var("y0"))


def test_table_mutation_breaks_cayley_identity(monkeypatch):
    broken = dict(OCT_TABLE)
    broken[(1, 2)] = (1, 5)
    broken[(2, 1)] = (-1, 5)
    monkeypatch.setitem(OCT_TABLE, (1, 2), (1, 5))
    monkeypatch.setitem(OCT_TABLE, (2, 1), (-1, 5))
    ring = PolyRing(M16_VARS)
    x = symbolic_octonion(ring, "x")
    y = symbolic_octonion(ring, "y")
    X = cayley_matrix(x, y)
    tr = jordan_trace(X)
    assert not mat_eq(square(X), [[e.scale(tr) for e in row] for row in X.to_full()])



def test_octonions_and_modular_polynomials_copy_and_pickle():
    """Octonions, Jordan matrices and F_p polynomials survive copy, deepcopy
    and a pickle round trip with equal values."""
    import copy
    import pickle
    from hermsym.modp import PolyModP
    rng = rng_from_seed(3)
    x = Octonion([random_small_gauss(rng) for _ in range(8)])
    J = freudenthal_jordan_matrix()
    f = PolyModP(("z", "w"), 5, {(1, 0): 2, (0, 3): 4})
    for value in (x, J, f):
        for y in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
            assert type(y) is type(value)
            if isinstance(value, JordanMatrix):
                assert y.diag == J.diag and y.off == J.off
            else:
                assert y == value
    assert pickle.loads(pickle.dumps(f)).p == 5
