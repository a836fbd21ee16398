"""Exact linear algebra: elimination over Q(i) against the fraction-free
Bareiss oracle."""

from fractions import Fraction

from hermsym.gauss import GaussRational as G
from hermsym.linalg import RankTracker, det_exact
from hermsym.sampling import random_small_gauss, rng_from_seed
from oracles import det_bareiss


def test_det_routes_agree():
    rng = rng_from_seed(1)
    for n in (1, 2, 3, 5, 7):
        M = [[random_small_gauss(rng) for _ in range(n)] for _ in range(n)]
        assert (det_exact(M) - det_bareiss(M)).is_zero()


def test_det_singular():
    M = [[G(1), G(2)], [G(2), G(4)]]
    assert det_exact(M).is_zero()
    assert det_bareiss(M).is_zero()


def test_det_complex_entries():
    M = [[G(0, 1), G(1)], [G(1), G(0, 1)]]
    # det = i*i - 1 = -2
    assert det_exact(M) == G(-2)


def test_rank_tracker():
    t = RankTracker()
    assert t.add_row({0: G(1), 2: G(1)})
    assert not t.add_row({0: G(2), 2: G(2)})
    assert t.add_row({1: G(Fraction(1, 3))})
    assert t.rank == 2
    t = RankTracker()
    assert [t.add_row(dict(enumerate(r)))
            for r in ([G(1), G(2)], [G(2), G(4)], [G(0), G(1)])] == [True, False, True]
    assert t.rank == 2


def test_rank_tracker_empty_and_zero_rows():
    t = RankTracker()
    assert not t.add_row({})
    assert not t.add_row({0: G(0), 3: 0})
    assert t.rank == 0
    assert t.add_row({0: G(0), 3: G(0, 2)})     # explicit zeros are dropped
    assert t.rows == [{3: (0, 1)}] and t.pivots == [3]
    assert not t.add_row({3: 5, 1: G(0)})


def test_rank_tracker_unordered_keys():
    t = RankTracker()
    assert t.add_row({5: G(1), 2: G(Fraction(1, 2)), 4: G(0, 1)})
    assert t.pivots == [2]                      # the smallest column, not the first key
    assert t.rows == [{5: (2, 0), 2: (1, 0), 4: (0, 2)}]
    assert not t.add_row({4: G(0, 3), 2: G(Fraction(3, 2)), 5: G(3)})
    assert t.add_row({5: G(1), 4: G(1)})
    assert t.pivots == [2, 4]


def test_det_routes_agree_larger():
    import numpy as np
    rng = rng_from_seed(8)
    for n in (4, 6, 8, 10):
        M = [[random_small_gauss(rng) for _ in range(n)] for _ in range(n)]
        a = det_exact(M)
        b = det_bareiss(M)
        assert (a - b).is_zero()
        f = np.array([[complex(x) for x in row] for row in M])
        assert abs(complex(a) - complex(np.linalg.det(f))) < 1e-8 * max(1.0, abs(complex(a)))


def test_rank_matches_float_rank():
    import numpy as np
    rng = rng_from_seed(9)
    for _ in range(5):
        rows = [[random_small_gauss(rng) for _ in range(5)] for _ in range(3)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        tracker = RankTracker()
        for row in rows:
            tracker.add_row(dict(enumerate(row)))
        exact = tracker.rank
        f = np.array([[complex(x) for x in r] for r in rows])
        assert exact == np.linalg.matrix_rank(f, tol=1e-9)
