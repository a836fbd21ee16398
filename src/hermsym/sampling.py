"""Seeded random sampling helpers.

Every randomized routine in the package takes an explicit seed and draws
through ``random.Random`` so identical seeds reproduce identical reports.
Rational samples keep numerators and denominators bounded by 97.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence

from .gauss import GaussRational, _reduced

BOUND = 97


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


def random_small_gauss(rng: random.Random) -> GaussRational:
    """a/p + (b/q) i with |a|, |b| <= 9 and 10 <= p, q <= BOUND ('near 0'
    sampling for jet ranks), drawn in the order a, p, b, q and brought to
    canonical form once as (a q + b p i)/(p q)."""
    a = rng.randint(-9, 9)
    p = rng.randint(10, BOUND)
    b = rng.randint(-9, 9)
    q = rng.randint(10, BOUND)
    return _reduced(a * q, b * p, p * q)


def random_gauss_point(rng: random.Random,
                       names: Sequence[str]) -> Dict[str, GaussRational]:
    """A point with one ``random_small_gauss`` coordinate per name."""
    return {v: random_small_gauss(rng) for v in names}
