"""Holomorphic self-maps in cell coordinates: exact component fractions,
their Jacobians, and the JSON wire format for user-supplied map tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .gauss import GaussRational
from .poly import Polynomial, PolyFraction, PolyRing
from .spaces import Space


@dataclass(frozen=True)
class RationalMap:
    """Map F = (F_1..F_n) with each component an exact polynomial fraction
    over the cell coordinate ring; denominators must not vanish at 0."""

    ring: PolyRing
    components: Tuple[PolyFraction, ...]

    def __post_init__(self):
        for f in self.components:
            if f.den.constant_term().is_zero():   # its value at the origin
                raise ValueError("component denominator vanishes at 0")

    def jacobian_fractions(self) -> List[List[PolyFraction]]:
        """d F_k / d z_i as exact fractions, row index i, column index k."""
        return [[f.derivative(v) for f in self.components] for v in self.ring.vars]


def identity_map(space: Space) -> RationalMap:
    ring = space.ring
    one = ring.one()
    comps = tuple(PolyFraction(ring.var(v), one) for v in ring.vars)
    return RationalMap(ring, comps)


def scaling_map(space: Space, factor) -> RationalMap:
    ring = space.ring
    one = ring.one()
    comps = tuple(PolyFraction(ring.var(v).scale(GaussRational.coerce(factor)), one)
                  for v in ring.vars)
    return RationalMap(ring, comps)


# ---------------------------------------------------------------------------
# map-file wire format
# ---------------------------------------------------------------------------

@dataclass
class MapFile:
    maps: List[RationalMap]
    lambdas: Optional[List[float]]
    lambdas_exact: Optional[List[Fraction]]


def poly_from_json(obj, ring: PolyRing) -> Polynomial:
    """The polynomial of {"vars": [names], "terms": [{"exp": [k, ...],
    "re": x, "im": y}]} in ``ring``, whose names "vars" lists in order.  Each
    exponent is a list of non-negative integers, one per variable, that no
    other term repeats; "im" may be left out.  Else ValueError."""
    if not (isinstance(obj, dict) and isinstance(obj.get("vars"), list)
            and all(isinstance(v, str) for v in obj["vars"])
            and isinstance(obj.get("terms"), list)):
        raise ValueError("a polynomial is an object with a 'vars' array of "
                         "names and a 'terms' array")
    if tuple(obj["vars"]) != ring.vars:
        raise ValueError("variable sets differ")
    terms = {}
    for t in obj["terms"]:
        exp = t.get("exp") if isinstance(t, dict) else None
        if not (isinstance(exp, list) and len(exp) == len(ring.vars) and all(
                type(k) is int and k >= 0 for k in exp)):
            raise ValueError(f"term exponent {exp!r} is not a list of "
                             f"{len(ring.vars)} non-negative integers")
        if tuple(exp) in terms:
            raise ValueError(f"term exponent {exp!r} is repeated")
        if "re" not in t:
            raise ValueError(f"term {t!r} has no 're' coefficient")
        if isinstance(t["re"], bool) or isinstance(t.get("im"), bool):
            raise ValueError(f"term {t!r} has a boolean coefficient")
        try:
            terms[tuple(exp)] = GaussRational(Fraction(t["re"]),
                                              Fraction(t.get("im", "0")))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"term {t!r} has a malformed coefficient") from None
    return Polynomial(ring, terms)     # which drops zero terms


def _fraction_from_json(ring: PolyRing, obj) -> PolyFraction:
    if not (isinstance(obj, dict) and "num" in obj):
        raise ValueError("a map component is an object with a 'num' polynomial")
    num = poly_from_json(obj["num"], ring)
    den = poly_from_json(obj["den"], ring) if obj.get("den") is not None else ring.one()
    if den.is_zero():
        raise ValueError("a map component has a zero denominator")
    return PolyFraction(num, den)


def _lambda(x) -> Tuple[Fraction, float]:
    """A map weight as an exact rational and as the float the checks use."""
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise ValueError(f"lambda {x!r} is neither a number nor an 'a/b' string")
    try:
        exact = Fraction(x)
        return exact, float(exact if isinstance(x, str) else x)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"lambda {x!r} is not a finite rational within "
                         f"the float range") from None


def parse_map_file(space: Space, payload) -> MapFile:
    """Parse {'maps': [...], 'lambdas': [...]} (or a bare list of maps).

    Each map is a list of n components {num: <poly>, den: <poly>}.  Lambda
    entries given as 'a/b' strings are kept exact; plain numbers are floats.
    A payload of any other shape raises ValueError: a non-object payload, a
    map that is not a list of n objects with a 'num', a malformed polynomial
    (see ``poly_from_json``), a zero denominator, 'lambdas' that is not a
    list of one positive number or 'a/b' string per map.
    """
    if isinstance(payload, list):
        payload = {"maps": payload}
    if not isinstance(payload, dict):
        raise ValueError("map file must be an object or an array of maps")
    raw_maps = payload.get("maps")
    if not isinstance(raw_maps, list) or not raw_maps:
        raise ValueError("map file must contain a non-empty 'maps' array")
    maps = []
    for entry in raw_maps:
        if not isinstance(entry, list):
            raise ValueError("each map must be an array of components")
        if len(entry) != space.n:
            raise ValueError(
                f"map has {len(entry)} components; space cell dimension is {space.n}")
        comps = tuple(_fraction_from_json(space.ring, c) for c in entry)
        maps.append(RationalMap(space.ring, comps))
    lambdas = payload.get("lambdas")
    exact = None
    floats = None
    if lambdas is not None:
        if not isinstance(lambdas, list):
            raise ValueError("'lambdas' must be an array")
        if len(lambdas) != len(maps):
            raise ValueError("lambdas count does not match maps count")
        pairs = [_lambda(x) for x in lambdas]
        floats = [f for _, f in pairs]
        if all(isinstance(x, str) for x in lambdas):
            exact = [q for q, _ in pairs]
        if any(f <= 0 for f in floats):
            raise ValueError("lambdas must be positive")
    return MapFile(maps, floats, exact)
