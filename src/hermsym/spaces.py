"""Canonical embeddings of the six families of irreducible compact Hermitian
symmetric spaces, in affine cell coordinates.

Each ``Space`` carries the cell dimension ``n``, the ambient projective
dimension ``N``, the embedding polynomials ``psi`` (with ``psi[j] == z_j``
for the first ``n`` slots and vanishing linear part beyond), plus the
``pairing_psi`` vector whose self-pairing generates the Segre polynomial.
For the symplectic Grassmannian the two differ: ``pairing_psi`` is the raw
redundant minor vector (its pairing telescopes to ``det(I + Z Xi^t)`` via
Cauchy-Binet) while ``psi`` is an exact maximal linearly independent basis
selected per degree.  The float combination that turns that basis into an
honest Euclidean-coordinate embedding has irrational coefficients, and no
check needs it.

The table ``KINDS`` at the end of the module is the one place that tells
the six families apart: each ``Kind`` record holds the parameter check and
builder of a family, its genus (the Einstein exponent), jet order bound,
invariant weights, determinant model, transversal pencil and
monomial-support laws.  Code elsewhere reads the record of a space
(``Space.kind``) and never its kind name.  A matrix cell's layout is named
once, in its builder, and the built space carries its slot table
(``Space.cell``); a null kind's builder stores its null block
(``Space.null_block``).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .gauss import GaussRational
from .linalg import RankTracker
from .octonion import (M16_VARS, M27_VARS, cayley_plane_forms, freudenthal_forms)
from .poly import Polynomial, PolyRing, add_term
from .sampling import random_small_gauss


@dataclass(frozen=True)
class SpaceDescriptor:
    kind: str                 # a key of KINDS
    params: Tuple[int, ...] = ()

    def __post_init__(self):
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if not kind.valid(self.params):
            raise ValueError(kind.needs)

    @property
    def genus(self) -> int:
        """The exponent lambda of the Einstein volume density
        c * rho(z, zbar)^-lambda of the space."""
        return KINDS[self.kind].genus(*self.params)

    def label(self) -> str:
        if self.params:
            return f"{self.kind}:{','.join(map(str, self.params))}"
        return self.kind


SPACE_GRAMMAR = "typeI:p,q | typeII:n | typeIII:n | typeIV:n | e16 | e27"
_PARAM = re.compile(r"0|[1-9][0-9]*")     # a parameter of the grammar


def parse_space_spec(text: str) -> SpaceDescriptor:
    """Parse a space spec of the grammar ``SPACE_GRAMMAR``: each parameter
    is written in ASCII digits with no sign, leading zero or blank, so one
    space has one spelling."""
    kind, colon, rest = text.partition(":")
    params = rest.split(",") if colon else []
    if not all(_PARAM.fullmatch(x) for x in params):
        raise ValueError(f"space {text!r} does not match the grammar "
                         f"{SPACE_GRAMMAR}")
    return SpaceDescriptor(kind, tuple(map(int, params)))


@dataclass(frozen=True)
class Space:
    desc: SpaceDescriptor
    ring: PolyRing                       # cell coordinate ring
    psi: Tuple[Polynomial, ...]          # independent embedding polynomials
    pairing_psi: Tuple[Polynomial, ...]  # vector whose self-pairing builds rho
    distinguished: str                   # dropped variable of the jet calculus
    degenerate_note: Optional[str] = None
    # layout_cell's table of a matrix cell (None for a vector cell) and a null
    # kind's block, ending at the distinguished variable (None for a slot
    # kind); the descriptor fixes both, so equality and hashing leave them out
    cell: Optional[Dict] = field(default=None, compare=False)
    null_block: Optional[Tuple[str, ...]] = field(default=None, compare=False)

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.ring.vars

    @property
    def n(self) -> int:
        """The cell dimension."""
        return len(self.ring.vars)

    @property
    def N(self) -> int:
        """The number of independent embedding polynomials."""
        return len(self.psi)

    @property
    def numeric_tail(self) -> bool:
        """psi is an exact basis of a longer pairing vector: only a float
        combination with irrational coefficients makes it Euclidean."""
        return len(self.psi) < len(self.pairing_psi)

    @property
    def kind(self) -> "Kind":
        """The record of the family this space belongs to."""
        return KINDS[self.desc.kind]


# ---------------------------------------------------------------------------
# cell matrix layouts: (i, j) -> (variable, sign), or None for a zero entry
# ---------------------------------------------------------------------------

def _plain_entry(i: int, j: int):
    return f"z{i}_{j}", 1


def _antisym_entry(i: int, j: int):
    if i == j:
        return None
    return (f"z{i}_{j}", 1) if i < j else (f"z{j}_{i}", -1)


def _sym_entry(i: int, j: int):
    return f"z{min(i, j)}_{max(i, j)}", 1


def layout_cell(entry, rows: int, cols: int):
    """The cell of a rows x cols layout: its ring (variables in row-major
    order of first appearance) and the table (i, j) -> (ring slot, sign),
    None for a zero entry."""
    cells = {(i, j): entry(i, j)
             for i in range(1, rows + 1) for j in range(1, cols + 1)}
    ring = PolyRing(tuple(dict.fromkeys(e[0] for e in cells.values() if e)))
    slots = {ij: None if e is None else (ring.index(e[0]), e[1])
             for ij, e in cells.items()}
    return ring, slots


def antisymmetric_cell(n: int):
    """The n x n antisymmetric cell of typeII:n."""
    return layout_cell(_antisym_entry, n, n)


# ---------------------------------------------------------------------------
# minors and Pfaffians of a cell: one signed monomial per permutation or
# pair partition
# ---------------------------------------------------------------------------

def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, orbit = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            orbit += 1
        if orbit % 2 == 0:
            sign = -sign
    return sign


def _pair_partitions(indices: Tuple[int, ...]):
    """All partitions of an even index tuple into pairs, with permutation sign."""
    if not indices:
        yield (), 1
        return
    first = indices[0]
    rest = indices[1:]
    for pos, second in enumerate(rest):
        remaining = rest[:pos] + rest[pos + 1:]
        # moving `second` next to `first` hops over `pos` elements
        sign_here = (-1) ** pos
        for pairs, sign in _pair_partitions(remaining):
            yield ((first, second),) + pairs, sign_here * sign


def _expand(cell, products) -> Polynomial:
    """The signed sum of (cells, sign) products of cell entries.  Each
    product is one monomial, dropped when it meets a zero entry, and its
    int sign goes into one term table by ``poly.add_term``."""
    ring, slots = cell
    width = len(ring.vars)
    terms: Dict[Tuple[int, ...], int] = {}
    for cells, sign in products:
        exp = [0] * width
        for ij in cells:
            slot = slots[ij]
            if slot is None:
                break
            exp[slot[0]] += 1
            sign *= slot[1]
        else:
            add_term(terms, tuple(exp), sign)
    return Polynomial(ring, {e: GaussRational(c) for e, c in terms.items()})


def minor_expansion(cell, rows, cols) -> Polynomial:
    """The minor of the cell on (rows, cols), one product per permutation."""
    return _expand(cell, ((zip(rows, (cols[k] for k in perm)), _perm_sign(perm))
                          for perm in itertools.permutations(range(len(rows)))))


def pf_expansion(cell, sigma) -> Polynomial:
    """The Pfaffian of an antisymmetric cell on the index tuple sigma, one
    product per pair partition; 0 for an odd length."""
    return _expand(cell, _pair_partitions(tuple(sigma)))


# ---------------------------------------------------------------------------
# type I: Grassmannians G(p, q), full minor enumeration
# ---------------------------------------------------------------------------

def minor_index_sets(p: int, q: int):
    """(k, rows, cols) triples in lexicographic order, k = 1..p."""
    for k in range(1, p + 1):
        for rows in itertools.combinations(range(1, p + 1), k):
            for cols in itertools.combinations(range(1, q + 1), k):
                yield k, rows, cols


def build_type1(desc: SpaceDescriptor) -> Space:
    p, q = desc.params
    cell = layout_cell(_plain_entry, p, q)
    psi = [minor_expansion(cell, rows, cols) for _, rows, cols in minor_index_sets(p, q)]
    return Space(desc, cell[0], tuple(psi), tuple(psi),
                 distinguished=f"z{p}_{q}", cell=cell[1])


# ---------------------------------------------------------------------------
# type II: orthogonal Grassmannians, Pfaffian coordinates
# ---------------------------------------------------------------------------

def build_type2(desc: SpaceDescriptor) -> Space:
    n, = desc.params
    cell = antisymmetric_cell(n)
    psi = [pf_expansion(cell, sigma) for k in range(2, n + 1, 2)
           for sigma in itertools.combinations(range(1, n + 1), k)]
    note = None
    if n < 4:
        note = ("only the degree-1 Pfaffian block exists for n < 4; "
                "the embedding is linear and the space degenerates to "
                "projective space")
    return Space(desc, cell[0], tuple(psi), tuple(psi),
                 distinguished=f"z{n - 1}_{n}", degenerate_note=note,
                 cell=cell[1])


# ---------------------------------------------------------------------------
# type III: symplectic Grassmannians, two-layer minor system
# ---------------------------------------------------------------------------

def build_type3(desc: SpaceDescriptor) -> Space:
    n, = desc.params
    cell = layout_cell(_sym_entry, n, n)

    raw: List[Polynomial] = []       # layer (a): all minors, redundant
    offered: Dict[int, List[Polynomial]] = {}
    upper: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Polynomial] = {}
    for k, rows, cols in minor_index_sets(n, n):
        # Z is symmetric, so minor(J, I) = minor(I, J), expanded at the
        # earlier (I, J): reused here, and not offered to the greedy below,
        # which would reject it
        if rows <= cols:
            m = upper[rows, cols] = minor_expansion(cell, rows, cols)
            offered.setdefault(k, []).append(m)
        else:
            m = upper[cols, rows]
        raw.append(m)

    # layer (b): per-degree maximal independent subsets, greedy in lex order
    psi: List[Polynomial] = []
    for k in range(1, n + 1):
        group = offered[k]
        column = {e: j for j, e in enumerate(sorted({e for g in group for e in g.terms}))}
        tracker = RankTracker()
        psi.extend(g for g in group
                   if tracker.add_row({column[e]: c for e, c in g.terms.items()}))
    return Space(desc, cell[0], tuple(psi), tuple(raw),
                 distinguished=f"z{n}_{n}", cell=cell[1])


# ---------------------------------------------------------------------------
# type IV: hyperquadrics
# ---------------------------------------------------------------------------

def build_type4(desc: SpaceDescriptor) -> Space:
    n, = desc.params
    ring = PolyRing(tuple(f"z{i}" for i in range(1, n + 1)))
    psi = [ring.var(f"z{i}") for i in range(1, n + 1)]
    q = ring.zero()
    for i in range(1, n + 1):
        v = ring.var(f"z{i}")
        q = q + v * v
    psi.append(q.scale(Fraction(1, 2)))
    return Space(desc, ring, tuple(psi), tuple(psi),
                 distinguished=f"z{n}", null_block=ring.vars)


# ---------------------------------------------------------------------------
# the two exceptional spaces
# ---------------------------------------------------------------------------

def build_e16(desc: SpaceDescriptor) -> Space:
    ring = PolyRing(M16_VARS)
    psi = tuple(cayley_plane_forms(ring))
    return Space(desc, ring, psi, psi, distinguished="y7", null_block=M16_VARS[8:])


def build_e27(desc: SpaceDescriptor) -> Space:
    ring = PolyRing(M27_VARS)
    psi = tuple(freudenthal_forms(ring))
    return Space(desc, ring, psi, psi, distinguished="x3")


def build_space(desc: SpaceDescriptor | str) -> Space:
    if isinstance(desc, str):
        desc = parse_space_spec(desc)
    return KINDS[desc.kind].build(desc)


def cell_matrix_point(space: Space, values: Dict[str, GaussRational]):
    """Assemble the matrix (or, for a vector cell, the vector) of a cell
    point from named values."""
    if space.cell is None:
        return [values[v] for v in space.vars]
    vals = [GaussRational.coerce(values[v]) for v in space.vars]
    flat = [GaussRational(0) if e is None else vals[e[0]] if e[1] > 0 else -vals[e[0]]
            for e in space.cell.values()]         # row-major
    cols = space.desc.params[-1]
    return [flat[k:k + cols] for k in range(0, len(flat), cols)]


# ---------------------------------------------------------------------------
# transversal Segre pencils: (space, rng) -> (xi0, z0, z1)
# ---------------------------------------------------------------------------

def _zero_point(space: Space) -> Dict[str, GaussRational]:
    return {v: GaussRational(0) for v in space.vars}


def _slot_pencil(a: str, b: str, space: Space, rng):
    """xi0 = e_a; z0 random with z0[a] = -1; z1 = z0 moved by 1 + 3i along b."""
    xi0 = _zero_point(space)
    xi0[a] = GaussRational(1)
    z0 = {v: random_small_gauss(rng) for v in space.vars}
    z0[a] = GaussRational(-1)
    z1 = dict(z0)
    z1[b] = z0[b] + GaussRational(1, 3)
    return xi0, z0, z1


def _quadric_pencil(space: Space, rng):
    xi0 = _zero_point(space)
    xi0["z1"] = GaussRational(1)
    i = GaussRational.i()
    a = random_small_gauss(rng)
    b = a + GaussRational(1, 5)         # 1 + 5i
    z0 = _zero_point(space)
    z0["z1"] = a
    z0["z2"] = i * (a + 2)
    z1 = _zero_point(space)
    z1["z1"] = b
    z1["z2"] = -(i * (b + 2))
    return xi0, z0, z1


def _cayley_plane_pencil(space: Space, rng):
    xi0 = _zero_point(space)
    xi0["x0"] = GaussRational(1)

    def conic_point(t: Fraction, sign: int):
        # rational points on s^2 = x0^2 + x0 + 1 via lines through (0, 1)
        x0 = GaussRational(Fraction(1 - 2 * t, t * t - 1))
        s = GaussRational(Fraction(-(t * t) + t - 1, t * t - 1))
        z = {v: random_small_gauss(rng) for v in space.vars}
        for k in range(8):
            z[f"x{k}"] = GaussRational(0)
        z["x0"] = x0
        z["x1"] = GaussRational.i() * s * sign
        return z
    return xi0, conic_point(Fraction(2), 1), conic_point(Fraction(3), -1)


# ---------------------------------------------------------------------------
# monomial-support laws behind the irreducibility case analyses:
# (space, groups) -> {fact: bool}, where groups maps each z-exponent tuple of
# the family polynomial to its xi-coefficients {xi-exponent tuple: value}.
# Each law is a declaration over the shared predicates below; the cell kinds
# read the position (i, j) of a variable off the space's cell table.
# ---------------------------------------------------------------------------

def _monomial(space: Space, *items) -> Tuple[int, ...]:
    """The z-exponent tuple of the (variable name, power) items."""
    ze = [0] * space.n
    for name, k in items:
        ze[space.ring.index(name)] += k
    return tuple(ze)


def _xi_neg(a: Dict) -> Dict:
    return {e: -c for e, c in a.items()}


def _squarefree(groups) -> bool:
    return all(k <= 1 for ze in groups for k in ze)


def _squares_agree(space: Space, groups, names) -> bool:
    """The squares of the named variables have equal xi-coefficients."""
    first, *rest = (groups.get(_monomial(space, (v, 2)), {}) for v in names)
    return all(group == first for group in rest)


def _no_cross_terms(space: Space, groups, names) -> bool:
    """No product of two distinct named variables is a z-monomial."""
    return not any(groups.get(_monomial(space, (a, 1), (b, 1)))
                   for a, b in itertools.combinations(names, 2))


def _distinct(space: Space, groups, indices) -> bool:
    """No z-monomial holds two cell entries that share an index, where
    ``indices`` maps the position (i, j) of an entry to the indices it
    occupies: its row, its column or its index pair."""
    position: Dict[int, Tuple[int, int]] = {}
    for ij, slot in space.cell.items():
        if slot is not None:
            position.setdefault(slot[0], ij)
    for ze in groups:
        used = [x for slot, k in enumerate(ze) if k for x in indices(position[slot])]
        if len(used) != len(set(used)):
            return False
    return True


def _grassmann_laws(space: Space, groups) -> Dict[str, bool]:
    return {"no_squared_entry": _squarefree(groups),
            "no_repeated_row": _distinct(space, groups, lambda ij: ij[:1]),
            "no_repeated_column": _distinct(space, groups, lambda ij: ij[1:])}


def _orthogonal_laws(space: Space, groups) -> Dict[str, bool]:
    return {"no_squared_entry": _squarefree(groups),
            "no_overlapping_index_pairs": _distinct(space, groups, lambda ij: ij)}


def _quadric_laws(space: Space, groups) -> Dict[str, bool]:
    return {"square_coefficients_equal": _squares_agree(space, groups, space.vars),
            "no_mixed_quadratics": _no_cross_terms(space, groups, space.vars)}


def _cayley_plane_laws(space: Space, groups) -> Dict[str, bool]:
    xs = [f"x{i}" for i in range(8)]
    ys = [f"y{i}" for i in range(8)]

    def xy(i, j):
        return groups.get(_monomial(space, (xs[i], 1), (ys[j], 1)), {})
    return {"no_x_cross_terms": _no_cross_terms(space, groups, xs),
            "no_y_cross_terms": _no_cross_terms(space, groups, ys),
            "x_square_coefficients_equal": _squares_agree(space, groups, xs),
            "y_square_coefficients_equal": _squares_agree(space, groups, ys),
            "xy_antisymmetric_pairing": all(
                xy(i, j) == _xi_neg(xy(j, i))
                for i, j in itertools.permutations(range(8), 2))}


def _freudenthal_laws(space: Space, groups) -> Dict[str, bool]:
    def product(*names):
        return _monomial(space, *((v, 1) for v in names))

    def multiples(*names):
        """The z-monomials divisible by the product of the names."""
        found = set(groups)
        for slot, k in enumerate(product(*names)):
            if k:
                found = {ze for ze in found if ze[slot] >= k}
        return found
    return {
        "no_squared_diagonal": not any(multiples(x, x) for x in ("x1", "x2", "x3")),
        "x1x2_multiples": multiples("x1", "x2") <= {
            product("x1", "x2"), product("x1", "x2", "x3")},
        "no_x3_t_terms": not any(multiples("x3", f"t{i}") for i in range(8)),
        "no_x3_w_terms": not any(multiples("x3", f"w{i}") for i in range(8)),
        "x3y0_multiples": multiples("x3", "y0") <= {
            product("x3", "y0"), product("x3", "y0", "y0")},
        "t0w0_multiples": multiples("t0", "w0") <= {
            product("t0", "w0"), product("t0", "w0", "y0")},
    }


def symplectic_pairing_facts(space: Space, groups) -> Dict[str, bool]:
    """The four paired-coefficient laws of the symmetric-minor expansions,
    checked with xi-coefficients compared as exact polynomials."""
    n = space.desc.params[0]
    cell = space.cell

    def shift(ze, cells, k=1):
        """ze times the entries at the cells, each to the power k."""
        ze = list(ze)
        for ij in cells:
            ze[cell[ij][0]] += k
        return tuple(ze)

    def paired(p_pair, t_pair, marker, factor) -> bool:
        """Every present monomial P = p_pair Q or T = t_pair Q has the
        xi-coefficient c_T = -c_P, times ``factor`` when the marker entry
        divides Q."""
        seen = set()
        for ze in groups:
            for pair in (p_pair, t_pair):
                q = shift(ze, pair, -1)
                if min(q) < 0 or q in seen:
                    continue
                seen.add(q)
                cp = groups.get(shift(q, p_pair), {})
                if q[cell[marker][0]]:
                    cp = {e: c * factor for e, c in cp.items()}
                if groups.get(shift(q, t_pair), {}) != _xi_neg(cp):
                    return False
        return True

    half, two = GaussRational(Fraction(1, 2)), GaussRational(2)
    # law A: P = z_in z_nj Q vs Ptilde = z_ij z_nn Q, ratio -1 (or -1/2 when
    # z_ij divides Q)
    ok_a = all(paired(((i, n), (j, n)), ((i, j), (n, n)), (i, j), half)
               for i in range(1, n) for j in range(1, n))
    # law B: P = z_jn z_(n-1)(n-1) Q vs Ptilde = z_j(n-1) z_(n-1)n Q,
    # ratio -1 (or -2 when z_jn divides Q)
    ok_b = all(paired(((j, n), (n - 1, n - 1)), ((j, n - 1), (n - 1, n)),
                      (j, n), two) for j in range(1, n - 1))
    # law C: P = z_i(n-1) z_in Q vs Ptilde = z_ii z_(n-1)n Q, ratio -1
    # (or -1/2 when z_(n-1)n divides Q)
    ok_c = all(paired(((i, n - 1), (i, n)), ((i, i), (n - 1, n)), (n - 1, n),
                      half) for i in range(1, n - 1))
    # mixed law: a present monomial z_ij z_(n-1)n Q forces the presence of
    # z_i(n-1) z_jn Q or z_in z_j(n-1) Q.  (The literal two-sided coefficient
    # claim -(c1+c2) fails on explicit 3x3 submatrices once n >= 4; the case
    # analyses only ever use this presence implication, which does hold.)
    def mixed(i, j) -> bool:
        for ze in groups:
            if ze[cell[i, j][0]] and ze[cell[n - 1, n][0]]:
                q = shift(ze, ((i, j), (n - 1, n)), -1)
                if not (groups.get(shift(q, ((i, n - 1), (j, n))))
                        or groups.get(shift(q, ((i, n), (j, n - 1))))):
                    return False
        return True
    ok_d = all(mixed(i, j) for i, j in itertools.permutations(range(1, n - 1), 2))
    return {"pairing_law_corner": ok_a, "pairing_law_row": ok_b,
            "pairing_law_diag": ok_c, "pairing_law_mixed": ok_d}


# ---------------------------------------------------------------------------
# the per-kind table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """How one family of spaces differs from the others.

    ``genus`` maps the parameters to the genus p + q, 2n - 2, n + 1, n, 12
    or 18 (Loos, *Bounded symmetric domains and Jordan pairs*, 1977), the
    exponent lambda of the Einstein volume density c * rho^-lambda.
    ``build`` makes the space of a validated descriptor."""
    needs: str                               # the parameter requirement
    valid: Callable[[Tuple[int, ...]], bool]
    build: Callable[[SpaceDescriptor], Space]
    genus: Callable[..., int]
    weights: Optional[Tuple[int, ...]]       # invariant pairing weights; None: 1
    det_power: Optional[int]                 # rho^k = det(I + Z Xi^t); None: no model
    oracle: bool                             # hyp3 runs the finite-field oracle
    pencil: Callable                         # (space, rng) -> (xi0, z0, z1)
    support_laws: Callable                   # (space, groups) -> {fact: bool}


KINDS: Dict[str, Kind] = {
    "typeI": Kind(
        needs="typeI needs 1 <= p <= q",
        valid=lambda p: len(p) == 2 and 1 <= p[0] <= p[1], build=build_type1,
        genus=lambda p, q: p + q, weights=None, det_power=1,
        oracle=True, pencil=partial(_slot_pencil, "z1_1", "z1_2"),
        support_laws=_grassmann_laws),
    "typeII": Kind(
        needs="typeII needs n >= 2 (first Pfaffian block at n=4)",
        valid=lambda p: len(p) == 1 and p[0] >= 2, build=build_type2,
        genus=lambda n: 2 * n - 2, weights=None, det_power=2,
        oracle=True, pencil=partial(_slot_pencil, "z1_2", "z1_3"),
        support_laws=_orthogonal_laws),
    "typeIII": Kind(
        needs="typeIII needs n >= 2",
        valid=lambda p: len(p) == 1 and p[0] >= 2, build=build_type3,
        genus=lambda n: n + 1, weights=None, det_power=1,
        oracle=True, pencil=partial(_slot_pencil, "z1_1", "z1_2"),
        support_laws=symplectic_pairing_facts),
    "typeIV": Kind(
        needs="typeIV needs n >= 3 (irreducible quadric)",
        valid=lambda p: len(p) == 1 and p[0] >= 3, build=build_type4,
        genus=lambda n: n, weights=None, det_power=None,
        oracle=True, pencil=_quadric_pencil, support_laws=_quadric_laws),
    # the exceptional cells are printed with unit coefficients; the
    # invariant trace form doubles their matrix-off-diagonal blocks
    "e16": Kind(
        needs="e16 takes no parameters", valid=lambda p: not p, build=build_e16,
        genus=lambda: 12, weights=(2,) * 24 + (1,) * 2, det_power=None,
        oracle=False, pencil=_cayley_plane_pencil,
        support_laws=_cayley_plane_laws),
    "e27": Kind(
        needs="e27 takes no parameters", valid=lambda p: not p, build=build_e27,
        genus=lambda: 18,
        weights=(1,) * 3 + (2,) * 24 + (1,) * 3 + (2,) * 24 + (1,),
        det_power=None, oracle=False,
        pencil=partial(_slot_pencil, "x1", "y0"),
        support_laws=_freudenthal_laws),
}
