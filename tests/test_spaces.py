"""Space builders: dimensions, embedding invariants, Pfaffians, the
symplectic two-layer system."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from hermsym.cli import build_parser, cmd_describe, dump_json, main
from hermsym.gauss import GaussRational as G, ZERO
from hermsym.linalg import RankTracker, det_exact
from hermsym.poly import PolyRing
from hermsym.sampling import random_gauss_point, random_small_gauss, rng_from_seed
from hermsym.spaces import (KINDS, SpaceDescriptor, _antisym_entry, _plain_entry,
                            _sym_entry, build_space, cell_matrix_point,
                            parse_space_spec)
from oracles import evaluate_float, pfaffian

DESK = ["typeI:2,2", "typeI:2,3", "typeII:4", "typeIII:2", "typeIII:3",
        "typeIV:3", "e16", "e27"]


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SpaceDescriptor("typeI", (3, 2))
    with pytest.raises(ValueError):
        SpaceDescriptor("typeIV", (2,))
    with pytest.raises(ValueError):
        SpaceDescriptor("e16", (2,))
    with pytest.raises(ValueError):
        parse_space_spec("typeV:3")
    assert parse_space_spec("typeI:2,3").params == (2, 3)


def test_type1_counts_and_minor():
    s = build_space("typeI:1,1")
    assert (s.n, s.N) == (1, 1)
    s = build_space("typeI:2,2")
    assert s.N == 5
    r = s.ring
    det = r.var("z1_1") * r.var("z2_2") - r.var("z1_2") * r.var("z2_1")
    assert s.psi[4] == det
    s = build_space("typeI:2,3")
    assert s.N == 9
    for p, q in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        s = build_space(f"typeI:{p},{q}")
        want = sum(math.comb(p, k) * math.comb(q, k) for k in range(1, p + 1))
        assert s.N == want == len(s.psi)


def test_embedding_conventions_all_types():
    for spec in DESK:
        s = build_space(spec)
        for j in range(s.n):
            assert s.psi[j] == s.ring.var(s.vars[j])
        for p in s.psi[s.n:]:
            assert all(sum(e) >= 2 for e in p.terms)
        assert all(p.constant_term().is_zero() for p in s.psi)
        assert s.distinguished in s.vars


def test_pfaffian_basics():
    ring = PolyRing(["a"])
    a = ring.var("a")
    M = [[ring.zero(), a], [-a, ring.zero()]]
    assert pfaffian(M) == a
    M3 = [[ring.zero()] * 3 for _ in range(3)]
    assert pfaffian(M3).is_zero()
    with pytest.raises(ValueError, match="antisymmetric"):
        pfaffian([[a, a], [a, a]])


def test_type2_embedding():
    s = build_space("typeII:4")
    assert (s.n, s.N) == (6, 7)
    r = s.ring
    want = (r.var("z1_2") * r.var("z3_4") - r.var("z1_3") * r.var("z2_4")
            + r.var("z1_4") * r.var("z2_3"))
    assert s.psi[-1] == want
    assert build_space("typeII:5").N == 15
    assert build_space("typeII:3").degenerate_note is not None


def test_pfaffian_partition_vs_recursive_and_square():
    rng = rng_from_seed(9)
    ring = PolyRing(["t"])
    for order in (2, 4, 6, 8):
        M = [[ring.zero()] * order for _ in range(order)]
        for i in range(order):
            for j in range(i + 1, order):
                v = ring.const(random_small_gauss(rng))
                M[i][j] = v
                M[j][i] = -v
        p1 = pfaffian(M, "partition")
        p2 = pfaffian(M, "recursive")
        assert p1 == p2
        if order <= 6:
            pf = p1.constant_term()
            det = det_exact(
                [[M[i][j].constant_term() for j in range(order)]
                 for i in range(order)])
            assert (pf * pf - det).is_zero()


def test_type3_two_layers():
    s = build_space("typeIII:2")
    assert (s.n, s.N) == (3, 4)
    assert len(s.pairing_psi) == 5
    assert [str(p) for p in s.psi[:3]] == ["1*z1_1", "1*z1_2", "1*z2_2"]
    s = build_space("typeIII:3")
    assert (s.n, s.N) == (6, 13)
    assert len(s.pairing_psi) == 19
    # exact independence of the selected basis
    monomials = sorted({e for p in s.psi for e in p.terms})
    tracker = RankTracker()
    for p in s.psi:
        tracker.add_row({k: p.terms[e] for k, e in enumerate(monomials)
                         if e in p.terms})
    assert tracker.rank == s.N


def symplectic_tail(space):
    """Float orthonormalization data of the symplectic Grassmannian.

    Per degree k: the indices of the exact basis elements in psi, and the
    combo matrix C with (normalized block) = (basis block) . C, so that the
    self-pairing of the normalized system equals the raw minor pairing."""
    blocks = []
    for k in range(1, space.desc.params[0] + 1):
        idx = [j for j, p in enumerate(space.psi) if p.degree() == k]
        group = [p for p in space.pairing_psi if p.degree() == k]
        monomials = sorted({e for g in group for e in g.terms})
        B = np.array([[float(space.psi[j].terms.get(e, ZERO).re) for e in monomials] for j in idx])
        R = np.array([[float(p.terms.get(e, ZERO).re) for e in monomials] for p in group])
        # the minors have integer coefficients, so the float solve of the
        # consistent system B^T A = R^T is exact well within tolerance
        A, *_ = np.linalg.lstsq(B.T, R.T, rcond=None)
        mu, U = np.linalg.eigh(A @ A.T)
        assert mu.min() > 1e-9, "A_k A_k^t not positive definite"
        blocks.append((idx, U @ np.diag(np.sqrt(mu))))
    return blocks


def symplectic_tail_eval(space, blocks, point):
    """Evaluate the float-coefficient orthonormalized embedding system."""
    vals = np.array([evaluate_float(p, point) for p in space.psi])
    return np.concatenate([vals[idx] @ combo for idx, combo in blocks])


def test_type3_numeric_tail():
    rng = rng_from_seed(4)
    for n in (2, 3):
        s = build_space(f"typeIII:{n}")
        tail = symplectic_tail(s)
        # sqrt(2) pattern on the degree-1 block
        idx, combo = tail[0]
        diag = np.abs(np.diag(combo @ combo.T.conj()))
        pattern = []
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                pattern.append(1.0 if i == j else 2.0)
        assert np.allclose(sorted(diag), sorted(pattern))
        # pairing identity: 1 + sum tail(z) tail(xi) = det(I + Z Xi^t)
        for _ in range(20):
            z = random_gauss_point(rng, s.vars)
            xi = random_gauss_point(rng, s.vars)
            t1 = symplectic_tail_eval(s, tail, {v: complex(z[v]) for v in s.vars})
            t2 = symplectic_tail_eval(s, tail, {v: complex(xi[v]) for v in s.vars})
            Z = cell_matrix_point(s, z)
            X = cell_matrix_point(s, xi)
            M = [[(G(1 if i == j else 0)
                   + sum((Z[i][k] * X[j][k] for k in range(n)), G(0)))
                  for j in range(n)] for i in range(n)]
            det = complex(det_exact(M))
            assert abs(1.0 + t1 @ t2 - det) < 1e-9
        # float full row rank of the tail system at tolerance 1e-9
        pts = []
        rng_np = np.random.default_rng(5)
        for _ in range(3 * s.N):
            vals = rng_np.uniform(-0.5, 0.5, len(s.vars)) \
                + 1j * rng_np.uniform(-0.5, 0.5, len(s.vars))
            pts.append(symplectic_tail_eval(
                s, tail, {v: vals[i] for i, v in enumerate(s.vars)}))
        sv = np.linalg.svd(np.array(pts), compute_uv=False)
        assert sv[s.N - 1] > 1e-9


def test_type4_and_defining_equation():
    s = build_space("typeIV:3")
    r = s.ring
    z1, z2, z3 = (r.var(f"z{i}") for i in (1, 2, 3))
    q = (z1 * z1 + z2 * z2 + z3 * z3).scale(Fraction(1, 2))
    assert s.psi[3] == q
    # homogeneous defining equation: sum psi_i^2 - 2 * 1 * psi_{n+1} = 0
    total = r.zero()
    for i in range(3):
        total = total + s.psi[i] * s.psi[i]
    assert (total - s.psi[3].scale(2)).is_zero()


def test_exceptional_dimensions():
    e = build_space("e16")
    assert (e.n, e.N) == (16, 26)
    r = e.ring
    want = r.zero()
    for i in range(8):
        want = want + r.var(f"y{i}") * r.var(f"x{i}")
    assert e.psi[16] == want
    e = build_space("e27")
    assert (e.n, e.N) == (27, 55)


def _describe(spec: str) -> dict:
    """The ``describe`` report of ``spec``, as written and read back."""
    args = build_parser().parse_args(["describe", "--space", spec])
    return json.loads(dump_json(cmd_describe(args)[1]))


def test_space_json():
    obj = _describe("typeI:2,2")
    assert obj["kind"] == "typeI" and obj["n"] == 4 and obj["N"] == 5
    assert len(obj["psi"]) == 5
    # a proper psi basis of a longer pairing vector needs a numeric tail;
    # of the six kinds only the symplectic one has it
    tails = {spec: _describe(spec)["psi_numeric_tail"]
             for spec in ["typeI:1,1", "typeII:3"] + DESK}
    assert tails == {spec: spec.startswith("typeIII:") for spec in tails}


# specs that int() and strip() read as a space: each parameter is ASCII
# 0|[1-9][0-9]*, and a spec has no blanks
OFF_GRAMMAR = ["typeI:+2,2", "typeI:02,2", "typeI:2,2 ", " typeIV:3",
               "typeI:\uff12,2", "typeIV:\u0663", "typeI:1,1_0"]


@pytest.mark.parametrize("spec", OFF_GRAMMAR)
def test_specs_off_the_grammar_are_refused(spec, capsys):
    with pytest.raises(ValueError):
        parse_space_spec(spec)
    assert main(["describe", "--space", spec]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# pieces of --space strings: kind names, digits, signs, blanks, "_" and
# non-ASCII digits (full-width 2, Arabic-Indic 3, Devanagari 5)
SPEC_PIECES = (list(KINDS) + ["type", "V", ":", ",", "0", "1", "2", "7", "10",
                              "+", "-", " ", "\t", "_", "\uff12", "\u0663",
                              "\u096b"])
PARAM_PIECES = ["0", "1", "2", "3", "9", "12", "007", "+2", "-1", " 2", "2 ",
                "1_0", "\uff12", "\u0663", ""]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.sampled_from(SPEC_PIECES), max_size=8).map("".join),
    st.builds(lambda kind, params: kind + ":" + ",".join(params),
              st.sampled_from(list(KINDS)),
              st.lists(st.sampled_from(PARAM_PIECES), min_size=1, max_size=3))))
def test_space_spellings_parse_as_written_or_are_refused(spec):
    """A --space string is either one space, whose label is the string
    itself, or refused: ValueError from the parser and exit 2 from
    ``describe``.  No space is built."""
    try:
        desc = parse_space_spec(spec)
    except ValueError:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            # "--space=" keeps argparse from reading "-typeI" as a flag
            assert main(["describe", "--space=" + spec]) == 2
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert desc.label() == spec


def test_kind_table_consistent():
    """Each record agrees with the space its builder makes: a null block
    ends at the distinguished variable, the weights cover the pairing
    vector, and a matrix layout holds every cell variable."""
    from hermsym.floats import invariant_weights
    for spec in DESK:
        s = build_space(spec)
        block = s.null_block
        if block is not None:
            assert block[-1] == s.distinguished and len(block) >= 2, spec
        assert len(invariant_weights(s)) == len(s.pairing_psi), spec
        if s.cell is not None:
            z = {v: G(k + 1) for k, v in enumerate(s.vars)}
            entries = {abs(complex(x)) for row in cell_matrix_point(s, z) for x in row}
            assert entries - {0} == {k + 1 for k in range(s.n)}, spec


def test_space_carries_its_cell_table():
    """The stored table of a matrix cell equals one rebuilt from its layout
    function: (i, j) -> (ring slot, sign), None for a zero entry, in
    row-major order.  A vector cell stores none."""
    layouts = [("typeI", _plain_entry,
                [(p, q) for q in range(1, 5) for p in range(1, q + 1)]),
               ("typeII", _antisym_entry, [(n,) for n in range(2, 7)]),
               ("typeIII", _sym_entry, [(n,) for n in range(2, 6)])]
    for kind, entry, cases in layouts:
        for params in cases:
            s = build_space(SpaceDescriptor(kind, params))
            want = []
            for i in range(1, params[0] + 1):
                for j in range(1, params[-1] + 1):
                    e = entry(i, j)
                    slot = None if e is None else (s.vars.index(e[0]), e[1])
                    want.append(((i, j), slot))
            assert list(s.cell.items()) == want, (kind, params)
    for spec in ("typeIV:3", "e16", "e27"):
        assert build_space(spec).cell is None


def test_space_stores_its_null_block():
    """A null kind's stored block is its variables of one letter, in ring
    order, ending at the distinguished variable: every cell variable of
    typeIV, the y block of e16.  A slot kind stores none."""
    for spec, letter in [("typeIV:3", "z"), ("typeIV:4", "z"), ("typeIV:5", "z"),
                         ("typeIV:6", "z"), ("e16", "y")]:
        s = build_space(spec)
        assert s.null_block == tuple(v for v in s.vars if v.startswith(letter)), spec
        assert s.null_block[-1] == s.distinguished, spec
    for spec in ["typeI:1,1", "typeI:2,3", "typeII:4", "typeIII:3", "e27"]:
        assert build_space(spec).null_block is None, spec


def test_build_space_validates_once(monkeypatch):
    """The builder takes the parsed descriptor; it makes no second one."""
    calls = []
    check = SpaceDescriptor.__post_init__
    monkeypatch.setattr(SpaceDescriptor, "__post_init__",
                        lambda self: calls.append(self) or check(self))
    space = build_space("typeI:2,3")
    assert calls == [space.desc]


def test_kind_weights_are_exact():
    """The invariant weights are ints; the float layer reads them as floats."""
    from hermsym.floats import invariant_weights
    for name, kind in KINDS.items():
        assert kind.weights is None or {type(w) for w in kind.weights} == {int}, name
    assert invariant_weights(build_space("e16")).dtype == np.float64
