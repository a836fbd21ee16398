"""The acceptance matrix: every criterion at its stated tolerance, one
pass/fail line per criterion, plus the mutation and tolerance hooks."""

import pytest

from hermsym import acceptance
from hermsym.acceptance import (ALL_CRITERIA, Tolerances, run_all,
                                check_octonion_suite)
from hermsym.octonion import OCT_TABLE

SEED = acceptance.DEFAULT_SEED


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[fn.__name__.replace("check_", "") for fn in ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion(seed=SEED, tol=Tolerances())
    line = f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_mutated_octonion_table_fails(monkeypatch):
    monkeypatch.setitem(OCT_TABLE, (1, 2), (1, 5))
    monkeypatch.setitem(OCT_TABLE, (2, 1), (-1, 5))
    result = check_octonion_suite(seed=SEED)
    assert not result.passed
    assert result.failure_kind == "logic"


def test_tightened_tolerance_flags_tolerance_not_logic():
    tight = Tolerances(float_tol=1e-15, einstein_tol=1e-17, ricci_tol=1e-15,
                       degeneracy_tol=1e-17, claim_head_tol=1e-19)
    results = run_all(seed=SEED, tol=tight)
    failures = [r for r in results if not r.passed]
    assert failures, "tightening tolerances to 1e-15 must trip a float check"
    for r in failures:
        assert r.failure_kind == "tolerance", (r.name, r.detail)


def test_perturbed_psi_fails_embedding_identity(monkeypatch):
    """rho is evaluated from the pairing vector, so one wrong psi
    coefficient must break rho(z, zbar) = det(I + Z Z*)."""
    import dataclasses
    from hermsym.gauss import GaussRational
    from hermsym.poly import Polynomial
    from hermsym.segre import SegreFamily
    from hermsym.spaces import build_space
    space = build_space("typeI:2,2")
    psi = list(space.pairing_psi)
    minor = psi[-1]
    e = min(minor.terms)
    psi[-1] = Polynomial(minor.ring,
                         {**minor.terms, e: minor.terms[e] + GaussRational(1)})
    bad = dataclasses.replace(space, pairing_psi=tuple(psi))
    monkeypatch.setitem(acceptance._FAMILIES, "typeI:2,2", SegreFamily(bad))
    result = acceptance.check_embedding_identity(seed=SEED, points=10)
    assert not result.passed
    assert result.failure_kind == "logic" and "typeI:2,2" in result.detail
