"""Broader parameter sweeps: the exponent fits land on the genus of the
per-kind table, and witnesses resolve across sizes beyond the desk matrix."""

import pytest

from hermsym.floats import einstein_fit
from hermsym.rigidity import default_order_bound, find_nondegeneracy_witness
from hermsym.segre import SegreFamily
from hermsym.spaces import build_space, parse_space_spec

LADDER = ["typeI:1,3", "typeI:2,3", "typeI:3,3", "typeII:5", "typeII:6",
          "typeIII:3", "typeIII:4", "typeIV:4", "typeIV:5"]


@pytest.mark.parametrize("spec,lam", [(s, parse_space_spec(s).genus) for s in LADDER])
def test_einstein_exponent_sweep(spec, lam):
    fam = SegreFamily(build_space(spec))
    got, c, residual = einstein_fit(fam, 25, seed=5)
    assert got == lam
    assert residual < 1e-8


@pytest.mark.parametrize("spec", ["typeI:3,3", "typeII:6", "typeIII:4"])
def test_witness_sweep(spec):
    fam = SegreFamily(build_space(spec))
    sp = fam.space
    w = find_nondegeneracy_witness(fam, seed=3)
    assert w.found and not w.lambda_value.is_zero()
    assert w.max_order_used <= default_order_bound(sp)


def test_large_symplectic_dimension_and_exponent():
    """The n=5 symplectic system selects 131 independent components (the
    dimension of the minimal ambient projective space) and fits its genus 6."""
    s = build_space("typeIII:5")
    assert (s.n, s.N) == (15, 131)
    fam = SegreFamily(s)
    lam, _, res = einstein_fit(fam, 12, seed=5)
    assert lam == s.desc.genus == 6 and res < 1e-8


def test_large_orthogonal_dimension_and_exponent():
    """The n=8 Pfaffian system has 127 components (half-spin dimension 128
    minus the constant slot) and fits its genus 14."""
    s = build_space("typeII:8")
    assert (s.n, s.N) == (28, 127)
    fam = SegreFamily(s)
    lam, _, res = einstein_fit(fam, 12, seed=5)
    assert lam == s.desc.genus == 14 and res < 1e-8
