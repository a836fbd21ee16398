"""Command-line front end.

Subcommands build spaces, emit the family polynomial and embedding, run the
identity/Einstein/hypothesis suites, and check user-supplied map tuples.
Reports are deterministic JSON from one writer, ``dump_json``: compact,
dict keys sorted by their string form, strings ASCII-escaped as
``json.dumps`` does, floats at 17 significant digits (``.17g``) with NaN
and the infinities as ``NaN``/``Infinity``/``-Infinity``, and numpy scalars
unwrapped.  Identical (command, config, seed) produce byte-identical output.

Exit codes: 0 pass/success, 1 check failure, 2 usage or input error,
3 internal error (an exact invariant of the program broke).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, Optional

import numpy as np

from . import acceptance
from .gauss import GaussRational, gauss_json
from .maps import parse_map_file
from .poly import PRIME_BOUND
from .rigidity import (ISOMETRY_SAMPLES, VOLUME_SAMPLES, isometry_pullback_check,
                       support_claims, volume_equation_check)
from .sampling import random_complex_ball, rng_from_seed
from .segre import SegreFamily, build_rho, kahler_metric
from .spaces import SPACE_GRAMMAR, build_space, space_to_json


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ONLY_STR, _ONLY_INT = frozenset((str,)), frozenset((int,))
# the decimal strings of the small ints that exponent lists are made of
_SMALL_INTS = {k: str(k) for k in range(256)}


def _fmt_float(x: float) -> str:
    """``x`` at 17 significant digits; NaN and the infinities as the tokens
    ``json.dumps`` writes and ``json.loads`` reads back."""
    text = format(x, ".17g")
    return _NONFINITE.get(text, text)


def dump_json(obj) -> str:
    """The one report writer: compact JSON with dict keys sorted by their
    string form (``str(k)``), strings ASCII-escaped as ``json.dumps`` does,
    floats at 17 significant digits (``NaN``, ``Infinity``, ``-Infinity``
    when not finite), numpy scalars unwrapped to their Python value, and
    ``TypeError`` for anything that is not None, bool, int, float, str,
    dict, list or tuple.  Text it has already written, wrapped in
    ``Written``, is written again verbatim, so a report can be assembled
    from pieces each rendered once."""
    return _write(obj)


class Written:
    """JSON text that ``dump_json`` has already written."""
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _write(obj) -> str:
    # exact types first, so bool never passes for int; their subclasses and
    # numpy scalars go through _write_other
    t = type(obj)
    if t is str:
        return _json_str(obj)
    if t is dict:
        if set(map(type, obj)) <= _ONLY_STR:
            return "{" + ",".join([_json_str(k) + ":" + _write(obj[k])
                                   for k in sorted(obj)]) + "}"
        return _write_dict(obj)
    if t is list or t is tuple:
        if set(map(type, obj)) <= _ONLY_INT:
            try:
                return "[" + ",".join(map(_SMALL_INTS.__getitem__, obj)) + "]"
            except KeyError:        # a negative or a large int
                return "[" + ",".join(map(int.__repr__, obj)) + "]"
        return "[" + ",".join(map(_write, obj)) + "]"
    if t is int:
        return int.__repr__(obj)
    if t is float:
        return _fmt_float(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is Written:
        return obj.text
    return _write_other(obj)


def _write_dict(obj) -> str:
    """A dict whose keys are not all exact strings (stable sort by str(k))."""
    items = sorted(obj.items(), key=lambda kv: str(kv[0]))
    return "{" + ",".join([_json_str(str(k)) + ":" + _write(v)
                           for k, v in items]) + "}"


def _write_other(obj) -> str:
    """Numpy scalars, unwrapped, and subclasses of the report types."""
    if isinstance(obj, np.generic):
        return _write(obj.item())          # a Python value, never a numpy one
    if isinstance(obj, float):
        return _fmt_float(float(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, dict):
        return _write_dict(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_write, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def point_json(point: Dict[str, GaussRational]) -> dict:
    return {k: gauss_json(v) for k, v in point.items()}


def print_table(report: dict, indent: int = 0):
    pad = "  " * indent
    for k in sorted(report, key=str):
        v = report[k]
        # pre-written text is read back, so it prints as the value it holds
        if type(v) is Written:
            v = json.loads(v.text)
        elif isinstance(v, (list, tuple)):
            v = [json.loads(x.text) if type(x) is Written else x for x in v]
        if isinstance(v, dict):
            print(f"{pad}{k}:")
            print_table(v, indent + 1)
        elif isinstance(v, (list, tuple)) and v and all(isinstance(x, dict) for x in v):
            print(f"{pad}{k}:")
            for x in v:
                print_table(x, indent + 1)
                print(f"{pad}  -")
        elif isinstance(v, (list, tuple)):
            print(f"{pad}{k}: {dump_json(v)}")
        elif isinstance(v, float):
            print(f"{pad}{k}: {_fmt_float(float(v))}")
        else:
            print(f"{pad}{k}: {v}")


class UsageError(Exception):
    pass


def _resolve_seed(args, required: bool) -> Optional[int]:
    env = os.environ.get("HSS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"HSS_SEED is not an integer: {env!r}") from exc
    if getattr(args, "seed", None) is not None:
        return args.seed
    if required:
        raise UsageError("this command is randomized: pass --seed or set HSS_SEED")
    return None


def _config(args, seed) -> dict:
    return {
        "command": args.command,
        "space": getattr(args, "space", None),
        "seed": seed,
        "float_tol": getattr(args, "float_tol", None),
        "einstein_tol": getattr(args, "einstein_tol", None),
    }


def _load_map_file(space, path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}") from exc
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    try:
        return parse_map_file(space, payload)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _family_and_seed(args):
    """The family of ``--space`` and the seed of a randomized command."""
    fam = SegreFamily(build_space(args.space))
    return fam, _resolve_seed(args, required=True)


def _verdict(args, seed, ok: bool, report: dict):
    """(exit code, report) of a check: 0 when it passed, 1 when it failed."""
    report.update(passed=ok, config=_config(args, seed))
    return (0 if ok else 1), report


# ---------------------------------------------------------------------------
# subcommand handlers: return (exit_code, report)
# ---------------------------------------------------------------------------

def cmd_describe(args):
    space = build_space(args.space)
    seed = _resolve_seed(args, required=False)
    report = space_to_json(space)
    report["lambda"] = space.desc.genus
    report["config"] = _config(args, seed)
    return 0, report


def cmd_rho(args):
    space = build_space(args.space)
    fam = build_rho(space)
    # the expanded polynomial's terms {"exp": ze + xe, "im": .., "re": ..},
    # read straight off the z-groups (so this loop order is sorted order) and
    # each joined from pieces dump_json writes once: the head with the
    # z-part of the exponent per z-group, the xi-part per xi-exponent and
    # the coefficient per distinct value
    xi_text, coeff_text, terms = {}, {}, []
    for ze, group in sorted(fam.z_groups.items()):
        head = '{"exp":' + dump_json(ze)[:-1] + ","
        for xe, c in sorted(group.items()):
            if xe not in xi_text:
                xi_text[xe] = dump_json(xe)[1:] + ","
            parts = c.parts()
            if parts not in coeff_text:
                coeff_text[parts] = dump_json(gauss_json(c))[1:]
            terms.append(Written(head + xi_text[xe] + coeff_text[parts]))
    return 0, {"space": args.space, "vars": list(fam.ring.vars),
               "rho": {"vars": list(fam.ring.vars), "terms": terms},
               "config": _config(args, None)}


def cmd_metric(args):
    fam, seed = _family_and_seed(args)
    rng = rng_from_seed(seed)
    samples = []
    for _ in range(args.points):
        pt = random_complex_ball(rng, fam.space.n, 0.3)
        ms = kahler_metric(fam, pt)
        samples.append({
            "point": [{"re": z.real, "im": z.imag} for z in pt],
            "volume_density": ms.volume_density,
            "hermitian_deviation": float(np.max(np.abs(ms.g - ms.g.conj().T))),
        })
    return 0, {"space": args.space, "samples": samples,
               "config": _config(args, seed)}


def cmd_einstein(args):
    fam, seed = _family_and_seed(args)
    e = acceptance.einstein_check(fam, seed, args.samples)
    return _verdict(args, seed, e.passed(args.einstein_tol), {
        "space": args.space, "lambda": e.lam, "c": e.c,
        "einstein_residual": e.residual, "identity_checks": e.identity_checks})


def cmd_hyp1(args):
    fam, seed = _family_and_seed(args)
    h = acceptance.hypothesis_one(fam, seed, args.max_order, args.budget)
    w = h.witness
    witness = None if not w.found else {
        "z0": point_json(w.z0), "xi0": point_json(w.xi0),
        "betas": [list(b) for b in w.betas],
        "lambda_value": gauss_json(w.lambda_value),
        "frame": w.frame_kind, "max_order_used": w.max_order_used,
    }
    return _verdict(args, seed, h.passed, {
        "hypothesis": "I", "space": args.space, "seed": seed,
        "rank0": h.rank0, "rank1": h.rank1, "cell_dimension": h.cell_dimension,
        "witness": witness,
        "candidates_examined": w.candidates_examined,
        "budget_exhausted": w.budget_exhausted,
        "evidence": "exact",
    })


def cmd_hyp2(args):
    fam, seed = _family_and_seed(args)
    h = acceptance.hypothesis_two(fam, seed)
    xi0, z0, z1 = h.pencil
    return _verdict(args, seed, h.passed, {
        "hypothesis": "II", "space": args.space, "seed": seed,
        "witness": {
            "xi0": point_json(xi0), "z0": point_json(z0), "z1": point_json(z1),
            "transversality_rank": h.rank,
            "flattening_jacobian": (None if h.jacobian is None
                                    else gauss_json(h.jacobian)),
            "slots": list(h.slots) if h.slots else None,
        },
        "evidence": "exact",
    })


def cmd_hyp3(args):
    fam, seed = _family_and_seed(args)
    facts = support_claims(fam)
    oracle = None
    evidence = "support-only"
    if fam.space.kind.oracle:
        xi, res = acceptance.oracle_check(fam, seed, args.prime, args.oracle_budget)
        # a modular factor is only a refutation lead, kept in the report
        oracle = {"status": res.status, "detail": res.detail,
                  "xi": point_json(xi), "prime": args.prime}
        if res.status == "factor_found":
            oracle["factor"] = res.factor["terms"]
        if res.status == "irreducible_certified":
            evidence = "exact"
    regular = acceptance.regular_locus_nonempty(fam, seed)
    return _verdict(args, seed, all(facts.values()) and regular, {
        "hypothesis": "III", "space": args.space, "seed": seed,
        "witness": {"support_facts": facts, "oracle": oracle,
                    "regular_locus_nonempty": regular},
        "note": "irreducibility of the family polynomial and nonemptiness "
                "of its regular locus are the computable shadow of the "
                "connectivity statement",
        "evidence": evidence,
    })


def cmd_volume_check(args):
    fam, seed = _family_and_seed(args)
    mf = _load_map_file(fam.space, args.maps)
    lambdas = mf.lambdas if mf.lambdas is not None else \
        [1.0 / len(mf.maps)] * len(mf.maps)
    residual = volume_equation_check(fam, mf.maps, lambdas,
                                     sample_count=args.samples, seed=seed)
    return _verdict(args, seed, residual < args.float_tol, {
        "space": args.space, "maps": len(mf.maps), "lambdas": lambdas,
        "lambdas_exact": [str(x) for x in mf.lambdas_exact] if mf.lambdas_exact else None,
        "residual": residual})


def cmd_isometry_check(args):
    fam, seed = _family_and_seed(args)
    mf = _load_map_file(fam.space, args.maps)
    residuals = [isometry_pullback_check(fam, F, args.samples, seed)
                 for F in mf.maps]
    return _verdict(args, seed, max(residuals) < args.float_tol,
                    {"space": args.space, "residuals": residuals})


def cmd_selftest(args):
    seed = _resolve_seed(args, required=False)
    seed = acceptance.DEFAULT_SEED if seed is None else seed
    tol = acceptance.Tolerances(float_tol=args.float_tol,
                                einstein_tol=args.einstein_tol)
    results = acceptance.run_all(seed=seed, tol=tol)
    items = [{"criterion": r.name, "passed": r.passed,
              "failure_kind": r.failure_kind, "detail": r.detail} for r in results]
    return _verdict(args, seed, all(r.passed for r in results), {"selftest": items})


# ---------------------------------------------------------------------------

def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _prime(text: str) -> int:
    """argparse type: a prime; the oracle's modular arithmetic needs a field."""
    p = int(text)
    if p >= PRIME_BOUND:
        raise argparse.ArgumentTypeError(
            f"must be below 2**31, got {p}: the candidate space of the oracle "
            "would hold at least 2**62 factors")
    if p < 2 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
        raise argparse.ArgumentTypeError(f"must be a prime, got {p}")
    return p


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse parsers
    keep no state between ``parse_args`` calls."""
    ap = argparse.ArgumentParser(
        prog="hermsym",
        description="verification toolkit for compact Hermitian symmetric "
                    "spaces: canonical embeddings, Segre families, and the "
                    "rigidity hypothesis suites")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, space=True, seed=True, help=None):
        p = sub.add_parser(name, help=help)
        if space:
            p.add_argument("--space", required=True, help=SPACE_GRAMMAR)
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", choices=("json", "table"), default="json")
        p.add_argument("--float-tol", dest="float_tol", type=float, default=1e-9)
        p.add_argument("--einstein-tol", dest="einstein_tol", type=float, default=1e-8)
        p.set_defaults(handler=fn)
        return p

    add("describe", cmd_describe,
        help="cell/ambient dimensions, embedding polynomials, exponent")
    add("rho", cmd_rho, seed=False,
        help="emit the Segre family polynomial as exact JSON")
    p = add("metric", cmd_metric, help="sample the pullback metric and volume density")
    p.add_argument("--points", type=_at_least(1), default=5)
    p = add("einstein", cmd_einstein,
            help="fit the integer exponent of the volume density")
    p.add_argument("--samples", type=_at_least(2), default=50)
    p = add("hyp1", cmd_hyp1,
            help="jet ranks and the nondegeneracy witness search")
    p.add_argument("--max-order", dest="max_order", type=_at_least(0), default=None)
    p.add_argument("--budget", type=_at_least(1), default=acceptance.WITNESS_BUDGET)
    add("hyp2", cmd_hyp2,
        help="transversality rank and the flattening Jacobian seed")
    p = add("hyp3", cmd_hyp3,
            help="monomial-support facts and the irreducibility oracle")
    p.add_argument("--prime", type=_prime, default=acceptance.ORACLE_PRIME)
    p.add_argument("--oracle-budget", dest="oracle_budget", type=_at_least(1),
                   default=acceptance.ORACLE_BUDGET)
    p = add("volume-check", cmd_volume_check,
            help="residual of the volume-preserving equation for a map tuple")
    p.add_argument("--maps", required=True)
    p.add_argument("--samples", type=_at_least(1), default=VOLUME_SAMPLES)
    p = add("isometry-check", cmd_isometry_check,
            help="metric pullback deviation for a map tuple")
    p.add_argument("--maps", required=True)
    p.add_argument("--samples", type=_at_least(1), default=ISOMETRY_SAMPLES)
    add("selftest", cmd_selftest, space=False,
        help="run the full acceptance matrix")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, report = args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a check failure is a report, never an exception
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.output == "table":
        print_table(report)
    else:
        print(dump_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
