"""Command-line front end.

Subcommands build spaces, emit the family polynomial and embedding, run the
identity/Einstein/hypothesis suites, and check user-supplied map tuples.
Reports are deterministic JSON from one writer, ``dump_json``: compact,
dict keys sorted by their string form, strings ASCII-escaped as
``json.dumps`` does, floats at 17 significant digits (``.17g``) with NaN
and the infinities as ``NaN``/``Infinity``/``-Infinity``.  Identical
(command, config, seed) produce byte-identical output.

Exit codes: 0 pass/success, 1 check failure, 2 usage or input error (a
``UsageError``, raised where the input is read), 3 internal error (an exact
invariant of the program broke, or any other exception).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, Optional

from . import acceptance
from .floats import (ISOMETRY_SAMPLES, VOLUME_SAMPLES, isometry_pullback_check,
                     kahler_metric, random_complex_ball, volume_equation_check)
from .gauss import GaussRational
from .maps import parse_map_file
from .modp import PRIME_BOUND
from .rigidity import support_claims
from .sampling import rng_from_seed
from .segre import SegreFamily, build_rho
from .spaces import SPACE_GRAMMAR, build_space, parse_space_spec


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ONLY_INT = frozenset((int,))
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
    when not finite), and ``TypeError`` for anything that is not None,
    bool, int, float, str, dict, list or tuple, or a subclass of one (an
    ``np.float64`` is a float).  Text it has already written, wrapped in
    ``Written``, is written again verbatim, so a report can be assembled
    from pieces each rendered once.  Every piece goes into one list, joined
    once, so no subtree's text is copied on its way up."""
    out = []
    _write(obj, out)
    return "".join(out)


class Written:
    """JSON text that ``dump_json`` has already written."""
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _write(obj, out: list) -> None:
    """Append the pieces of ``obj``'s text to ``out``."""
    # exact types first, so bool never passes for int; the report types and
    # their subclasses after them
    t = type(obj)
    if t is str:
        out.append(_json_str(obj))
    elif t is Written:
        out.append(obj.text)
    elif obj is None:
        out.append("null")
    elif t is bool:
        out.append("true" if obj else "false")
    elif (t is list or t is tuple) and set(map(type, obj)) <= _ONLY_INT:
        try:
            out.append("[" + ",".join(map(_SMALL_INTS.__getitem__, obj)) + "]")
        except KeyError:            # a negative or a large int
            out.append("[" + ",".join(map(int.__repr__, obj)) + "]")
    elif isinstance(obj, float):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    elif isinstance(obj, dict):
        # the opening bracket rides on the first key, a comma on the others
        sep = "{"
        for k in sorted(obj, key=str):
            out.append(sep + _json_str(str(k)) + ":")
            _write(obj[k], out)
            sep = ","
        out.append("}" if sep == "," else "{}")
    elif isinstance(obj, (list, tuple)):
        sep = "["
        for x in obj:
            out.append(sep)
            _write(x, out)
            sep = ","
        out.append("]" if sep == "," else "[]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def gauss_json(x: GaussRational) -> dict:
    """The report form {"re": str(x.re), "im": str(x.im)}."""
    a, b, d = x.parts()
    return {"re": str(a), "im": str(b)} if d == 1 else {"re": str(x.re), "im": str(x.im)}


def point_json(point: Dict[str, GaussRational]) -> dict:
    return {k: gauss_json(v) for k, v in point.items()}


def terms_json(groups) -> Written:
    """The term array [{"exp": head + tail, "im": .., "re": ..}, ...] of
    ``groups``, pairs (head, {tail: coefficient}) of exponent tuples, each
    group in sorted tail order, as one ``Written`` joined from pieces written
    once: the head per group, each distinct tail and coefficient per call (in
    two tables: the exponent (1, 0, 1) is the triple of the coefficient 1)."""
    # one join of the pieces, brackets and commas included, so the array's
    # text is never copied while its pieces are held
    tail_text, coeff_text, terms, sep = {}, {}, ["["], ""
    for head, group in groups:
        start = '{"exp":' + dump_json(head)[:-1] + ("," if head else "")
        for tail, c in sorted(group.items()):
            if tail not in tail_text:
                tail_text[tail] = dump_json(tail)[1:] + ","
            parts = c.parts()
            if parts not in coeff_text:
                coeff_text[parts] = dump_json(gauss_json(c))[1:]
            terms.append(sep + start + tail_text[tail] + coeff_text[parts])
            sep = ","
    terms.append("]")
    return Written("".join(terms))


def print_table(report: dict, indent: int = 0):
    pad = "  " * indent
    for k in sorted(report, key=str):
        v = report[k]
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
    if getattr(args, "seed", None) is not None:
        return args.seed
    if required:
        raise UsageError("this command is randomized: pass --seed")
    return None


def _config(args, seed) -> dict:
    # commands without a tolerance flag report its default: same report bytes
    tol = acceptance.Tolerances
    return {
        "command": args.command,
        "space": getattr(args, "space", None),
        "seed": seed,
        "float_tol": getattr(args, "float_tol", tol.float_tol),
        "einstein_tol": getattr(args, "einstein_tol", tol.einstein_tol),
    }


def _load_map_file(space, path):
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    try:
        return parse_map_file(space, payload)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _map_check(path, check, *args):
    """``check(*args)`` on the maps of ``path``; a map that the floats cannot
    evaluate (poles at every draw, values beyond the float range) is an
    input error."""
    try:
        return check(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"the maps in {path} cannot be evaluated in "
                         f"floats: {exc}") from exc


def _space(args):
    """The space of ``--space``; a spec off the grammar or the kind table is
    a usage error."""
    try:
        desc = parse_space_spec(args.space)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return build_space(desc)


def _family_and_seed(args):
    """The family of ``--space`` and the seed of a randomized command."""
    fam = SegreFamily(_space(args))
    return fam, _resolve_seed(args, required=True)


def _verdict(args, seed, ok: bool, report: dict):
    """(exit code, report) of a check: 0 when it passed, 1 when it failed."""
    report.update(passed=ok, config=_config(args, seed))
    return (0 if ok else 1), report


# ---------------------------------------------------------------------------
# subcommand handlers: return (exit_code, report)
# ---------------------------------------------------------------------------

def cmd_describe(args):
    space = _space(args)
    seed = _resolve_seed(args, required=False)
    names = list(space.vars)
    # every component's terms first, then their dicts: a dict made between
    # two term writers lands amid the writer's freed temporaries and keeps
    # that memory from being returned once the space is freed (describe
    # typeIII:8 peaked at 471 MB that way, 406 MB this way)
    terms = [terms_json([((), p.terms)]) for p in space.psi]
    return 0, {
        "kind": space.desc.kind, "params": list(space.desc.params),
        "n": space.n, "N": space.N, "distinguished": space.distinguished,
        "psi": [{"vars": names, "terms": t} for t in terms],
        "psi_numeric_tail": space.numeric_tail,
        "degenerate_note": space.degenerate_note,
        "lambda": space.desc.genus, "config": _config(args, seed)}


def cmd_rho(args):
    space = _space(args)
    fam = build_rho(space)
    # the expanded polynomial's terms, read straight off the z-groups: the
    # z-part of each exponent is the head, the xi-part the tail
    return 0, {"space": args.space, "vars": list(fam.ring.vars),
               "rho": {"vars": list(fam.ring.vars),
                       "terms": terms_json(sorted(fam.z_groups.items()))},
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
            "hermitian_deviation": ms.hermitian_deviation,
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
    if fam.space.n < 2:
        raise UsageError(f"{fam.space.desc.label()}: a rank-2 pencil needs a "
                         "cell of dimension >= 2")
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
            oracle["factor"] = [[list(k), v] for k, v in sorted(res.factor.terms.items())]
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
    residual = _map_check(args.maps, volume_equation_check, fam, mf.maps,
                          lambdas, args.samples, seed)
    return _verdict(args, seed, residual < args.float_tol, {
        "space": args.space, "maps": len(mf.maps), "lambdas": lambdas,
        "lambdas_exact": [str(x) for x in mf.lambdas_exact] if mf.lambdas_exact else None,
        "residual": residual})


def cmd_isometry_check(args):
    fam, seed = _family_and_seed(args)
    mf = _load_map_file(fam.space, args.maps)
    residuals = [_map_check(args.maps, isometry_pullback_check, fam, F,
                            args.samples, seed) for F in mf.maps]
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

def _integer(text: str, expected: str) -> int:
    """``text`` as an int, else refused with the ``expected`` kind of value."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}") from None


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        value = _integer(text, f"an integer >= {low}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0.  A NaN or negative tolerance
    would fail every check, an infinite one pass every check."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan                  # refused below, with one message
    if math.isfinite(value) and value >= 0:
        return value
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")


def _prime(text: str) -> int:
    """argparse type: a prime; the oracle's modular arithmetic needs a field."""
    p = _integer(text, "a prime")
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

    def add(name, fn, space=True, seed=True, tols=(), help=None):
        p = sub.add_parser(name, help=help)
        if space:
            p.add_argument("--space", required=True, help=SPACE_GRAMMAR)
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", choices=("json", "table"), default="json")
        for dest in tols:                 # only the commands that read them
            p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                           type=_tolerance,
                           default=getattr(acceptance.Tolerances, dest))
        p.set_defaults(handler=fn)
        return p

    add("describe", cmd_describe,
        help="cell/ambient dimensions, embedding polynomials, exponent")
    add("rho", cmd_rho, seed=False,
        help="emit the Segre family polynomial as exact JSON")
    p = add("metric", cmd_metric, help="sample the pullback metric and volume density")
    p.add_argument("--points", type=_at_least(1), default=5)
    p = add("einstein", cmd_einstein, tols=("einstein_tol",),
            help="fit the integer exponent of the volume density")
    p.add_argument("--samples", type=_at_least(2), default=acceptance.EINSTEIN_SAMPLES)
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
    p = add("volume-check", cmd_volume_check, tols=("float_tol",),
            help="residual of the volume-preserving equation for a map tuple")
    p.add_argument("--maps", required=True)
    p.add_argument("--samples", type=_at_least(1), default=VOLUME_SAMPLES)
    p = add("isometry-check", cmd_isometry_check, tols=("float_tol",),
            help="metric pullback deviation for a map tuple")
    p.add_argument("--maps", required=True)
    p.add_argument("--samples", type=_at_least(1), default=ISOMETRY_SAMPLES)
    add("selftest", cmd_selftest, space=False,
        tols=("float_tol", "einstein_tol"), help="run the full acceptance matrix")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, report = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a check failure is a report, never an exception
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.output == "table":
        # the report as its JSON reads back, pre-written pieces included
        print_table(json.loads(dump_json(report)))
    else:
        print(dump_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
