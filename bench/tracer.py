"""Per-layer tracing of hermsym, installed from outside the program.

Each layer is a module of ``src/hermsym``.  The tracer replaces selected
public functions and methods of those modules with timing wrappers and
aggregates, per stat:

* ``calls``  -- completed calls,
* ``busy_s`` -- wall time inside the stat, counting nested or recursive
  entries of the same stat once,
* ``self_s`` -- wall time inside the stat minus the time of the wrapped
  calls it made (its child spans),

plus content counts read from arguments and results.  Spans are aggregated
in memory, never recorded one by one: the scalar layer alone makes millions
of calls per workload.

A wrapped function is rebound everywhere the program holds it: in every
``hermsym`` module namespace that imported it by name, inside module-level
lists and dicts, and under every alias in its class.  Patching only the
defining module would miss calls made through those bindings.  A target
that no longer exists is reported as absent; its metrics read 0 and the run
goes on.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "busy", "self_time", "depth", "counts")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.counts: Dict[str, int] = {}

    def add(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n


# -- content-count hooks: (stat, args, result) -> None -----------------------

def _terms_out(st, args, result):
    st.add("terms_out", len(result.terms))


def _terms_in(st, args, result):
    st.add("terms_in", len(args[0].terms))


def _rho_terms(st, args, result):
    st.add("rho_terms", len(result.rho.terms))


def _matrix_order(st, args, result):
    st.counts["max_order"] = max(st.counts.get("max_order", 0), len(args[0]))


def _row_accepted(st, args, result):
    st.add("accepted", 1 if result else 0)


def _witness_counts(st, args, result):
    st.add("candidates", result.candidates_examined)
    st.add("chosen", len(result.betas or ()))


def _trial_division_tried(st, args, result):
    st.add("candidates", result[1])


# stat name, targets as "module:qualname", reported metrics, leaf, hook.  The
# layer is the first part of the stat name.  A leaf target calls no other
# wrapped function, so its wrapper skips the child-span bookkeeping; only the
# scalar layer, whose calls dominate, uses it.  A metric other than calls,
# busy_s, self_s and the two ratios is a content count filled by the hook.
CRITERIA = ("embedding_identity", "pfaffian_suite", "octonion_suite",
            "einstein_fits", "hypothesis_one", "hypothesis_two",
            "hypothesis_three", "volume_isometry", "degeneracy_extraction")

TARGETS: List[Tuple[str, Tuple[str, ...], Tuple[str, ...], bool,
                    Optional[Callable]]] = [
    ("gauss.mul", ("gauss:GaussRational.__mul__",), ("calls", "busy_s"),
     True, None),
    ("gauss.add", ("gauss:GaussRational.__add__", "gauss:GaussRational.__sub__"),
     ("calls", "busy_s"), True, None),
    ("gauss.div", ("gauss:GaussRational.__truediv__",), ("calls", "busy_s"),
     True, None),
    ("poly.mul", ("poly:Polynomial.__mul__",), ("calls", "self_s", "terms_out"),
     False, _terms_out),
    ("poly.evaluate", ("poly:Polynomial.evaluate",),
     ("calls", "self_s", "terms_in"), False, _terms_in),
    ("poly.partial_evaluate", ("poly:Polynomial.partial_evaluate",),
     ("calls", "self_s", "terms_in"), False, _terms_in),
    ("poly.derivative", ("poly:Polynomial.derivative",), ("calls", "self_s"),
     False, None),
    ("poly.compose_fractions", ("poly:Polynomial.compose_fractions",),
     ("calls", "self_s"), False, None),
    ("poly.modp_mul", ("poly:PolyModP.__mul__",), ("calls", "self_s"),
     False, None),
    ("linalg.det_exact", ("linalg:det_exact",),
     ("calls", "busy_s", "max_order"), False, _matrix_order),
    ("linalg.add_row", ("linalg:RankTracker.add_row",),
     ("calls", "busy_s", "accept_ratio"), False, _row_accepted),
    ("linalg.det_gauss_elimination", ("linalg:det_gauss_elimination",),
     ("calls", "busy_s"), False, None),
    ("spaces.build_space", ("spaces:build_space",), ("calls", "self_s"),
     False, None),
    ("octonion", tuple("octonion:" + name for name in (
        "Octonion.__mul__", "Octonion.norm", "cayley_matrix", "jordan_product",
        "jordan_trace", "jordan_det", "mat_eq", "symbolic_octonion",
        "cayley_plane_forms", "freudenthal_forms", "freudenthal_jordan_matrix")),
     ("busy_s",), False, None),
    ("segre.build_rho", ("segre:build_rho",), ("calls", "self_s", "rho_terms"),
     False, _rho_terms),
    ("segre.rho_at", ("segre:SegreFamily.rho_at",), ("calls", "self_s"),
     False, None),
    ("segre.batch_eval", ("segre:BatchEvaluator.__call__",), ("calls", "busy_s"),
     False, None),
    ("segre.einstein_fit", ("segre:einstein_fit",), ("calls", "self_s"),
     False, None),
    ("segre.sample_on_family", ("segre:sample_on_family",), ("calls",),
     False, None),
    ("rigidity.witness", ("rigidity:find_nondegeneracy_witness",),
     ("calls", "self_s", "candidates", "yield"), False, _witness_counts),
    ("rigidity.jet_rank", ("rigidity:jet_rank",), ("calls", "self_s"),
     False, None),
    ("rigidity.jet_rows", ("rigidity:JetTable.rows",), ("calls", "self_s"),
     False, None),
    ("rigidity.transversality", ("rigidity:transversality_recipe",
                                 "rigidity:transversality_rank",
                                 "rigidity:flattening_jacobian"),
     ("self_s",), False, None),
    ("rigidity.support_claims", ("rigidity:support_claims",), ("self_s",),
     False, None),
    # the candidate count comes from the inner trial division (_TARGET_HOOKS)
    ("rigidity.oracle", ("rigidity:irreducibility_oracle",
                         "rigidity:irreducibility_oracle_poly",
                         "rigidity:trial_division_modp"),
     ("self_s", "candidates"), False, None),
    ("maps.compose_psi", ("maps:compose_psi",), ("calls", "self_s"),
     False, None),
] + [(f"acceptance.{c}", (f"acceptance:check_{c}",), ("busy_s",), False, None)
     for c in CRITERIA] + [
    ("cli.dump_json", ("cli:dump_json",), ("busy_s",), False, None),
]

_TARGET_HOOKS = {"rigidity:trial_division_modp": _trial_division_tried}

# layers whose total self time is reported as <layer>.self_s
LAYER_SELF = ("poly", "linalg")

_RATIOS = {"accept_ratio": ("accepted", None), "yield": ("chosen", "candidates")}


def _unit(kind: str) -> str:
    if kind.endswith("_s"):
        return "s"
    return "ratio" if kind in _RATIOS else "count"


def _value(st: Stat, kind: str) -> float:
    if kind == "calls":
        return st.calls
    if kind == "busy_s":
        return st.busy
    if kind == "self_s":
        return st.self_time
    if kind in _RATIOS:
        num, den = _RATIOS[kind]
        d = st.calls if den is None else st.counts.get(den, 0)
        return st.counts.get(num, 0) / d if d else 0.0
    return st.counts.get(kind, 0)


def per_layer_names() -> List[Tuple[str, str]]:
    """(metric name, unit) of every per-layer metric the tracer reports."""
    names = [(f"{stat}.{kind}", _unit(kind))
             for stat, _, kinds, _, _ in TARGETS for kind in kinds]
    return names + [(f"{layer}.self_s", "s") for layer in LAYER_SELF]


def _resolve(target: str):
    """(owner, function) or None when the target is gone."""
    modname, qualname = target.split(":")
    try:
        owner = importlib.import_module(f"hermsym.{modname}")
    except ImportError:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None) if isinstance(owner, type) else \
        owner.__dict__.get(parts[-1])
    if fn is None or not callable(fn):
        return None
    return owner, fn


def _rebind_everywhere(owner, fn, wrapper) -> int:
    """Replace every binding of ``fn`` the program holds; returns the count."""
    bound = 0
    if isinstance(owner, type):
        for name, value in list(vars(owner).items()):
            if value is fn:
                setattr(owner, name, wrapper)
                bound += 1
        return bound
    for modname, module in list(sys.modules.items()):
        if not (modname == "hermsym" or modname.startswith("hermsym.")):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                setattr(module, name, wrapper)
                bound += 1
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if item is fn:
                        value[i] = wrapper
                        bound += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is fn:
                        value[key] = wrapper
                        bound += 1
    return bound


class Tracer:
    """Aggregated spans over a target table (``TARGETS`` by default) for one
    process.  Stats of ``TARGETS`` missing from the table count as absent."""

    def __init__(self, targets=None):
        self.targets = TARGETS if targets is None else targets
        self.stats: Dict[str, Stat] = {stat: Stat() for stat, *_ in TARGETS}
        self.absent = set(self.stats)
        # time covered by wrapped calls made from the innermost open span
        self._child = [0.0]

    def install(self):
        """Wrap each target wherever the program binds it; call once per
        process, after the program is imported."""
        for stat, targets, _, leaf, hook in self.targets:
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, fn = resolved
                make = self._leaf if leaf else self._span
                wrapper = make(fn, self.stats[stat],
                               _TARGET_HOOKS.get(target, hook))
                if _rebind_everywhere(owner, fn, wrapper):
                    self.absent.discard(stat)
        return self

    def _leaf(self, fn, st, hook):
        # leaf targets have no content counts; ``hook`` is always None
        child = self._child

        def wrapper(*args):
            t0 = _clock()
            result = fn(*args)
            dt = _clock() - t0
            st.calls += 1
            st.busy += dt
            st.self_time += dt
            child[0] += dt
            return result
        return wrapper

    def _span(self, fn, st, hook):
        child = self._child

        def wrapper(*args, **kwargs):
            saved = child[0]
            child[0] = 0.0
            st.depth += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                st.depth -= 1
                st.calls += 1
                st.self_time += dt - child[0]
                if st.depth == 0:
                    st.busy += dt
                child[0] = saved + dt
            if hook is not None:
                hook(st, args, result)
            return result
        return wrapper

    def metrics(self) -> Dict[str, dict]:
        """Every per-layer metric; one of an absent stat reads 0."""
        out = {f"{stat}.{kind}": {"value": _value(self.stats[stat], kind),
                                  "unit": _unit(kind)}
               for stat, _, kinds, _, _ in TARGETS for kind in kinds}
        for layer in LAYER_SELF:
            out[f"{layer}.self_s"] = {"value": sum(
                st.self_time for stat, st in self.stats.items()
                if stat.startswith(layer + ".")), "unit": "s"}
        return out

    def absent_metrics(self) -> List[str]:
        """Metrics whose every wrapped target no longer exists."""
        out = [f"{stat}.{kind}" for stat, _, kinds, _, _ in TARGETS
               if stat in self.absent for kind in kinds]
        out += [f"{layer}.self_s" for layer in LAYER_SELF
                if all(stat in self.absent for stat in self.stats
                       if stat.startswith(layer + "."))]
        return out
