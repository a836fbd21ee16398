"""The hermsym benchmark: closed-loop CLI workloads checked against golden
outputs.

    python3 bench/run.py --workload witness --seed 7 --seconds 10 --trace 0

Run from anywhere inside a checkout that holds ``src/hermsym``.  One client
sends a workload's jobs (``workloads.json``) one after another, with no
think time, to a single-threaded worker process that calls the public entry
point ``hermsym.cli.main(argv)``.  Every pass starts a fresh worker, so each
pass builds its spaces and families from scratch, as a CLI user pays, and no
id-keyed module cache outlives it.  Passes repeat until ``--seconds`` of pass
time have been measured (at least one pass).

``--seed`` is passed to every randomized job.  At the seed recorded in
``golden.json`` each job's exit code and the SHA-256 of its stdout must
equal the golden ones; at any other seed a job must exit 0 with a JSON report
whose ``passed`` field, if any, is true.  A job that breaks that rule, hits
its time limit or dies with the worker counts as failed.  The digests of
every job are written to ``bench/results/`` so that two commits can be
compared on any seed.

With ``--trace 0`` the run reports the end-to-end metrics (medians over the
passes and, for set-up, over extra set-up-only launches).  With ``--trace 1``
it runs one untraced and one traced pass, reports the per-layer metrics of
the traced pass (see ``tracer.py``) and the tracing overhead, and counts a
job whose traced output differs from its untraced output as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

JOB_LIMIT_S = 30.0       # about 4x the slowest job at the seed commit
RUN_LIMIT_S = 170.0      # every run must end within 180 s
SETUP_SAMPLES = 4        # set-up-only worker launches before and after the passes
WORKER_SLACK_S = 5.0     # time a worker gets past its pass limit before a kill


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("HSS_SEED", None)    # it would override --seed in the CLI
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(jobs, trace: bool, limit_s: float) -> dict:
    """Launch a worker, time its set-up, and collect its pass.

    Returns the worker's result with ``setup_s`` added; on a crash or a kill
    the result holds ``died`` and no job records."""
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(jobs),
           "1" if trace else "0", str(JOB_LIMIT_S), str(limit_s)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), bufsize=0,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(limit_s + WORKER_SLACK_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != b"ready":
        return {"died": err.decode(errors="replace")[-800:], "setup_s": setup_s}
    lines = out.decode().splitlines()
    if not jobs:
        return {"setup_s": setup_s}
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"died": f"exit {proc.returncode}: "
                        + err.decode(errors="replace")[-800:], "setup_s": setup_s}
    if not Path(result["hermsym"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"worker imported hermsym from {result['hermsym']}, "
                         f"not from {ROOT / 'src'}")
    result["setup_s"] = setup_s
    return result


def job_failure(record: dict, want) -> str | None:
    """Why a job failed, or None.  ``want`` is its golden entry, or None at a
    seed with no golden."""
    if record.get("error"):
        return record["error"].strip().splitlines()[-1]
    if want is not None:
        if record["exit"] != want["exit"]:
            return f"exit {record['exit']}, golden {want['exit']}"
        if record["sha256"] != want["sha256"]:
            return "stdout differs from golden"
        return None
    if record["exit"] != 0:
        return f"exit {record['exit']}"
    if record.get("passed") is False:
        return '"passed": false'
    return None


def check_pass(result: dict, keys, golden) -> list:
    """One (key, failure or None) per job of the pass."""
    if "died" in result:
        reason = "worker died: " + (result["died"].strip().splitlines() or [""])[-1]
        return [(key, reason) for key in keys]
    return [(key, job_failure(rec, None if golden is None else golden.get(key)))
            for key, rec in zip(keys, result["jobs"])]


def measure(jobs, trace: bool, seconds: float):
    """(set-up times, passes).  Untraced: set-up-only launches before and
    after passes that repeat until ``seconds`` of pass time.  Traced: one
    untraced pass, then one traced pass of the same jobs."""
    start = time.perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - WORKER_SLACK_S - (time.perf_counter() - start)

    if trace:
        untraced = run_worker(jobs, False, left() / 2)
        return [], [untraced, run_worker(jobs, True, left())]
    setups, passes = [], []
    for _ in range(SETUP_SAMPLES):
        setups.append(run_worker([], False, left())["setup_s"])
    measured = 0.0
    while not passes or (measured < seconds
                         and left() > 2 * passes[-1].get("wall_s", left())):
        passes.append(run_worker(jobs, False, left()))
        measured += passes[-1].get("wall_s", 0.0)
    for _ in range(SETUP_SAMPLES):
        setups.append(run_worker([], False, left())["setup_s"])
    return setups + [p["setup_s"] for p in passes], passes


def end_to_end_metrics(setups, passes) -> dict:
    ok = [p for p in passes if "died" not in p]
    return {
        "wall_s": {"value": statistics.median(
            [p["wall_s"] for p in ok] or [0.0]), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(
            [p["peak_rss_mb"] for p in ok] or [0.0]), "unit": "MB"},
    }


def layer_metrics(untraced: dict, traced: dict):
    """(per-layer metrics of the traced pass, names of absent metrics)."""
    from tracer import per_layer_names
    got = traced.get("metrics", {})
    metrics = {name: got.get(name, {"value": 0, "unit": unit})
               for name, unit in per_layer_names()}
    metrics["cli.output_bytes"] = {
        "value": sum(r.get("bytes", 0) for r in traced.get("jobs", [])),
        "unit": "count"}
    metrics["bench.trace_overhead_s"] = {
        "value": traced.get("wall_s", 0.0) - untraced.get("wall_s", 0.0),
        "unit": "s"}
    return metrics, traced.get("absent", [])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="passed to every randomized job (default: the golden seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hermsym" / "cli.py").is_file():
        print(f"error: no hermsym source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    golden_file = json.loads((BENCH / "golden.json").read_text())
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    seed = golden_file["seed"] if args.seed is None else args.seed
    golden = golden_file["workloads"].get(args.workload) \
        if seed == golden_file["seed"] else None
    templates = workloads[args.workload]["jobs"]
    keys = [" ".join(job) for job in templates]
    jobs = [[a.replace("{seed}", str(seed)) for a in job] for job in templates]

    setups, passes = measure(jobs, args.trace == 1, args.seconds)
    checked = [check_pass(p, keys, golden) for p in passes]
    if args.trace and not any("died" in p for p in passes):
        untraced, traced = passes
        checked[1] = [(key, why or ("traced stdout differs from untraced"
                                    if a["sha256"] != b["sha256"] else None))
                      for (key, why), a, b in zip(checked[1], untraced["jobs"],
                                                  traced["jobs"])]
    attempted = sum(len(c) for c in checked)
    failures = [(i, key, why) for i, c in enumerate(checked)
                for key, why in c if why]
    if args.trace:
        metrics, absent = layer_metrics(*passes)
    else:
        metrics, absent = end_to_end_metrics(setups, passes), []

    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    out_file = results_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "golden": golden is not None, "setup_s": setups,
        "passes": [{k: v for k, v in p.items() if k != "metrics"}
                   for p in passes],
        "failures": failures, "metrics": metrics}, indent=1, sort_keys=True))

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"passes {len(passes)}  golden {'yes' if golden is not None else 'no'}")
    for i, key, why in failures:
        print(f"FAILED pass {i}: {key}: {why}")
    print(f"failed_ratio {len(failures) / attempted:.4g}  "
          f"({len(failures)} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if absent:
        print("absent (target no longer exists): " + " ".join(absent))
    print(f"job records: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
