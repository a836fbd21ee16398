"""One benchmark pass in a fresh process.

Usage: worker.py JOBS_JSON TRACE JOB_LIMIT_S PASS_LIMIT_S

Imports ``hermsym.cli`` and prints ``ready`` on stdout; that line marks the
end of set-up.  Then runs each job (an argv list) through
``hermsym.cli.main`` in order, with the job's stdout and stderr captured, and
prints one JSON object with the outcome of every job, the pass wall time,
the peak resident memory and, with TRACE=1, the per-layer metrics.

A job that runs past JOB_LIMIT_S, or starts after PASS_LIMIT_S of the pass
have gone, is stopped and reported with ``"error": "time limit"``.
"""

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback


class JobTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(cli, argv, limit):
    out, err = io.StringIO(), io.StringIO()
    record = {"argv": argv, "exit": None, "error": None}
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            record["exit"] = cli.main(list(argv))
    except JobTimeout:
        record["error"] = "time limit"
    except SystemExit as exc:
        record["exit"] = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the job failed; the pass goes on
        record["error"] = traceback.format_exc(limit=-3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record["seconds"] = time.perf_counter() - t0
    data = out.getvalue().encode()
    record["sha256"] = hashlib.sha256(data).hexdigest()
    record["bytes"] = len(data)
    try:
        report = json.loads(data)
        record["passed"] = report.get("passed") if isinstance(report, dict) else None
    except ValueError:
        record["passed"] = None
        record["error"] = record["error"] or "output is not JSON"
    if record["exit"] not in (0, None):
        record["stderr"] = err.getvalue()[-400:]
    return record


def main():
    jobs = json.loads(sys.argv[1])
    trace = sys.argv[2] == "1"
    job_limit, pass_limit = float(sys.argv[3]), float(sys.argv[4])
    import hermsym.cli as cli
    print("ready", flush=True)
    if not jobs:
        return
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    t0 = time.perf_counter()
    for argv in jobs:
        left = pass_limit - (time.perf_counter() - t0)
        if left <= 0:
            records.append({"argv": argv, "exit": None, "error": "time limit",
                            "seconds": 0.0})
            continue
        records.append(run_job(cli, argv, min(job_limit, left)))
    wall = time.perf_counter() - t0
    result = {"jobs": records, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "hermsym": cli.__file__}
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        result["absent"] = tracer.absent_metrics()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
