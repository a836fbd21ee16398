"""Tests of the benchmark itself (not of hermsym).

    python3 -m pytest -q bench/test_bench.py

The traced-workload tests run every workload once untraced and once traced,
about three minutes on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

# Per workload, the stats its rationale names: each must record work there.
NAMED = {
    "witness": ["rigidity.jet_rows", "maps.compose_psi", "poly.derivative",
                "poly.evaluate", "poly.compose_fractions", "linalg.add_row",
                "linalg.det_exact", "rigidity.witness", "rigidity.jet_rank",
                "gauss.mul", "gauss.add", "segre.build_rho", "segre.rho_at",
                "spaces.build_space", "cli.dump_json"],
    "family": ["segre.build_rho", "poly.partial_evaluate", "segre.rho_at",
               "poly.mul", "segre.batch_eval", "segre.einstein_fit",
               "rigidity.transversality", "gauss.mul", "gauss.add",
               "gauss.div"],
    "certify": ["poly.modp_mul", "rigidity.oracle", "rigidity.support_claims",
                "segre.sample_on_family"],
    "selftest": ["octonion", "linalg.det_gauss_elimination"]
                + [f"acceptance.{c}" for c in tracer.CRITERIA],
}


def run_bench(*args, cwd=ROOT, root=ROOT):
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=200)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(NAMED))
def traced(request):
    proc = run_bench("--workload", request.param, "--seed", "7", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    record = json.loads((BENCH / "results" /
                         f"{request.param}-seed7-trace1.json").read_text())
    return request.param, last_json(proc), record


def test_named_functions_record_work_on_their_workload(traced):
    workload, result, _ = traced
    for stat in NAMED[workload]:
        # a stat's first metric is its call count, or its time when it has none
        first = next(m["value"] for name, m in result["metrics"].items()
                     if name.startswith(stat + "."))
        assert first > 0, f"{stat} recorded no work on {workload}"


def test_traced_outputs_equal_untraced_and_golden(traced):
    _, result, record = traced
    untraced, traced_pass = record["passes"]
    assert [j["sha256"] for j in untraced["jobs"]] == \
        [j["sha256"] for j in traced_pass["jobs"]]
    assert result["correct"] and result["failed"] == 0
    assert record["golden"]


def test_reported_metrics_match_benchmark_json(traced):
    _, result, _ = traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(result["metrics"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == m["unit"] for k, m in result["metrics"].items())


SELF_VS_BUSY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hermsym.cli as cli
from tracer import Tracer
tr = Tracer().install()
for argv in (["hyp1", "--space", "typeI:2,3", "--seed", "3"],
             ["hyp2", "--space", "typeIII:2", "--seed", "3"],
             ["hyp3", "--space", "typeIV:3", "--seed", "3"],
             ["rho", "--space", "typeI:2,2"]):
    cli.main(argv)
print(json.dumps({k: [s.calls, s.busy, s.self_time] for k, s in tr.stats.items()}))
"""


def test_self_time_never_exceeds_busy_time():
    proc = subprocess.run([sys.executable, "-c", SELF_VS_BUSY, str(BENCH)],
                          env=run.worker_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["cli.dump_json"][0] > 0 and stats["rigidity.witness"][0] > 0
    for name, (calls, busy, self_time) in stats.items():
        assert 0 <= self_time <= busy + 1e-9, name


def test_missing_targets_are_absent_and_read_zero():
    targets = [("poly.mul", ("poly:Polynomial.no_such_method",), ("calls",),
                False, None),
               ("segre.build_rho", ("no_such_module:build_rho",), ("calls",),
                False, None)]
    tr = tracer.Tracer(targets).install()
    metrics = tr.metrics()
    assert [(k, m["unit"]) for k, m in metrics.items()] == tracer.per_layer_names()
    assert all(m["value"] == 0 for m in metrics.values())
    assert tr.absent == set(tr.stats)
    assert "poly.mul.calls" in tr.absent_metrics()
    assert "poly.self_s" in tr.absent_metrics()


def copy_bench(dest: Path, with_src: bool) -> Path:
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        (dest / "src").symlink_to(ROOT / "src")
    return dest


def test_corrupted_golden_is_a_failed_job_not_a_crash(tmp_path):
    root = copy_bench(tmp_path, with_src=True)
    key = "hyp1 --space typeI:2,2 --seed {seed}"
    workloads = {"tiny": {"why": "test", "jobs": [key.split(),
                                                  ["rho", "--space", "typeIV:3"]]}}
    (root / "bench" / "workloads.json").write_text(json.dumps({"workloads": workloads}))
    golden = {"seed": 7, "workloads": {"tiny": {
        key: {"exit": 0, "sha256": "0" * 64},
        "rho --space typeIV:3": {"exit": 1, "sha256": "0" * 64}}}}
    (root / "bench" / "golden.json").write_text(json.dumps(golden))
    proc = run_bench("--workload", "tiny", "--seconds", "0", root=root, cwd=root)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert "stdout differs from golden" in proc.stdout
    assert "exit 0, golden 1" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    root = copy_bench(tmp_path, with_src=False)
    proc = run_bench("--workload", "witness", "--seed", "1", "--seconds", "1",
                     "--trace", "0", root=root, cwd=root)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
