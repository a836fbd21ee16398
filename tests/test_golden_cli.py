"""Byte-level golden test of the command line.

Each job runs ``hermsym.cli.main`` in process at seed 7 and compares the
SHA-256 of its stdout and its exit code with ``golden_cli.json``.  The
digests lock the reports (exact lambda values, witness multiindices, detail
strings) against refactors of the internals.  ``hyp3 --space typeII:4`` is
left out for its run time; the benchmark's ``certify`` golden covers it.
The map checks read the files under ``tests/maps``, named relative to the
repository root, where each job runs.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hermsym.cli import build_parser, main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())
ROOT = Path(__file__).resolve().parent.parent


def run_job(job: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(job.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("job", sorted(GOLDEN))
def test_cli_output_matches_golden(job, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, digest = run_job(job)
    assert (code, digest) == (GOLDEN[job]["exit"], GOLDEN[job]["sha256"])


def test_reused_parser_keeps_exit_codes_and_bytes():
    """``main`` parses with one parser per process: a failed parse or a
    help request leaves nothing behind for the next call."""
    assert build_parser() is build_parser()
    job = "hyp1 --space typeIV:3 --seed 7"
    want = (GOLDEN[job]["exit"], GOLDEN[job]["sha256"])
    for _ in range(3):
        assert run_job("hyp1 --space typeIV:3 --max-order -1")[0] == 2
        assert run_job("hyp1 --seed 7")[0] == 2
        assert run_job("frobnicate")[0] == 2
        assert run_job("hyp1 --help")[0] == 0
        assert run_job("--help")[0] == 0
        assert run_job(job) == want
