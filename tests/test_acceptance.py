"""The acceptance matrix: every criterion at its stated tolerance, one
pass/fail line per criterion, plus the mutation and tolerance hooks."""

import os

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


def test_tightened_tolerance_flags_tolerance_not_logic(monkeypatch):
    monkeypatch.setattr(acceptance, "RICCI_TOL", 1e-15)
    monkeypatch.setattr(acceptance, "DEGENERACY_TOL", 1e-17)
    monkeypatch.setattr(acceptance, "CLAIM_HEAD_TOL", 1e-19)
    tight = Tolerances(float_tol=1e-15, einstein_tol=1e-17)
    results = run_all(seed=SEED, tol=tight)
    failures = [r for r in results if not r.passed]
    assert failures, "tightening tolerances to 1e-15 must trip a float check"
    for r in failures:
        assert r.failure_kind == "tolerance", (r.name, r.detail)


def test_tolerances_are_the_selftest_flags():
    """Each field of ``Tolerances`` is set by a selftest flag, and each
    tolerance flag sets one: a tolerance no flag sets is a constant."""
    import dataclasses
    from hermsym.cli import build_parser
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    selftest = sub.choices["selftest"]
    flags = {a.dest for a in selftest._actions
             if any(o.endswith("-tol") for o in a.option_strings)}
    assert {f.name for f in dataclasses.fields(Tolerances)} == flags \
        == {"float_tol", "einstein_tol"}


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
    monkeypatch.setattr(acceptance, "EMBEDDING_POINTS", 10)
    result = acceptance.check_embedding_identity(seed=SEED)
    assert not result.passed
    assert result.failure_kind == "logic" and "typeI:2,2" in result.detail


def test_family_cache_built_once_under_contention(monkeypatch):
    """Concurrent first requests for one space share a single build, and
    the cache never holds more than its bound, dropping the oldest entry."""
    import sys
    import threading
    import time
    from hermsym.spaces import build_space
    builds = []

    def counting_build(spec):
        builds.append(spec)
        time.sleep(0.01)                    # widen the race window
        return build_space(spec)

    monkeypatch.setattr(acceptance, "_FAMILIES", {})
    monkeypatch.setattr(acceptance, "build_space", counting_build)
    seen = []
    start = threading.Barrier(8)

    def request():
        start.wait(timeout=60)
        seen.append(acceptance.family("typeI:2,3"))

    threads = [threading.Thread(target=request) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == ["typeI:2,3"]
    assert len(seen) == 8 and all(f is seen[0] for f in seen)
    # fill past the bound with cheap spaces: the first one is dropped
    bound = acceptance._FAMILIES_BOUND
    assert bound > 11                       # the selftest's spaces never evict
    specs = [f"typeI:1,{k}" for k in range(1, bound + 1)]
    for spec in specs:
        acceptance.family(spec)
    assert len(acceptance._FAMILIES) == bound
    assert "typeI:2,3" not in acceptance._FAMILIES
    assert set(acceptance._FAMILIES) == set(specs)


@pytest.mark.parametrize("check,command,criterion,field", [
    ("hypothesis_one", "hyp1", "check_hypothesis_one", "rank1"),
    ("hypothesis_two", "hyp2", "check_hypothesis_two", "rank"),
], ids=["hyp1", "hyp2"])
def test_one_check_feeds_command_and_criterion(monkeypatch, check, command,
                                               criterion, field):
    """The command and the selftest criterion read the same per-space
    check: when it reports rank 1, both fail."""
    import contextlib
    import dataclasses
    import io
    from hermsym.cli import main
    real = getattr(acceptance, check)
    monkeypatch.setattr(acceptance, check, lambda *args: dataclasses.replace(
        real(*args), **{field: 1}))
    monkeypatch.delenv("HSS_SEED", raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--space", "typeIV:3", "--seed", "7"]) == 1
    result = getattr(acceptance, criterion)(seed=SEED)
    assert not result.passed and result.failure_kind == "logic", result.detail


def test_flipped_pair_partition_fails_pfaffian_suite(monkeypatch):
    """Criterion 2 checks the expansion the builder runs: one pair
    partition with the wrong sign changes the typeII psi and fails it."""
    from hermsym import spaces
    good = spaces.build_space("typeII:4").psi[-1]
    real = spaces._pair_partitions

    def flipped(indices):
        for pairs, sign in real(indices):
            yield pairs, (-sign if pairs == ((1, 3), (2, 4)) else sign)

    monkeypatch.setattr(spaces, "_pair_partitions", flipped)
    monkeypatch.setattr(acceptance, "_FAMILIES", {})
    assert spaces.build_space("typeII:4").psi[-1] != good
    result = acceptance.check_pfaffian_suite(seed=SEED)
    assert not result.passed and result.failure_kind == "logic", result.detail
    assert result.detail == "pair partitions != Laplace expansion at order 4"


# ---------------------------------------------------------------------------
# the criteria in two processes
# ---------------------------------------------------------------------------

ONE_GROUP = (tuple(range(len(ALL_CRITERIA))),)
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _patch_criteria(monkeypatch, replace):
    """``ALL_CRITERIA`` with the criteria at the indices of ``replace``
    swapped for the given bodies."""
    criteria = list(ALL_CRITERIA)
    for i, fn in replace.items():
        criteria[i] = fn
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", criteria)


def _selftest(argv):
    """(exit code, stdout, stderr) of ``hermsym`` on ``argv``, in process."""
    import contextlib
    import io
    from hermsym.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_groups_partition_all_criteria(monkeypatch):
    groups = acceptance.CRITERION_GROUPS
    assert len(groups) == 2 and all(groups)
    assert sorted(i for g in groups for i in g) == list(range(len(ALL_CRITERIA)))
    assert acceptance.criterion_groups() in (groups, ONE_GROUP)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert acceptance.criterion_groups() == ONE_GROUP
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert acceptance.criterion_groups() == groups
        # another thread alive: no fork
        import threading
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert acceptance.criterion_groups() == ONE_GROUP
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert acceptance.criterion_groups() == groups
    monkeypatch.delattr(os, "fork", raising=False)
    assert acceptance.criterion_groups() == ONE_GROUP


@needs_fork
@pytest.mark.parametrize("seed", [7, 11])
def test_run_all_equals_each_criterion_alone(monkeypatch, seed):
    monkeypatch.setattr(acceptance, "criterion_groups",
                        lambda: acceptance.CRITERION_GROUPS)
    tol = Tolerances()
    assert run_all(seed=seed, tol=tol) == [fn(seed=seed, tol=tol)
                                           for fn in ALL_CRITERIA]
    _no_child_left()


@needs_fork
def test_child_exception_exits_like_serial_route(monkeypatch):
    """A criterion of the child's group that raises: ``selftest`` exits 3
    with the stderr line of the serial route, and leaves no child."""
    monkeypatch.delenv("HSS_SEED", raising=False)

    def broken(seed, tol):
        raise ArithmeticError("broken invariant")

    _patch_criteria(monkeypatch, {acceptance.CRITERION_GROUPS[1][0]: broken})
    runs = []
    for groups in (acceptance.CRITERION_GROUPS, ONE_GROUP):
        monkeypatch.setattr(acceptance, "criterion_groups", lambda: groups)
        runs.append(_selftest(["selftest"]))
        _no_child_left()
    assert runs[0] == runs[1] == (
        3, "", "internal error: ArithmeticError: broken invariant\n")


@needs_fork
@pytest.mark.parametrize("raising", [(2, 3), (1, 2), (4, 8)],
                         ids=["child-first", "parent-first", "child-only"])
def test_lowest_raising_index_wins(monkeypatch, raising):
    """When criteria of both groups raise, the one a serial run reaches
    first is raised, with its type and message."""
    kinds = [KeyError, ValueError, ZeroDivisionError]

    def fake(i):
        def run(seed, tol):
            if i in raising:
                raise kinds[i % 3](f"criterion {i}")
            return acceptance.CriterionResult(f"c{i}", True, "ok")
        return run

    _patch_criteria(monkeypatch, {i: fake(i) for i in range(len(ALL_CRITERIA))})
    first = min(raising)
    for groups in (acceptance.CRITERION_GROUPS, ONE_GROUP):
        monkeypatch.setattr(acceptance, "criterion_groups", lambda: groups)
        with pytest.raises(kinds[first % 3]) as info:
            run_all(seed=SEED)
        assert info.value.args == (f"criterion {first}",)
        _no_child_left()


@needs_fork
def test_child_that_dies_is_an_internal_error(monkeypatch):
    parent = os.getpid()
    monkeypatch.delenv("HSS_SEED", raising=False)

    def dies(seed, tol):
        assert os.getpid() != parent, "ran in the calling process"
        os._exit(9)

    _patch_criteria(monkeypatch, {acceptance.CRITERION_GROUPS[1][-1]: dies})
    monkeypatch.setattr(acceptance, "criterion_groups",
                        lambda: acceptance.CRITERION_GROUPS)
    code, out, err = _selftest(["selftest"])
    assert (code, out) == (3, "")
    assert err == ("internal error: RuntimeError: selftest child process "
                   "exited with code 9 before reporting\n")
    _no_child_left()


@needs_fork
def test_interrupted_parent_kills_its_child(monkeypatch):
    """A BaseException in the calling process (the benchmark's time limit
    is one) kills the child at once and reaps it."""
    import time

    class Stop(BaseException):
        pass

    parent = os.getpid()

    def hangs(seed, tol):
        if os.getpid() != parent:
            time.sleep(60)
        raise AssertionError("ran in the calling process")

    def stops(seed, tol):
        raise Stop()

    groups = acceptance.CRITERION_GROUPS
    _patch_criteria(monkeypatch, {groups[1][0]: hangs, groups[0][0]: stops})
    monkeypatch.setattr(acceptance, "criterion_groups", lambda: groups)
    t0 = time.perf_counter()
    with pytest.raises(Stop):
        run_all(seed=SEED)
    assert time.perf_counter() - t0 < 30
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs sched_setaffinity")
def test_selftest_bytes_do_not_depend_on_the_cpu_count():
    """``selftest --seed 7`` pinned to one CPU (one group, no child) prints
    the bytes of an unpinned run."""
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("HSS_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "hermsym.cli", "selftest", "--seed", "7"]
    cpu = min(os.sched_getaffinity(0))
    pinned = subprocess.run(cmd, capture_output=True, check=True, env=env,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    unpinned = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert pinned.stdout == unpinned.stdout and pinned.stdout
    assert pinned.stderr == unpinned.stderr == b""
