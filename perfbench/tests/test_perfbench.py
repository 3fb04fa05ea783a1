"""Tests for the benchmark harness.  Run: python3 -m pytest perfbench/tests -q"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import jobs  # noqa: E402
from checks import check, pair_count  # noqa: E402
from spantrace import Tracer  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_lists_are_a_function_of_the_seed(workload):
    for k in (0, 1):
        a = jobs.dump(jobs.make_jobs(workload, 7, k))
        assert a == jobs.dump(jobs.make_jobs(workload, 7, k))
        assert a != jobs.dump(jobs.make_jobs(workload, 8, k))
    assert jobs.dump(jobs.make_jobs(workload, 7, 0)) != jobs.dump(jobs.make_jobs(workload, 7, 1))


def test_probe_alphas_cover_every_denominator_class():
    alphas = [j.expect["alpha"] for k in range(3) for j in jobs.make_jobs("probe", 1, k)]
    alphas += [j.expect["alpha"] for j in jobs.defect_jobs(1)]
    dens = {int(x.split("/")[1]) if "/" in x else 1 for a in alphas for x in a.split(",")
            if x != "0"}
    assert {1, jobs.Q_WIDE, jobs.Q_DEFECT} <= dens
    assert dens & set(jobs.Q_SMALL)


def test_pair_count_matches_brute_force():
    for N, box, gens in ((2, 2, 1), (2, 3, 2), (3, 1, 1)):
        grades = list(itertools.product(range(-box, box + 1), repeat=N))
        gen = [r for r in itertools.product(range(-gens, gens + 1), repeat=N) if any(r)]
        want = sum(1 for s in grades for r in gen
                   if all(abs(x + y) <= box for x, y in zip(s, r)))
        assert pair_count(N, box, gens) == want


def test_check_flags_a_wrong_verdict():
    job = next(j for j in jobs.make_jobs("probe", 1, 0) if j.expect["rep"] == "sym:2")
    assert check(job, 0, "", {"verdict": "FULL"}) is None
    assert check(job, 0, "", {"verdict": "PROPER"})
    assert check(job, "OverflowError", "", None)


def test_tracer_restores_every_boundary():
    import hamlie.cli
    import hamlie.linalg
    import hamlie.submodules

    before = (hamlie.cli.build_sp, hamlie.linalg._rref_rows, hamlie.submodules._ActionTable,
              hamlie.linalg.Subspace.__dict__["from_vectors"])
    with Tracer() as tracer:
        assert hamlie.cli.build_sp is not before[0]
        tracer.active = True
        hamlie.linalg.Subspace.from_vectors([[1, 2], [2, 4]], 2)
        tracer.active = False
    after = (hamlie.cli.build_sp, hamlie.linalg._rref_rows, hamlie.submodules._ActionTable,
             hamlie.linalg.Subspace.__dict__["from_vectors"])
    assert before == after
    assert tracer.labels == ["linalg.subspace_ops:from_vectors", "linalg.rref"]
    assert tracer.parents == [-1, 0]
    assert tracer.layers()["linalg.subspace_ops"]["calls"] == 1


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "probe", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
