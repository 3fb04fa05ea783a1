"""hamlie benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload probe --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Every job is an in-process call to
``hamlie.cli.main(argv)`` in this one process: a closed loop with one
client, no pool, numpy held to one thread.  A pass runs the workload's
fixed job list (drawn from the seed and the pass number) and passes repeat
until ``--seconds`` is spent, at least MIN_PASSES of them.  Each job's
output is checked against theory outside its timed span.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
each pass runs once untraced and once under the span tracer, and the
per-layer metrics are printed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

import jobs as joblists  # the benchmark's own module, next to this script

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

MIN_PASSES = 2  # untraced; a traced run needs one untraced + traced pair
SETUP_SAMPLES = 5
# median time of _calibration_loop on the reference machine (README)
CAL_NOMINAL_S = 2.0e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _prepare_env():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # a warm rep cache would change what every job computes
    os.environ.pop("HAMLIE_CACHE_DIR", None)


def _import_hamlie():
    """Import hamlie from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hamlie", "__init__.py")):
        raise SystemExit(f"error: no hamlie sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import hamlie

    if os.path.dirname(os.path.dirname(os.path.abspath(hamlie.__file__))) != SRC:
        raise SystemExit(f"error: hamlie imported from {hamlie.__file__}, not {SRC}")
    return hamlie


def _calibration_loop():
    x = 0
    for i in range(12000):
        x += i * i % 7
    f = Fraction(1, 3)
    for i in range(1, 120):
        f = f * Fraction(i + 1, i) - Fraction(1, i + 2)
    return x, f


def calibrate() -> float:
    """Current speed of this CPU: median time of three runs of a fixed
    pure-Python loop.  The collector is off meanwhile, so the size of the
    program's heap cannot change the figure."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            _calibration_loop()
            times.append(perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return sorted(times)[1]


def _measure_setup(workload: str, seed: int, smoke: bool) -> float:
    """Set-up time in reference seconds (see Pass)."""
    before = calibrate()
    t0 = perf_counter()
    _import_hamlie()
    joblists.make_jobs(workload, seed, 0, smoke)
    elapsed = perf_counter() - t0
    return elapsed * 2 * CAL_NOMINAL_S / (before + calibrate())


def _setup_samples(args) -> list:
    """Set-up time in fresh processes (imports are cached in this one)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--measure-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_job(main_fn, job, report_path: str):
    """(latency s, exit code or exception name, stdout, report or None)."""
    argv = list(job.argv)
    if job.expect["kind"] != "rep_build":
        argv += ["--output", report_path]
    if os.path.exists(report_path):
        os.remove(report_path)
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = main_fn(argv)
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code
    except Exception as exc:  # a crash is a failed job, never a dropped one
        rc = type(exc).__name__
    latency = perf_counter() - t0
    report = None
    if rc in (0, 1) and os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    return latency, rc, out.getvalue(), report


class Pass:
    """One run of a job list: latencies and the failed checks.

    This shared machine changes speed by up to half for tens of seconds at
    a time, which would swamp any change in the program.  So the CPU is
    calibrated between jobs, and each latency is also kept in reference
    seconds: latency * CAL_NOMINAL_S / (mean of the calibrations before and
    after the job).  A calibration serves the job before it and the job
    after it, which halves their cost on lists of short jobs.
    """

    def __init__(self):
        self.raw: list = []
        self.factors: list = []
        self.failures: list = []

    @property
    def latencies(self) -> list:
        return [t * f for t, f in zip(self.raw, self.factors)]

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


def run_pass(main_fn, job_list: list, check, tracer=None) -> Pass:
    result = Pass()
    report_path = os.path.join(WORKDIR, "report.json")
    cal_before = calibrate()
    for job in job_list:
        if tracer:
            tracer.job += 1
            tracer.active = True
        try:
            latency, rc, stdout, report = run_job(main_fn, job, report_path)
        finally:
            if tracer:
                tracer.active = False
        cal_after = calibrate()
        result.raw.append(latency)
        result.factors.append(2 * CAL_NOMINAL_S / (cal_before + cal_after))
        cal_before = cal_after
        reason = check(job, rc, stdout, report)
        if reason:
            result.failures.append((job, reason))
    return result


def tail_percentile(workload: str, smoke: bool) -> int:
    """Highest whole percentile with at least ten jobs beyond it in the
    smallest run (MIN_PASSES passes)."""
    n = MIN_PASSES * len(joblists.make_jobs(workload, 0, 0, smoke))
    return max(0, math.floor(100 * (1 - 10 / n)))


def nearest_rank(values: list, pct: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def run(args) -> dict:
    hamlie = _import_hamlie()
    import numpy

    from checks import check
    from hamlie import cli

    os.makedirs(WORKDIR, exist_ok=True)
    setup = _setup_samples(args)
    print(f"machine: {platform.machine()}, {os.cpu_count()} cpus, python "
          f"{platform.python_version()}, numpy {numpy.__version__}, hamlie {hamlie.__version__}")

    passes, traced_passes = [], []
    tracer = None
    if args.trace:
        from spantrace import Tracer

        tracer = Tracer()
        traced_main = tracer.wrap("cli", cli.main)
        tracer.install()
    t_start = perf_counter()
    try:
        k = 0
        while True:
            job_list = joblists.make_jobs(args.workload, args.seed, k, args.smoke)
            t_pass = perf_counter()
            passes.append(run_pass(cli.main, job_list, check))
            if tracer:
                traced_passes.append(run_pass(traced_main, job_list, check, tracer))
            k += 1
            pass_s = perf_counter() - t_pass
            if (k >= MIN_PASSES or tracer) and perf_counter() - t_start + pass_s > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    defects = []
    if args.workload == "probe" and not args.smoke:
        for job in joblists.defect_jobs(args.seed):
            _, rc, stdout, report = run_job(cli.main, job, os.path.join(WORKDIR, "report.json"))
            defects.append((job, check(job, rc, stdout, report)))

    all_passes = passes + traced_passes
    latencies = [x for p in passes for x in p.latencies]
    raw = [x for p in passes for x in p.raw]
    pct = tail_percentile(args.workload, args.smoke)
    return {
        "raw": {"wall_s": statistics.median(p.raw_wall for p in passes),
                "job_p50_s": statistics.median(raw),
                "job_tail_s": nearest_rank(raw, pct)},
        "setup": setup,
        "passes": passes,
        "attempted": sum(len(p.latencies) for p in all_passes),
        "failures": [f for p in all_passes for f in p.failures],
        "wall_s": statistics.median(p.wall for p in passes),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": nearest_rank(latencies, pct),
        "tail_pct": pct,
        "jobs": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "defects": defects,
        "tracer": tracer,
        "traced_passes": traced_passes,
    }


def _benchmark_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def report(args, res: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    w = args.workload
    per_pass = len(res["passes"][0].latencies)
    print(f"workload {w}, seed {args.seed}: {len(res['passes'])} passes of {per_pass} jobs, "
          f"closed loop, 1 client, in-process")
    print("  pass walls, reference s: " + " ".join(f"{p.wall:.4f}" for p in res["passes"]))
    print("  pass walls, raw s:       " + " ".join(f"{p.raw_wall:.4f}" for p in res["passes"]))
    print("  raw (not speed-normalized): " + ", ".join(
        f"{k} {v:.4f} s" for k, v in res["raw"].items()))
    if w == "verify":
        keys = [joblists.n_rep(job) for p in range(len(res["passes"]))
                for job in joblists.make_jobs(w, args.seed, p, args.smoke)]
        keys = [key for key in keys if key]
        repeats = len(keys) - len(set(keys))
        print(f"  jobs with a rep whose (n, rep) pair already ran in this process: "
              f"{repeats}/{len(keys)}")
    for job, reason in res["failures"]:
        print(f"  FAILED {' '.join(job.argv)}: {reason}")
    for job, reason in res["defects"]:
        state = f"still wrong: {reason}" if reason else "now correct"
        print(f"  known defect (q = 2^61-1, untimed) {' '.join(job.argv)}: {state}")
    if res["defects"]:
        wrong = sum(1 for _, r in res["defects"] if r)
        print(f"  known defects still wrong: {wrong}/{len(res['defects'])}")

    values = {
        "wall_s": res["wall_s"],
        "job_p50_s": res["job_p50_s"],
        "job_tail_s": res["job_tail_s"],
        "setup_s": statistics.median(res["setup"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "wall_s": f"median pass of {per_pass} jobs",
        "job_p50_s": f"median of {res['jobs']} jobs",
        "job_tail_s": f"p{res['tail_pct']} of {res['jobs']} jobs, >= 10 beyond it",
        "setup_s": f"median of {len(res['setup'])} fresh processes",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    attempted, failed = res["attempted"], len(res["failures"])
    print(f"  {'fail_ratio':24s} {failed / attempted:.4f}    ({failed} of {attempted} jobs)")
    if res["tracer"]:
        from spantrace import per_layer_metrics

        untraced = sum(p.wall for p in res["passes"])
        traced = sum(p.wall for p in res["traced_passes"])
        factors = [f for p in res["traced_passes"] for f in p.factors]
        values.update(per_layer_metrics(res["tracer"], len(res["traced_passes"]),
                                        traced / untraced, factors))
        os.makedirs(WORKDIR, exist_ok=True)
        spans = os.path.join(WORKDIR, f"spans-{w}-{args.seed}.tsv")
        res["tracer"].write(spans)
        print(f"  {len(res['tracer'].labels)} spans written to {os.path.relpath(spans, ROOT)}")
        for layer, row in sorted(res["tracer"].layers(factors).items()):
            print(f"  layer {layer:28s} calls {row['calls']:8d}  incl {row['s']:9.4f} s"
                  f"  self {row['self_s']:9.4f} s")

    metrics = {}
    for m in _benchmark_metrics(bool(args.trace)):
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:34s} {value:.6g} {m['unit']}    {notes.get(m['name'], '')}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny job lists, for tests")
    parser.add_argument("--measure-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_env()
    if args.measure_setup:
        print(_measure_setup(args.workload, args.seed, args.smoke))
        return 0
    result = report(args, run(args))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
