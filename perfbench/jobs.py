"""Seeded job lists for the benchmark workloads.

A job is the argv handed to ``hamlie.cli.main`` plus what theory says the
run must produce.  Every pass of a workload runs the same fixed list of
job *shapes*: subcommand, n, representation, box, generator radius and
denominator class.  The seed draws only what leaves the cost of a shape
about the same (alpha numerator, denominator within its class and
direction, RNG seeds, integer vectors, job order), so two seeds give
different inputs but comparable timings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb

WORKLOADS = ("probe", "verify", "invariance")

Q_SMALL = (2, 3, 5, 7)
Q_WIDE = 2 ** 31 - 1
# alpha denominator that breaks the closure engine's int64 fast path
Q_DEFECT = 2 ** 61 - 1


@dataclass(frozen=True)
class Job:
    argv: tuple
    expect: dict

    def to_obj(self) -> dict:
        return {"argv": list(self.argv), "expect": self.expect}


def n_rep(job: Job):
    """The (n, rep) pair a job builds, or None if it builds no rep."""
    argv = job.argv
    if "--rep" not in argv:
        return None
    return argv[argv.index("--n") + 1], argv[argv.index("--rep") + 1]


def sp_dim(n: int) -> int:
    return n * (2 * n + 1)


def rep_dim(n: int, spec: str) -> int:
    N = 2 * n
    if spec == "trivial":
        return 1
    if spec == "natural":
        return N
    kind, _, k = spec.partition(":")
    k = int(k)
    if kind == "sym":
        return comb(N + k - 1, k)
    if kind == "exterior":
        return comb(N, k)
    return comb(N, k) - comb(N, k - 2)


def _alpha(rng: random.Random, n: int, qclass: str) -> tuple:
    """(alpha argument, integral?) for alpha = (a/q) e_j."""
    if qclass == "int":
        q = 1
    elif qclass == "small":
        q = rng.choice(Q_SMALL)
    elif qclass == "wide":
        q = Q_WIDE
    else:
        q = Q_DEFECT
    sign = rng.choice((-1, 1))
    a = sign if q == 1 else sign * rng.randrange(1, min(q, 1000))
    vec = ["0"] * (2 * n)
    vec[rng.randrange(2 * n)] = str(a) if q == 1 else f"{a}/{q}"
    return "--alpha=" + ",".join(vec), q == 1


def _int_vec(rng: random.Random, flag: str, n: int, nonzero=False) -> str:
    """``--flag=v`` for a random v in [-2, 2]^(2n); the ``=`` form keeps a
    leading minus sign from reading as an option."""
    while True:
        v = [rng.randint(-2, 2) for _ in range(2 * n)]
        if any(v) or not nonzero:
            return f"{flag}=" + ",".join(str(x) for x in v)


def _seed_arg(rng: random.Random) -> tuple:
    return ("--seed", str(rng.getrandbits(32)))


# -- probe ------------------------------------------------------------------

# (n, rep, box, gens, denominator class).  A single job's latency varies
# by about a tenth from run to run on a shared machine, so the median and
# the tail percentile (p81, the 22nd of 27) must each land inside a group
# of jobs of one cost, never on a gap between groups.  Sorted by cost, in
# reference seconds:
#   < 0.1 x5 | ~0.15 x13 (median) | 0.21 x1 | ~0.42 x6 (tail) | 2-4 x2
PROBE_SHAPES = (
    (1, "trivial", 4, 2, "wide"),
    (1, "trivial", 3, 1, "int"),
    (1, "natural", 3, 1, "small"),
    (1, "sym:2", 3, 1, "small"),
    (1, "natural", 5, 1, "int"),
    (1, "sym:2", 4, 2, "wide"),
) + ((1, "natural", 6, 2, "small"),) * 6 + ((1, "natural", 6, 2, "wide"),) * 6 + (
    (2, "trivial", 2, 1, "small"),
) + ((1, "sym:3", 6, 2, "small"),) * 3 + ((2, "trivial", 2, 1, "int"),) * 3 + (
    (2, "natural", 2, 1, "small"),
    (2, "fundamental:2", 2, 1, "small"),
)

# q = 2^61-1 probes whose theory verdict this program gets wrong: the
# closure wraps around in int64 (wrong FULL) or overflows (OverflowError).
# Run once per probe run, outside the timed passes.
DEFECT_SHAPES = (
    (1, "natural", 3, 1, "defect"),
    (1, "natural", 6, 2, "defect"),
    (1, "sym:2", 3, 2, "defect"),
    (2, "fundamental:2", 2, 1, "defect"),
)


def probe_verdict(rep: str, integral: bool) -> str:
    """Theory: natural, fundamental:2 and integral-alpha trivial modules
    have a proper invariant family; sym:k and the other trivial ones fill
    the box."""
    if rep in ("natural", "fundamental:2") or (rep == "trivial" and integral):
        return "PROPER"
    return "FULL"


def _probe_job(rng: random.Random, shape: tuple) -> Job:
    n, rep, box, gens, qclass = shape
    alpha, integral = _alpha(rng, n, qclass)
    argv = ("probe", "--n", str(n), "--rep", rep, alpha, "--box", str(box),
            "--gens", str(gens)) + _seed_arg(rng)
    family = None
    if rep == "natural":
        family = "equals_delta1"
    elif rep == "fundamental:2" and not integral:
        family = "contains_deltak"
    expect = {"kind": "probe", "rc": 0, "n": n, "rep": rep,
              "alpha": alpha.split("=", 1)[1], "box": box,
              "verdict": probe_verdict(rep, integral), "family": family}
    return Job(argv, expect)


def defect_jobs(seed: int) -> list:
    rng = random.Random(f"defects:{seed}")
    return [_probe_job(rng, shape) for shape in DEFECT_SHAPES]


# -- verify -----------------------------------------------------------------

def _report_job(argv: tuple, **expect) -> Job:
    expect.setdefault("rc", 0)
    return Job(argv, {"kind": "report", **expect})


def _verify_jobs(rng: random.Random) -> list:
    jobs = []
    reps = {
        1: ("natural", "trivial", "sym:2"),
        2: ("natural", "trivial", "sym:2", "fundamental:2", "exterior:2"),
        3: ("natural", "trivial", "sym:2", "fundamental:2", "exterior:2",
            "fundamental:3", "exterior:3"),
    }
    # ROADMAP baseline rows
    jobs.append(_report_job(("sp-check", "--n", "5", "--samples", "40") + _seed_arg(rng),
                            n=5, dim=sp_dim(5)))
    jobs.append(Job(("rep-build", "--n", "5", "--rep", "fundamental:3"),
                    {"kind": "rep_build", "rc": 0, "rep": "fundamental:3",
                     "dim": rep_dim(5, "fundamental:3")}))
    alpha, _ = _alpha(rng, 3, "small")
    jobs.append(_report_job(("submodule-check", "deltak", "--n", "3", "--rep", "fundamental:3",
                             alpha, "--box", "3", "--gens", "2", "--method", "certificate"),
                            N=6, box=3, gens=2))

    # n=4 six times: the group of similar jobs the tail percentile lands in
    for n in (1, 2, 3) + (4,) * 6:
        jobs.append(_report_job(("sp-check", "--n", str(n), "--samples", "40") + _seed_arg(rng),
                                n=n, dim=sp_dim(n)))
    for n, rs in reps.items():
        for rep in rs:
            jobs.append(Job(("rep-build", "--n", str(n), "--rep", rep),
                            {"kind": "rep_build", "rc": 0, "rep": rep, "dim": rep_dim(n, rep)}))
    # the n=3 theta and kernel checks cost about the median job and take no
    # random input; five of each keep the median inside a group of equals
    for n, k in ((2, 2),) + ((3, 2), (3, 3)) * 5:
        jobs.append(_report_job(("theta-check", "--n", str(n), "--k", str(k)),
                                samples=sp_dim(n)))
        jobs.append(_report_job(("dim-check", "--n", str(n), "--k", str(k)),
                                dim=comb(2 * n, k) - comb(2 * n, k - 2)))
    sampled = ("natural", "trivial", "sym:2", "fundamental:2")
    # a second round at n=1 and 2 repeats (n, rep) pairs with fresh inputs
    for n in (1, 2, 3, 1, 2):
        for i, rep in enumerate(sampled[: 3 if n == 1 else 4]):
            head = ("--n", str(n), "--rep", rep)
            # integral and non-integral alpha alternate over the reps
            alpha, _ = _alpha(rng, n, ("int", "small")[(n + i) % 2])
            jobs.append(_report_job(("ham-bracket",) + head + (alpha, "--samples", "6")
                                    + _seed_arg(rng), skips=True))
            jobs.append(_report_job(("g1-check",) + head + (alpha, _int_vec(rng, "--r", n),
                                    "--samples", "5") + _seed_arg(rng)))
            jobs.append(_report_job(("g2-table",) + head + (alpha,)))
            jobs.append(_report_job(("named-actions",) + head + (alpha, "--samples", "10")
                                    + _seed_arg(rng)))
            gamma = _int_vec(rng, "--gamma", n, nonzero=True)
            jobs.append(_report_job(("shift-iso",) + head + (alpha, gamma, "--samples", "10")
                                    + _seed_arg(rng)))
    for n, box, gens in ((1, 3, 2), (2, 2, 2), (3, 2, 1)):
        tail = ("--box", str(box), "--gens", str(gens), "--method", "certificate")
        alpha, _ = _alpha(rng, n, "int")
        jobs.append(_report_job(("submodule-check", "trivial_line", "--n", str(n), "--rep",
                                 "trivial", alpha) + tail, N=2 * n, box=box, gens=gens))
        alpha, _ = _alpha(rng, n, "small")
        jobs.append(_report_job(("submodule-check", "delta1", "--n", str(n), "--rep",
                                 "natural", alpha) + tail, N=2 * n, box=box, gens=gens))
    alpha, _ = _alpha(rng, 2, "small")
    jobs.append(_report_job(("submodule-check", "deltak", "--n", "2", "--rep", "fundamental:2",
                             alpha, "--method", "certificate"), N=4, box=3, gens=2))
    for n, k in ((2, 2), (3, 2), (3, 3)):
        alpha, _ = _alpha(rng, n, "small")
        jobs.append(_report_job(("claim2-witness", "--n", str(n), "--rep", f"fundamental:{k}",
                                 alpha, _int_vec(rng, "--r", n), "--k", str(k)),
                                n=n, k=k))
    for n_max in (rng.randint(2, 5), rng.randint(6, 12)):
        band = claim1_band(n_max)
        jobs.append(_report_job(("claim1-ineq", "--n-max", str(n_max)),
                                rc=1 if band else 0, band=band))
    return jobs


def claim1_band(n_max: int) -> list:
    """(n, k) pairs where C(2n,k) - C(2n,k-2) > C(2n-1,k-1) fails."""
    return [[n, k] for n in range(2, n_max + 1) for k in range(2, n + 1)
            if comb(2 * n, k) - comb(2 * n, k - 2) <= comb(2 * n - 1, k - 1)]


# -- invariance -------------------------------------------------------------

# (n, family kind, box, gens, denominator class), in cost groups as for
# the probe: ~0.1 s x5 | ~0.35 s x7 (median) | ~0.7 s x5 (tail) | >1.5 s x2
INVARIANCE_SHAPES = (
    ((2, "trivial_line", 2, 1, "int"),) * 3
    + ((2, "trivial_line", 3, 1, "int"),) * 2
    + ((2, "delta1", 2, 1, "small"),) * 7
    + ((3, "trivial_line", 1, 1, "int"),) * 4
    + ((3, "trivial_line", 2, 1, "int"),
       (3, "delta1", 1, 1, "small"),
       (2, "deltak", 2, 2, "small"))
)

_FAMILY_REP = {"trivial_line": "trivial", "delta1": "natural", "deltak": "fundamental:2"}


def _invariance_job(rng: random.Random, shape: tuple) -> Job:
    n, kind, box, gens, qclass = shape
    alpha, _ = _alpha(rng, n, qclass)
    argv = ("submodule-check", kind, "--n", str(n), "--rep", _FAMILY_REP[kind], alpha,
            "--box", str(box), "--gens", str(gens), "--method", "enumerate")
    return _report_job(argv, N=2 * n, box=box, gens=gens, method="enumerate")


# -- public entry points ----------------------------------------------------

SMOKE_PROBE = ((1, "natural", 3, 1, "small"), (1, "trivial", 3, 1, "int"),
               (1, "sym:2", 3, 1, "wide"))
SMOKE_INVARIANCE = ((2, "trivial_line", 2, 1, "int"), (2, "delta1", 2, 1, "small"))


def make_jobs(workload: str, seed: int, pass_index: int, smoke: bool = False) -> list:
    """The job list of one pass; a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "probe":
        shapes = SMOKE_PROBE if smoke else PROBE_SHAPES
        jobs = [_probe_job(rng, s) for s in shapes]
    elif workload == "invariance":
        shapes = SMOKE_INVARIANCE if smoke else INVARIANCE_SHAPES
        jobs = [_invariance_job(rng, s) for s in shapes]
    elif workload == "verify":
        jobs = _verify_jobs(rng)
        if smoke:
            jobs = [j for j in jobs if j.argv[0] in ("g2-table", "claim1-ineq")
                    or j.argv[:3] == ("rep-build", "--n", "1")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def dump(jobs: list) -> bytes:
    """Canonical bytes of a job list, for comparing two generations."""
    return json.dumps([j.to_obj() for j in jobs], sort_keys=True).encode()
