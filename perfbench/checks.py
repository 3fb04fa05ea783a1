"""Check one job's outcome against theory, outside the timed region.

Imports hamlie, so load it after the checkout's ``src`` is on the path.
``check(job, rc, stdout, report)`` returns None when the outcome is what
theory predicts and a one-line reason otherwise.  ``report`` is the JSON
report the job wrote with ``--output`` (None for rep-build, which prints
its result).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from hamlie.hamiltonian import ModuleParams
from hamlie.linalg import Subspace, parse_scalar
from hamlie.reps import build_rep, contraction_theta
from hamlie.submodules import Box, build_submodule
from hamlie.symplectic import build_sp


def pair_count(N: int, box: int, gens: int) -> int:
    """(grade s, generator r != 0) pairs with s and s + r in the box."""
    def c(t):
        return max(0, 2 * box + 1 - abs(t))

    with_zero = sum(c(t) for t in range(-gens, gens + 1)) ** N
    return with_zero - c(0) ** N


def _parse_vec(text: str) -> list:
    return [parse_scalar(x) for x in text.split(",")]


def _subspace(rows: list, dim: int):
    return Subspace.from_vectors([[parse_scalar(x) for x in row] for row in rows], dim)


def _submodule(kind: str, n: int, rep: str, alpha: str, box: int):
    r = build_rep(build_sp(n, verify=False), rep)
    p = ModuleParams(_parse_vec(alpha), [Fraction(0)] * (2 * n), r)
    return build_submodule(kind, p, Box(box, 2 * n))


def _check_probe(e: dict, report: dict):
    if report.get("verdict") != e["verdict"]:
        return f"verdict {report.get('verdict')}, theory {e['verdict']}"
    if e["family"] is None:
        return None
    detected = report["detected_family"]["spaces"]
    if e["family"] == "equals_delta1":
        want = _submodule("delta1", e["n"], e["rep"], e["alpha"], e["box"]).to_obj()["spaces"]
        return None if detected == want else "detected family differs from delta1"
    fam = _submodule("deltak", e["n"], e["rep"], e["alpha"], e["box"])
    dim = fam.dim_v
    for key, rows in fam.to_obj()["spaces"].items():
        got = _subspace(detected.get(key, []), dim)
        if not got.contains_subspace(_subspace(rows, dim)):
            return f"detected family misses deltak at grade {key}"
    return None


def _check_report(e: dict, argv: tuple, report: dict):
    cmd = argv[0]
    if cmd == "claim1-ineq":
        got = [[f["n"], f["k"]] for f in report["failures"]]
        return None if got == e["band"] else f"failure band {got}, theory {e['band']}"
    if report.get("failures"):
        return f"report lists failures: {report['failures'][:2]}"
    if "dim" in e and report.get("dim") != e["dim"]:
        return f"dim {report.get('dim')}, theory {e['dim']}"
    if cmd == "submodule-check":
        want = pair_count(e["N"], e["box"], e["gens"])
        if e.get("method", "certificate") != report.get("method"):
            return f"method {report.get('method')}"
        if report.get("identities") and not all(report["identities"].values()):
            return "certificate identity failed"
        if report.get("pairs") != want or report.get("passes") != want:
            return f"pairs/passes {report.get('pairs')}/{report.get('passes')}, expected {want}"
        return None
    if cmd == "claim2-witness":
        return _check_witness(e, report)
    samples = report.get("samples")
    if "samples" in e and samples != e["samples"]:
        return f"samples {samples}, expected {e['samples']}"
    skipped = report.get("skipped", 0) if e.get("skips") else 0
    if report.get("passes") != samples - skipped:
        return f"passes {report.get('passes')} of {samples} (skipped {skipped})"
    return None


def _check_witness(e: dict, report: dict):
    w = _parse_vec(",".join(report["witness"]))
    n, k = e["n"], e["k"]
    if len(w) != comb(2 * n, k) or not any(w):
        return "witness is zero or has the wrong length"
    theta = contraction_theta(build_sp(n, verify=False), k)
    if any(theta.matrix.matvec(w)):
        return "witness is not in Ker theta_k"
    return None


def check(job, rc, stdout: str, report):
    e = job.expect
    if rc != e["rc"]:
        return f"exit {rc!r}, expected {e['rc']}"
    if e["kind"] == "rep_build":
        want = f"[rep_build] name={e['rep']} dim={e['dim']} round_trip=ok"
        return None if stdout.strip() == want else f"printed {stdout.strip()!r}"
    if report is None:
        return "no report written"
    if e["kind"] == "probe":
        return _check_probe(e, report)
    return _check_report(e, job.argv, report)
