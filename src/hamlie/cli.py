"""Command line entry point.

Builds algebras and representations, runs the verification suites,
and emits JSON reports.  All rational literals use "p/q" with
comma-separated vectors; floats are rejected.  Exit code 0 means every
check passed (probe verdicts FULL and PROPER both count as successful
runs; INCONCLUSIVE exits nonzero), 1 that a check failed, 2 a usage or
input error and 3 an internal error, any other exception.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import comb

from .linalg import format_scalar, nullspace, parse_scalar
from .symplectic import SpBasisError, build_sp, rank_one, sp_decompose
from .reps import (
    bracket_violations,
    build_rep,
    contraction_theta,
    fundamental_degree,
    rep_from_obj,
    theta_matrix,
    verify_intertwiner,
)
from .hamiltonian import (
    GradedVector,
    ModuleParams,
    verify_g1,
    verify_g2_table,
    verify_ham_bracket,
    verify_named_actions,
    verify_shift_isomorphism,
)
from .submodules import (
    Box,
    GeneratorSet,
    build_submodule,
    claim1_inequality,
    claim2_witness,
    invariance_check,
    irreducibility_probe,
)

DEFAULT_SEED = 0xC0FFEE

def _parse_vector(text: str, length: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != length:
        raise ValueError(f"{what} must have {length} comma-separated entries, got {len(parts)}")
    return tuple(parse_scalar(tok.strip()) for tok in parts)


def _parse_int_vector(text: str, length: int, what: str) -> tuple:
    vec = _parse_vector(text, length, what)
    if any(x.denominator != 1 for x in vec):
        raise ValueError(f"{what} must be an integer vector")
    return tuple(int(x) for x in vec)


def _load_rep(path: str):
    """A serialized rep whose action preserves every basis bracket;
    fundamental:k (k >= 2) gets its kernel back, since the serialized form
    stores only the action on the kernel basis."""
    with open(path, "r", encoding="utf-8") as fh:
        rep = rep_from_obj(json.load(fh))
    violations = bracket_violations(rep)
    if violations:
        x, y = violations[0]
        raise ValueError(f"{path}: rho([{x}, {y}]) != [rho({x}), rho({y})]; "
                         f"{len(violations)} basis pair(s) break the bracket")
    k = fundamental_degree(rep.name)
    if k is not None and k >= 2:
        kernel = nullspace(theta_matrix(rep.alg.N, k))
        if kernel.dim != rep.dim:
            raise ValueError(f"{path}: {rep.name} must have dimension {kernel.dim}")
        rep.subspace = kernel
    return rep


def _resolve_rep(alg, spec: str):
    if spec.startswith("file:"):
        rep = _load_rep(spec[len("file:"):])
        if rep.alg.n != alg.n:
            raise ValueError(f"{spec}: the rep is for n={rep.alg.n}, not --n {alg.n}")
        return rep
    return build_rep(alg, spec)


def _module_params(args) -> ModuleParams:
    """F^{alpha,beta}(V) at ``--n``.  beta enters only the d_i, so a
    subcommand that applies no d_i takes no --beta and gets beta = 0."""
    alg = build_sp(args.n, verify=False)
    zero = (0,) * alg.N
    alpha = _parse_vector(args.alpha, alg.N, "--alpha") if args.alpha else zero
    beta = getattr(args, "beta", None)
    beta = _parse_vector(beta, alg.N, "--beta") if beta else zero
    return ModuleParams(alpha, beta, _resolve_rep(alg, args.rep))


def _report_ok(report: dict) -> bool:
    if "verdict" in report:
        return report["verdict"] in ("FULL", "PROPER")
    return not report.get("failures")


def _emit(report: dict, args) -> int:
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    ok = _report_ok(report)
    check = report.get("check", "report")
    if "verdict" in report:
        print(f"[{check}] verdict={report['verdict']}")
        if report.get("caveat"):
            print(f"  note: {report['caveat']}")
    elif "samples" in report:
        print(f"[{check}] samples={report['samples']} passes={report['passes']} "
              f"failures={len(report['failures'])}")
    elif "pairs" in report:
        print(f"[{check}] method={report.get('method')} pairs={report['pairs']} "
              f"passes={report['passes']} failures={len(report['failures'])}")
    else:
        print(f"[{check}] {'ok' if ok else 'FAILED'}")
    for f in report.get("failures", [])[:5]:
        print(f"  failure: {f}")
    if not ok:
        print(f"[{check}] FAILED")
    return 0 if ok else 1


# -- subcommand handlers ---------------------------------------------------


def _cmd_sp_check(args) -> int:
    # a basis that fails its own check is a failed check, not bad input
    try:
        alg, basis_failures = build_sp(args.n, verify=True), []
    except SpBasisError as exc:
        alg, basis_failures = exc.alg, exc.failures
    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.samples):
        r = tuple(rng.randint(-5, 5) for _ in range(alg.N))
        try:
            sp_decompose(rank_one(r), alg)
        except ValueError:
            failures.append({"r": list(r)})
    report = {
        "check": "sp_structure",
        "params": {"n": args.n, "rng_seed": args.seed},
        "dim": alg.dim,
        "samples": args.samples,
        "passes": args.samples - len(failures),
        "failures": basis_failures + failures,
    }
    return _emit(report, args)


def _cmd_rep_build(args) -> int:
    alg = build_sp(args.n, verify=False)
    rep = _resolve_rep(alg, args.rep)
    obj = rep.to_obj()
    failures = [] if rep_from_obj(obj) == rep else [{"kind": "round_trip"}]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    ok = not failures
    print(f"[rep_build] name={rep.name} dim={rep.dim} round_trip={'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_theta_check(args) -> int:
    alg = build_sp(args.n, verify=False)
    theta = contraction_theta(alg, args.k)
    ok, violations = verify_intertwiner(theta)
    report = {
        "check": "theta_equivariance",
        "params": {"n": args.n, "k": args.k},
        "samples": len(alg.labels),
        "passes": len(alg.labels) - len(violations),
        "failures": [{"label": label} for label in violations],
    }
    return _emit(report, args)


def _cmd_dim_check(args) -> int:
    alg = build_sp(args.n, verify=False)
    got = nullspace(theta_matrix(alg.N, args.k)).dim
    want = comb(alg.N, args.k) - comb(alg.N, args.k - 2)
    failures = [] if got == want else [{"got": got, "want": want}]
    report = {
        "check": "kernel_dimension",
        "params": {"n": args.n, "k": args.k},
        "samples": 1,
        "passes": 1 - len(failures),
        "failures": failures,
        "dim": got,
    }
    return _emit(report, args)


def _cmd_ham_bracket(args) -> int:
    p = _module_params(args)
    rng = random.Random(args.seed)
    N, dim = p.rep.alg.N, p.rep.dim
    failures = []
    skipped = 0
    for _ in range(args.samples):
        r = tuple(rng.randint(-3, 3) for _ in range(N))
        s = tuple(rng.randint(-3, 3) for _ in range(N))
        grade = tuple(rng.randint(-3, 3) for _ in range(N))
        payload = tuple(rng.randint(-5, 5) for _ in range(dim))
        x = GradedVector(grade, payload)
        res = verify_ham_bracket(r, s, x, p)
        if res is None:
            skipped += 1
        elif not res:
            failures.append({"r": list(r), "s": list(s), "grade": list(grade)})
    report = {
        "check": "ham_bracket",
        "params": {
            "n": args.n,
            "rep": p.rep.name,
            "alpha": [format_scalar(a) for a in p.alpha],
            "rng_seed": args.seed,
        },
        "samples": args.samples,
        "skipped": skipped,
        "passes": args.samples - skipped - len(failures),
        "failures": failures,
    }
    return _emit(report, args)


def _cmd_g1_check(args) -> int:
    p = _module_params(args)
    N = p.rep.alg.N
    r = _parse_int_vector(args.r, N, "--r") if args.r else (0,) * N
    report = verify_g1(p, r, args.samples, random.Random(args.seed))
    return _emit(report, args)


def _cmd_g2_table(args) -> int:
    p = _module_params(args)
    return _emit(verify_g2_table(p), args)


def _cmd_named_actions(args) -> int:
    p = _module_params(args)
    report = verify_named_actions(p, args.samples, random.Random(args.seed))
    return _emit(report, args)


def _cmd_shift_iso(args) -> int:
    p = _module_params(args)
    gamma = _parse_int_vector(args.gamma, p.rep.alg.N, "--gamma")
    report = verify_shift_isomorphism(gamma, p, args.samples, random.Random(args.seed))
    return _emit(report, args)


def _cmd_submodule_check(args) -> int:
    p = _module_params(args)
    box = Box(args.box, p.rep.alg.N)
    gens = GeneratorSet(args.gens, p.rep.alg.N)
    family = build_submodule(args.kind, p, box)
    report = invariance_check(family, gens, method=args.method)
    return _emit(report, args)


def _cmd_claim2_witness(args) -> int:
    p = _module_params(args)
    r = _parse_int_vector(args.r, p.rep.alg.N, "--r")
    witness = claim2_witness(p, r, args.k)
    report = {
        "check": "claim2_witness",
        "params": {
            "n": args.n,
            "k": args.k,
            "r": [str(v) for v in r],
            "alpha": [format_scalar(a) for a in p.alpha],
        },
        "witness": [format_scalar(Fraction(x)) for x in witness],
        "samples": 1,
        "passes": 1,
        "failures": [],
    }
    return _emit(report, args)


def _cmd_claim1_ineq(args) -> int:
    return _emit(claim1_inequality(args.n_max), args)


def _cmd_probe(args) -> int:
    p = _module_params(args)
    box = Box(args.box, p.rep.alg.N)
    gens = GeneratorSet(args.gens, p.rep.alg.N)
    report = irreducibility_probe(
        p, box, gens, rng_seed=args.seed, extra_seeds=args.extra_seeds
    )
    return _emit(report, args)


# -- argument wiring -------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: a decimal integer no smaller than ``low``, so that
    no count can make a check pass vacuously."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = f"integer >= {low}"
    return parse


# one declaration per shared option; each subcommand lists those it reads
_N = ("--n", {"type": int, "required": True, "help": "rank of the symplectic algebra"})
_REP = ("--rep", {"default": "natural",
                  "help": "natural | trivial | fundamental:k | sym:k | exterior:k | file:PATH"})
_ALPHA = ("--alpha", {"help": "rational vector p/q,... of length 2n"})
_BETA = ("--beta", {"help": "rational vector p/q,... of length 2n"})
_MODULE = (_N, _REP, _ALPHA)
_SEED = ("--seed", {"type": lambda s: int(s, 0), "default": DEFAULT_SEED,
                    "help": "RNG seed (decimal or 0x hex)"})
_K = ("--k", {"type": int, "required": True})
_BOX = ("--box", {"type": int, "default": 3})
_GENS = ("--gens", {"type": int, "default": 2})
_OUTPUT = ("--output", {"help": "write the JSON report to this path"})


def _samples(default: int) -> tuple:
    return ("--samples", {"type": _int_at_least(1), "default": default})


# subcommand: (the invariant it verifies, handler, the options it reads);
# every subcommand also takes --output
CHECKS = {
    "sp-check": (
        "basis brackets close in the sp span; symplectic condition; r rbar^t membership",
        _cmd_sp_check, (_N, _samples(1000), _SEED)),
    "rep-build": (
        "representation construction and exact JSON round trip",
        _cmd_rep_build, (_N, _REP)),
    "theta-check": (
        "the contraction theta_k intertwines the sp action",
        _cmd_theta_check, (_N, _K)),
    "dim-check": (
        "dim Ker theta_k = C(2n,k) - C(2n,k-2)",
        _cmd_dim_check, (_N, _K)),
    "ham-bracket": (
        "[H_r, H_s] = (rbar, s) H_{r+s} on random graded vectors",
        _cmd_ham_bracket, _MODULE + (_samples(500), _SEED)),
    "g1-check": (
        "g1 quadratic expansion matches the sp-basis table and the module action",
        _cmd_g1_check,
        _MODULE + (("--r", {"help": "integer vector of length 2n"}), _samples(50), _SEED)),
    "g2-table": (
        "degree-4 coefficients of g2 match the closed six-row table",
        _cmd_g2_table, _MODULE),
    "named-actions": (
        "closed forms of the three distinguished generator actions",
        _cmd_named_actions, _MODULE + (_samples(100), _SEED)),
    "shift-iso": (
        "grade shift by an integer vector intertwines shifted parameters",
        _cmd_shift_iso,
        _MODULE + (_BETA, ("--gamma", {"required": True,
                                       "help": "integer shift vector of length 2n"}),
                   _samples(100), _SEED)),
    "submodule-check": (
        "the explicit graded family is invariant under all modeled generators",
        _cmd_submodule_check,
        (("kind", {"choices": ["trivial_line", "delta1", "deltak"]}),) + _MODULE
        + (_BOX, _GENS, ("--method", {"choices": ["auto", "enumerate", "certificate"],
                                      "default": "auto"}))),
    "claim2-witness": (
        "a nonzero wedge witness in W_r^k intersected with Ker theta_k",
        _cmd_claim2_witness,
        _MODULE + (("--r", {"required": True, "help": "integer vector of length 2n"}), _K)),
    "claim1-ineq": (
        "integer sweep of C(2n,k) - C(2n,k-2) > C(2n-1,k-1)",
        _cmd_claim1_ineq, (("--n-max", {"type": int, "default": 10}),)),
    "probe": (
        "closure-based irreducibility probe on a truncation box",
        _cmd_probe,
        _MODULE + (_BETA, _BOX, _GENS,
                   ("--extra-seeds", {"type": _int_at_least(0), "default": 4}), _SEED)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamlie",
        description="Exact verification of symplectic representation identities "
                    "and graded module structure.",
    )
    parser.add_argument("--list-checks", action="store_true",
                        help="list subcommands and the invariant each one verifies")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, handler, options) in CHECKS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in options + (_OUTPUT,):
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=handler)
    return parser


_parser = None


def main(argv=None) -> int:
    # built on the first call, not at import, and reused: parse_args starts
    # every call from a fresh namespace, so no option outlives its call
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.list_checks:
        for name, (help_text, _, _) in CHECKS.items():
            print(f"{name}: {help_text}")
        return 0
    if not getattr(args, "command", None):
        _parser.print_usage()
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a failed check (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
