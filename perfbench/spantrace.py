"""Span tracer for the traced benchmark run.

Wraps hamlie's layer boundaries from outside, as each calling module sees
them, so no file of the program changes.  Every call made while the tracer
is active becomes one span: label, start, end, parent span and job id,
kept in memory and written out when the run ends.  Per-layer counts,
inclusive time and self time are derived from the spans afterwards.

A span label is ``layer`` or ``layer:detail``; the layer is the part
before the colon.  A layer's ``calls`` and inclusive time count only
entries into it from outside (a span with no open span of the same layer
above it), so nested calls inside one layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

import hamlie.hamiltonian
import hamlie.linalg
import hamlie.submodules

_MODULES = ("hamlie", "hamlie.cli", "hamlie.linalg", "hamlie.symplectic", "hamlie.reps",
            "hamlie.hamiltonian", "hamlie.submodules")

# (defining module, name, span label): patched wherever a hamlie module binds it
FUNCTIONS = (
    ("hamlie.symplectic", "build_sp", "symplectic.build_sp"),
    ("hamlie.symplectic", "sp_decompose", "symplectic.sp_decompose"),
    ("hamlie.reps", "build_rep", "reps.build_rep"),
    ("hamlie.reps", "verify_intertwiner", "reps.verify_intertwiner"),
    ("hamlie.hamiltonian", "act_H", "hamiltonian.act_H"),
    ("hamlie.hamiltonian", "verify_g1", "hamiltonian.verify:g1"),
    ("hamlie.hamiltonian", "verify_g2_table", "hamiltonian.verify:g2_table"),
    ("hamlie.hamiltonian", "verify_ham_bracket", "hamiltonian.verify:ham_bracket"),
    ("hamlie.hamiltonian", "verify_named_actions", "hamiltonian.verify:named_actions"),
    ("hamlie.hamiltonian", "verify_shift_isomorphism", "hamiltonian.verify:shift_isomorphism"),
    ("hamlie.submodules", "_ActionTable", "submodules.action_table"),
    ("hamlie.submodules", "_enumerate_invariance", "submodules.enumerate"),
    ("hamlie.submodules", "_certificate_invariance", "submodules.certificate"),
    ("hamlie.submodules", "irreducibility_probe", "submodules.probe"),
    ("hamlie.linalg", "nullspace", "linalg.subspace_ops:nullspace"),
    ("hamlie.linalg", "_rref_rows", "linalg.rref"),
)

# (class, method, span label)
METHODS = (
    (hamlie.hamiltonian.ModuleParams, "rho_rank_one", "hamiltonian.rho_rank_one"),
    (hamlie.submodules._ClosureEngine, "run", "submodules.closure"),
    (hamlie.submodules.TruncatedModule, "space", "submodules.family_space"),
) + tuple(
    (hamlie.linalg.Subspace, op, f"linalg.subspace_ops:{op}")
    for op in ("from_vectors", "reduce", "contains", "coordinates", "add_vector",
               "sum_with", "intersect", "contains_subspace", "annihilator")
)

# exact counts read off return values: label -> (counter, function of result)
RESULT_COUNTS = {
    "submodules.closure": ("submodules.closure.total_dim",
                           lambda spaces: sum(s.dim for s in spaces.values())),
    "submodules.enumerate": ("submodules.enumerate.pairs", lambda report: report["pairs"]),
    "submodules.probe": ("submodules.probe.seeds", lambda report: len(report["seeds"])),
}


def layer_of(label: str) -> str:
    return label.split(":", 1)[0]


class Tracer:
    def __init__(self):
        self.labels: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.outer: list = []
        self.jobs: list = []
        self.counts: Counter = Counter()
        self.job = -1
        self.active = False
        self._stack: list = []
        self._depth: Counter = Counter()
        self._undo: list = []

    def wrap(self, label: str, fn):
        layer = layer_of(label)
        counter = RESULT_COUNTS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.labels)
            self.labels.append(label)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.outer.append(self._depth[layer] == 0)
            self.jobs.append(self.job)
            self.ends.append(0.0)
            self._stack.append(i)
            self._depth[layer] += 1
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = perf_counter()
                self._stack.pop()
                self._depth[layer] -= 1
            if counter:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self):
        """Patch every boundary; ``uninstall`` restores the originals."""
        modules = [importlib.import_module(m) for m in _MODULES]
        for home, name, label in FUNCTIONS:
            original = getattr(importlib.import_module(home), name)
            traced = self.wrap(label, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, traced)
        for cls, name, label in METHODS:
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(label, raw.__func__))
            else:
                patched = self.wrap(label, raw)
            self._undo.append((cls, name, raw))
            setattr(cls, name, patched)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- derived figures ------------------------------------------------------

    def layers(self, factors=None) -> dict:
        """layer -> {"calls", "s" (inclusive, outer spans), "self_s"}.

        ``factors[j]``, when given, scales the spans of job j (the speed
        normalization the end-to-end timings use)."""
        n = len(self.labels)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        if factors is not None:
            dur = [d * factors[j] for d, j in zip(dur, self.jobs)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict = {}
        for i, label in enumerate(self.labels):
            row = out.setdefault(layer_of(label), {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["self_s"] += dur[i] - child[i]
            if self.outer[i]:
                row["calls"] += 1
                row["s"] += dur[i]
        return out

    def rho_misses(self) -> int:
        """rho_rank_one calls that had to decompose, i.e. missed the cache."""
        missed = {p for lab, p in zip(self.labels, self.parents)
                  if lab == "symplectic.sp_decompose" and p >= 0
                  and self.labels[p] == "hamiltonian.rho_rank_one"}
        return len(missed)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tjob\tparent\tlabel\tstart_s\tend_s\n")
            for i, label in enumerate(self.labels):
                fh.write(f"{i}\t{self.jobs[i]}\t{self.parents[i]}\t{label}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


def per_layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float,
                      factors: list) -> dict:
    """Per-layer figures averaged per traced pass, times scaled by the
    per-job ``factors`` (a superset of the metrics BENCHMARK.json names)."""
    lay = tracer.layers(factors)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(layer, key):
        return lay.get(layer, empty)[key] / passes

    rho_calls = lay.get("hamiltonian.rho_rank_one", empty)["calls"]
    misses = tracer.rho_misses()
    m = {
        "submodules.closure.runs": get("submodules.closure", "calls"),
        "submodules.closure.total_dim": tracer.counts["submodules.closure.total_dim"] / passes,
        "submodules.enumerate.pairs": tracer.counts["submodules.enumerate.pairs"] / passes,
        "submodules.probe.seeds": tracer.counts["submodules.probe.seeds"] / passes,
        "hamiltonian.rho_rank_one.misses": misses / passes,
        "hamiltonian.rho_cache_hit_ratio": (rho_calls - misses) / rho_calls if rho_calls else 0.0,
        "cli.calls": get("cli", "calls"),
        "cli.self_s": get("cli", "self_s"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in ("submodules.closure", "submodules.enumerate", "submodules.family_space",
                  "linalg.rref", "linalg.subspace_ops", "submodules.action_table",
                  "hamiltonian.rho_rank_one", "hamiltonian.act_H", "hamiltonian.verify",
                  "symplectic.build_sp", "symplectic.sp_decompose", "reps.build_rep",
                  "reps.verify_intertwiner", "submodules.certificate", "submodules.probe"):
        m[f"{layer}.s"] = get(layer, "s")
        m[f"{layer}.calls"] = get(layer, "calls")
    return m
