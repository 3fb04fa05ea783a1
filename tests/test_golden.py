"""Golden report bytes: one small run of every subcommand, hashed.

Each argv runs in-process with a fixed seed and ``--output``; the exit
code, stdout and report file of every run feed one sha256 in order.  A
change to what any report says, or how it is printed, fails here; a
change meant to alter report bytes updates ``GOLDEN`` and says why in
CHANGES.md.  ``REUSE_GOLDEN`` pins, the same way, two probes whose closures
take the probe's reuse of a known family, ``ENUMERATE_GOLDEN`` two
enumeration checks that take the grid walk, ``ENUMERATE_EDGE_GOLDEN``
five enumeration checks on the edges of the family build,
``PROBE_EDGE_GOLDEN`` seven probes on the edges of the probe's family grid,
and ``N3_PROBE_GOLDEN`` one PROPER probe at n=3.
"""

import hashlib
import io
from contextlib import redirect_stdout

from hamlie.cli import main

ARGV = [
    ["sp-check", "--n", "2", "--samples", "40", "--seed", "7"],
    ["rep-build", "--n", "2", "--rep", "fundamental:2"],
    ["theta-check", "--n", "2", "--k", "2"],
    ["dim-check", "--n", "2", "--k", "2"],
    ["ham-bracket", "--n", "2", "--rep", "sym:2", "--alpha", "1/3,0,-1/2,0",
     "--samples", "20", "--seed", "11"],
    ["g1-check", "--n", "2", "--rep", "fundamental:2", "--alpha", "1/2,1/3,0,0",
     "--r", "1,0,-1,2", "--samples", "10", "--seed", "5"],
    ["g2-table", "--n", "2", "--rep", "exterior:2", "--alpha", "1/2,0,0,0"],
    ["named-actions", "--n", "2", "--rep", "natural", "--alpha", "0,1/5,0,0",
     "--samples", "10", "--seed", "3"],
    ["shift-iso", "--n", "2", "--rep", "fundamental:2", "--alpha", "1/3,0,0,0",
     "--gamma", "1,0,-1,0", "--samples", "15", "--seed", "9"],
    ["submodule-check", "delta1", "--n", "1", "--rep", "natural", "--alpha", "1/3,0",
     "--box", "2", "--gens", "1"],
    ["submodule-check", "deltak", "--n", "2", "--rep", "fundamental:2",
     "--alpha", "1/3,0,0,0", "--box", "1", "--gens", "1"],
    ["submodule-check", "trivial_line", "--n", "1", "--rep", "trivial", "--alpha", "1,0",
     "--box", "2", "--gens", "1", "--method", "enumerate"],
    ["claim2-witness", "--n", "2", "--rep", "fundamental:2", "--alpha", "1/2,0,0,0",
     "--r", "1,0,-1,2", "--k", "2"],
    ["claim1-ineq", "--n-max", "7"],
    ["probe", "--n", "1", "--rep", "natural", "--alpha", "1/3,0", "--box", "2",
     "--gens", "1", "--extra-seeds", "1", "--seed", "4"],
]

GOLDEN = "ba7f0297b3b6daf81fed35e28148a6c35a9f16046ebbe0a55ffb52b00dc5fac2"

# Two PROPER probes at n=2 where a seed takes the closure of an earlier seed
# (a family it lies in at grade 0) instead of closing its own
REUSE_ARGV = [
    ["probe", "--n", "2", "--rep", "natural", "--alpha=0,0,-2/5,0", "--box", "2",
     "--gens", "1", "--seed", "3156951619"],
    ["probe", "--n", "2", "--rep", "fundamental:2", "--alpha=0,3/5,0,0", "--box", "2",
     "--gens", "1", "--seed", "3077981240"],
]

REUSE_GOLDEN = "2ce7776e6a4b78be1216258714d7f17cd2e7b272e52e2a8ce589064b569922d9"

# Two enumeration checks of the benchmark's grid-walk shapes, hashed from
# the sweep that checked every family before the grid walk existed
ENUMERATE_ARGV = [
    ["submodule-check", "deltak", "--n", "2", "--rep", "fundamental:2", "--alpha", "1/3,0,0,0",
     "--box", "2", "--gens", "2", "--method", "enumerate"],
    ["submodule-check", "delta1", "--n", "2", "--rep", "natural", "--alpha", "0,2/7,0,0",
     "--box", "2", "--gens", "1", "--method", "enumerate"],
]

ENUMERATE_GOLDEN = "25a07791bf27ffdd267a5ac530b74ac5128d5bd12ef9d74609ceec892f9d275e"

# Enumeration checks on the edges of the family build, hashed from the
# per-grade builders: deltak at integral alpha (u = 0 at grade -alpha, which
# holds the whole kernel); deltak with an alpha denominator 3^40 (rows and
# annihilators past int64); delta1 at denominator 2^61 - 1 (object rows, so
# the sweep); delta1 at alpha = 0 (an empty grade 0); delta1 at n = 3
ENUMERATE_EDGE_ARGV = [
    ["submodule-check", "deltak", "--n", "2", "--rep", "fundamental:2", "--alpha", "1,0,-1,0",
     "--box", "2", "--gens", "1", "--method", "enumerate"],
    ["submodule-check", "deltak", "--n", "2", "--rep", "fundamental:2",
     "--alpha", f"1/{3 ** 40},0,0,0", "--box", "1", "--gens", "1", "--method", "enumerate"],
    ["submodule-check", "delta1", "--n", "2", "--rep", "natural",
     "--alpha", f"0,1/{2 ** 61 - 1},0,0", "--box", "2", "--gens", "1", "--method", "enumerate"],
    ["submodule-check", "delta1", "--n", "2", "--rep", "natural", "--alpha", "0,0,0,0",
     "--box", "2", "--gens", "1", "--method", "enumerate"],
    ["submodule-check", "delta1", "--n", "3", "--rep", "natural", "--alpha", "1/3,0,0,0,0,0",
     "--box", "1", "--gens", "1", "--method", "enumerate"],
]

ENUMERATE_EDGE_GOLDEN = "21e87d3c2da7f12cc10717f18852dcdba2ded358333b856b3a71330d873e0760"

# Probes on the edges of the family grid, hashed from the per-grade echelon
# dicts the probe kept before the grid: the walk misses grade -alpha at
# integral alpha (natural at (0,0,-1,0), fundamental:2 at (1,0,-1,0));
# alpha denominators 2^61 - 1 and 3^40 (transport past int64); alpha = 0
# (no transport, so the guided closure); the trivial rep at integral alpha
# (a family at one grade); and a generic alpha
PROBE_EDGE_ARGV = [
    ["probe", "--n", "2", "--rep", "natural", "--alpha=0,0,-1,0", "--box", "2", "--gens", "1"],
    ["probe", "--n", "2", "--rep", "fundamental:2", "--alpha=1,0,-1,0", "--box", "2",
     "--gens", "1"],
    ["probe", "--n", "1", "--rep", "natural", f"--alpha=1/{2 ** 61 - 1},0", "--box", "3",
     "--gens", "1"],
    ["probe", "--n", "1", "--rep", "natural", f"--alpha=1/{3 ** 40},0", "--box", "3",
     "--gens", "1"],
    ["probe", "--n", "2", "--rep", "natural", "--alpha=0,0,0,0", "--box", "2", "--gens", "1"],
    ["probe", "--n", "2", "--rep", "trivial", "--alpha=0,1,0,0", "--box", "2", "--gens", "1"],
    ["probe", "--n", "2", "--rep", "natural", "--alpha=1/3,2/5,0,0", "--box", "2", "--gens", "1"],
]

PROBE_EDGE_GOLDEN = "7404c4c29c5f456968a48a555e35a0852f44d20810ca45b5144c00c32263d26e"

# A PROPER probe at n=3, whose seed lines below dim spin under the span of
# the closed words and whose families are transported at n=3; hashed from
# the spin through every word
N3_PROBE_ARGV = [
    ["probe", "--n", "3", "--rep", "natural", "--alpha=1/3,0,0,0,0,0", "--box", "1",
     "--gens", "1"],
]

N3_PROBE_GOLDEN = "113d2af4c79219a74e60e8f77de105df5a7dbc2841f5fb37fa415c0a419203bd"


def _digest(tmp_path, argvs=ARGV) -> str:
    h = hashlib.sha256()
    for i, argv in enumerate(argvs):
        out = tmp_path / f"report{i}.json"
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv + ["--output", str(out)])
        for part in (str(code).encode(), buf.getvalue().encode(), out.read_bytes()):
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
    return h.hexdigest()


def test_report_bytes_match_golden(tmp_path):
    assert _digest(tmp_path) == GOLDEN


def test_reuse_report_bytes_match_golden(tmp_path):
    assert _digest(tmp_path, REUSE_ARGV) == REUSE_GOLDEN


def test_enumerate_report_bytes_match_golden(tmp_path):
    assert _digest(tmp_path, ENUMERATE_ARGV) == ENUMERATE_GOLDEN


def test_enumerate_edge_report_bytes_match_golden(tmp_path):
    assert _digest(tmp_path, ENUMERATE_EDGE_ARGV) == ENUMERATE_EDGE_GOLDEN


def test_probe_edge_report_bytes_match_golden(tmp_path):
    assert _digest(tmp_path, PROBE_EDGE_ARGV) == PROBE_EDGE_GOLDEN


def test_n3_probe_report_bytes_match_golden(tmp_path):
    assert _digest(tmp_path, N3_PROBE_ARGV) == N3_PROBE_GOLDEN
