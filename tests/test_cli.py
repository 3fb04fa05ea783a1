"""Command line behavior: subcommands, literals, exit codes, determinism."""

import argparse
import json

import pytest

from hamlie import cli
from hamlie.cli import CHECKS, main
from hamlie.reps import build_rep, rep_from_obj
from hamlie.symplectic import build_sp


def test_list_checks(capsys):
    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for name in CHECKS:
        assert name in out


def test_no_command_usage_error():
    assert main([]) == 2


def test_sp_check_ok():
    assert main(["sp-check", "--n", "2", "--samples", "50"]) == 0


def test_rep_build_round_trip(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["rep-build", "--n", "2", "--rep", "fundamental:2",
                 "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    rep = rep_from_obj(obj)
    assert rep.dim == 5
    # the serialized file can be fed back through file:
    assert main(["rep-build", "--n", "2", "--rep", f"file:{out}"]) == 0
    # and carries the kernel that the deltak family is built from
    assert main(["submodule-check", "deltak", "--n", "2", "--rep", f"file:{out}",
                 "--alpha", "1/3,0,0,0", "--box", "2", "--gens", "1"]) == 0
    # a rep built for n=2 is refused at --n 1, before any other work
    assert main(["rep-build", "--n", "1", "--rep", f"file:{out}"]) == 2


def test_rep_build_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "name": "broken"}')
    assert main(["rep-build", "--n", "2", "--rep", f"file:{bad}"]) == 2
    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"n": 2, "dim":')
    assert main(["rep-build", "--n", "2", "--rep", f"file:{truncated}"]) == 2
    # well formed, but h1 acts doubled, so rho([h1, X]) != [rho(h1), rho(X)]
    obj = build_rep(build_sp(1, verify=False), "natural").to_obj()
    for entry in obj["action"]["h1"]["entries"]:
        entry[2] = str(2 * int(entry[2]))
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps(obj))
    head = ["--n", "1", "--rep", f"file:{doubled}"]
    assert main(["rep-build"] + head) == 2
    assert main(["g2-table"] + head) == 2
    assert main(["probe"] + head + ["--alpha=1/3,0", "--box", "3", "--gens", "1"]) == 2


@pytest.mark.parametrize("method", ["enumerate", "certificate"])
@pytest.mark.parametrize("spec,name,kind,dim", [("trivial", "natural", "delta1", 4),
                                                ("natural", "trivial", "trivial_line", 1)])
def test_renamed_rep_of_another_dimension_exits_2(tmp_path, capsys, spec, name, kind, dim,
                                                  method):
    # a file: rep under a builtin name keeps the bracket law, but the family
    # of that name needs the builtin's dimension
    obj = build_rep(build_sp(2, verify=False), spec).to_obj()
    obj["name"] = name
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(obj))
    assert main(["submodule-check", kind, "--n", "2", "--rep", f"file:{path}",
                 "--alpha", "1,0,0,0", "--box", "1", "--gens", "1", "--method", method]) == 2
    err = capsys.readouterr().err
    assert kind in err and f"dimension {dim}" in err, err


def test_float_literals_rejected(capsys):
    for literal in ("0.5", "1/2/3"):
        assert main(["ham-bracket", "--n", "1", "--rep", "natural",
                     "--alpha", f"{literal},0", "--samples", "1"]) == 2
        err = capsys.readouterr().err
        # the message names the literal and the forms that are accepted
        assert repr(literal) in err and "p/q or p" in err, err


def test_vector_length_checked():
    assert main(["ham-bracket", "--n", "2", "--rep", "natural",
                 "--alpha", "1/2,0", "--samples", "1"]) == 2


def test_theta_and_dim_check():
    assert main(["theta-check", "--n", "2", "--k", "2"]) == 0
    assert main(["dim-check", "--n", "3", "--k", "2"]) == 0


def test_identity_suite_exit_codes():
    assert main(["ham-bracket", "--n", "1", "--rep", "natural",
                 "--alpha", "1/2,0", "--samples", "50"]) == 0
    assert main(["g1-check", "--n", "1", "--rep", "natural",
                 "--alpha", "1/2,1/3", "--samples", "10"]) == 0
    assert main(["g2-table", "--n", "2", "--rep", "natural",
                 "--alpha", "1/2,0,0,0"]) == 0
    assert main(["named-actions", "--n", "1", "--rep", "natural",
                 "--samples", "20"]) == 0
    assert main(["shift-iso", "--n", "1", "--rep", "natural",
                 "--alpha", "1/2,0", "--gamma", "1,0", "--samples", "20"]) == 0


def test_submodule_check():
    assert main(["submodule-check", "delta1", "--n", "2", "--rep", "natural",
                 "--alpha", "1/3,0,0,0", "--box", "2", "--gens", "1"]) == 0
    assert main(["claim2-witness", "--n", "2", "--rep", "fundamental:2",
                 "--alpha", "1/2,0,0,0", "--r", "1,0,-1,2", "--k", "2"]) == 0


def test_claim1_exit_codes():
    assert main(["claim1-ineq", "--n-max", "5"]) == 0
    # the sweep to 10 finds genuine failures of the inequality at k = n >= 6
    assert main(["claim1-ineq", "--n-max", "10"]) == 1


def test_probe_verdict_exit(tmp_path):
    out = tmp_path / "probe.json"
    rc = main(["probe", "--n", "1", "--rep", "trivial", "--alpha", "1,1",
               "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "PROPER"
    # box radius below the generator radius leaves no inner box to judge
    assert main(["probe", "--n", "1", "--rep", "trivial", "--alpha", "1,1",
                 "--box", "1", "--gens", "2"]) == 2


def test_report_byte_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["ham-bracket", "--n", "2", "--rep", "natural", "--alpha",
            "1/3,0,0,0", "--samples", "100", "--seed", "0xC0FFEE"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_environment_names_no_cache(tmp_path, monkeypatch):
    # reps are built afresh on every run; nothing is written beside them
    cache = tmp_path / "cache"
    monkeypatch.setenv("HAMLIE_CACHE_DIR", str(cache))
    assert main(["rep-build", "--n", "2", "--rep", "exterior:2"]) == 0
    assert main(["submodule-check", "deltak", "--n", "2", "--rep", "fundamental:2",
                 "--alpha", "1/3,0,0,0", "--box", "2", "--gens", "1"]) == 0
    assert not cache.exists() or not any(cache.iterdir())


def test_parser_built_once(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    boxes = []
    probe = cli.irreducibility_probe
    monkeypatch.setattr(cli, "irreducibility_probe",
                        lambda p, box, *a, **k: boxes.append(box.radius) or probe(p, box, *a, **k))
    out = tmp_path / "probe.json"
    head = ["probe", "--n", "1", "--rep", "trivial", "--alpha", "1/2,0"]
    assert main(head + ["--box", "2", "--output", str(out)]) == 0
    out.unlink()
    # the second call sees none of the first call's options
    assert main(head) == 0
    assert not out.exists()
    assert boxes == [2, 3]
    assert main(["sp-check", "--n", "1", "--samples", "5"]) == 0
    assert len(built) == 1


def test_zero_denominator_exits_2():
    assert main(["probe", "--n", "1", "--alpha=1/0,0", "--box", "1", "--gens", "1"]) == 2
    assert main(["shift-iso", "--n", "1", "--alpha", "1/2,0", "--beta", "0,3/0",
                 "--gamma", "1,0", "--samples", "1"]) == 2


# every option each subcommand reads, and no other
SURFACE = {
    "sp-check": {"--n", "--samples", "--seed", "--output"},
    "rep-build": {"--n", "--rep", "--output"},
    "theta-check": {"--n", "--k", "--output"},
    "dim-check": {"--n", "--k", "--output"},
    "ham-bracket": {"--n", "--rep", "--alpha", "--samples", "--seed", "--output"},
    "g1-check": {"--n", "--rep", "--alpha", "--r", "--samples", "--seed", "--output"},
    "g2-table": {"--n", "--rep", "--alpha", "--output"},
    "named-actions": {"--n", "--rep", "--alpha", "--samples", "--seed", "--output"},
    "shift-iso": {"--n", "--rep", "--alpha", "--beta", "--gamma", "--samples", "--seed",
                  "--output"},
    "submodule-check": {"kind", "--n", "--rep", "--alpha", "--box", "--gens", "--method",
                        "--output"},
    "claim2-witness": {"--n", "--rep", "--alpha", "--r", "--k", "--output"},
    "claim1-ineq": {"--n-max", "--output"},
    "probe": {"--n", "--rep", "--alpha", "--beta", "--box", "--gens", "--extra-seeds",
              "--seed", "--output"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {a.option_strings[0] if a.option_strings else a.dest
                  for a in sp._actions if not isinstance(a, argparse._HelpAction)}
           for name, sp in sub.choices.items()}
    assert got == SURFACE
    assert sum(map(len, got.values())) == 69


@pytest.mark.parametrize("argv", [
    ["rep-build", "--n", "1", "--alpha", "0,0"],
    ["rep-build", "--n", "1", "--beta", "0,0"],
    ["rep-build", "--n", "1", "--seed", "1"],
    ["theta-check", "--n", "1", "--k", "1", "--seed", "1"],
    ["dim-check", "--n", "1", "--k", "1", "--seed", "1"],
    ["ham-bracket", "--n", "1", "--beta", "0,0"],
    ["g1-check", "--n", "1", "--beta", "0,0"],
    ["named-actions", "--n", "1", "--beta", "0,0"],
    ["g2-table", "--n", "1", "--beta", "0,0"],
    ["g2-table", "--n", "1", "--seed", "1"],
    ["submodule-check", "delta1", "--n", "1", "--beta", "0,0"],
    ["submodule-check", "delta1", "--n", "1", "--seed", "1"],
    ["claim2-witness", "--n", "1", "--r", "1,0", "--k", "1", "--beta", "0,0"],
    ["claim2-witness", "--n", "1", "--r", "1,0", "--k", "1", "--seed", "1"],
])
def test_unread_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ham-bracket", "--n", "1", "--samples", "-1"],
    ["sp-check", "--n", "1", "--samples", "0"],
    ["named-actions", "--n", "1", "--samples", "0"],
    ["shift-iso", "--n", "1", "--gamma", "1,0", "--samples", "0"],
    ["g1-check", "--n", "1", "--samples", "0"],
    ["probe", "--n", "1", "--rep", "trivial", "--alpha", "1/2,0", "--extra-seeds", "-1"],
])
def test_vacuous_counts_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_smallest_counts_accepted():
    assert main(["sp-check", "--n", "1", "--samples", "1"]) == 0
    assert main(["probe", "--n", "1", "--rep", "trivial", "--alpha", "1/2,0",
                 "--extra-seeds", "0"]) == 0


@pytest.mark.parametrize("exc,code", [
    (OverflowError("int too large"), 3),
    (AssertionError("witness wedge vanished"), 3),
    (KeyError("h1"), 3),
    (ZeroDivisionError("division by zero"), 3),
    (ValueError("bad input"), 2),
    (OSError("no such file"), 2),
    (json.JSONDecodeError("Expecting value", "{", 1), 2),
])
def test_internal_errors_exit_3(monkeypatch, capsys, exc, code):
    # an exception that is not an input error must not read as a failed check
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "claim1_inequality", boom)
    assert main(["claim1-ineq", "--n-max", "3"]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith(f"internal error: {type(exc).__name__}: ")
    else:
        assert err.startswith("error: ")


def _typed(rep):
    """Action entries and weights with each scalar's type beside its value."""
    action = {label: {pos: (type(v), v) for pos, v in m.entries.items()}
              for label, m in rep.action.items()}
    return action, [[(type(w), w) for w in wt] for wt in rep.weights]


@pytest.mark.parametrize("spec", ["natural", "sym:2", "exterior:2", "fundamental:2"])
def test_loaded_reps_equal_fresh_ones_types_included(spec, tmp_path, monkeypatch):
    alg = build_sp(2, verify=False)
    fresh = build_rep(alg, spec)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(fresh.to_obj()))
    monkeypatch.setattr(cli, "build_rep", None)  # so the file: rep must be read
    loaded = [rep_from_obj(fresh.to_obj()), cli._resolve_rep(alg, f"file:{path}")]
    for rep in loaded:
        assert _typed(rep) == _typed(fresh)
