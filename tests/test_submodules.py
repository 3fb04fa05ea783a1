"""Closure engine, explicit submodule families, witnesses, probe."""

from fractions import Fraction
from math import comb

import pytest

from hamlie.hamiltonian import GradedVector, ModuleParams, act_H
from hamlie.linalg import Subspace, _IntEchelon, _int_row, nullspace, parse_scalar
from hamlie import submodules
from hamlie.reps import build_rep, contraction_theta
from hamlie.submodules import (
    Box,
    GeneratorSet,
    TruncatedModule,
    _GradeIndex,
    _echelon_grid,
    build_submodule,
    claim1_inequality,
    claim2_witness,
    closure,
    invariance_check,
    irreducibility_probe,
)
from hamlie.symplectic import build_sp

F = Fraction


def _params(n, spec, alpha=None, beta=None):
    alg = build_sp(n, verify=False)
    rep = build_rep(alg, spec)
    N = alg.N
    alpha = alpha or (0,) * N
    beta = beta or (0,) * N
    return ModuleParams(alpha, beta, rep)


def _family(p, box, spaces, kind=None):
    """A family holding the given Subspaces, as the grid of their integer
    echelons."""
    idx = _GradeIndex(box.radius, box.N)
    return TruncatedModule(p, box, kind=kind, grid=_echelon_grid(box.count(), p.rep.dim, {
        idx.encode_one(g): _IntEchelon.of_rows(s.ambient_dim, map(_int_row, s.basis))
        for g, s in spaces.items()}))


def test_box_and_gens():
    box = Box(2, 2)
    assert box.count() == 25
    assert box.contains((2, -2)) and not box.contains((3, 0))
    gens = GeneratorSet(1, 2)
    assert gens.count() == 8
    assert (0, 0) not in set(gens.vectors())
    for radius, N in [(1, 1), (1, 4), (2, 3), (3, 2)]:
        gens = GeneratorSet(radius, N)
        listed = list(gens.vectors())
        assert listed == sorted(listed)
        assert [gens.vector(i) for i in range(gens.count())] == listed


def test_closure_empty_seeds():
    p = _params(1, "natural")
    fam = closure([], p, Box(2, 2), GeneratorSet(1, 2))
    assert all(fam.space(g).is_zero() for g in fam.box.grades())


def test_closure_trivial_integral_line():
    # trivial rep, integral alpha, seed at grade -alpha: the line never moves
    p = _params(1, "trivial", alpha=(1, 0))
    seed = GradedVector((-1, 0), (1,))
    fam = closure([seed], p, Box(2, 2), GeneratorSet(2, 2))
    for g in fam.box.grades():
        want = 1 if g == (-1, 0) else 0
        assert fam.space(g).dim == want


def test_closure_trivial_nonintegral_full():
    p = _params(1, "trivial", alpha=(F(1, 2), 0))
    fam = closure([GradedVector((0, 0), (1,))], p, Box(3, 2), GeneratorSet(2, 2))
    inner = [g for g in fam.box.grades() if all(abs(x) <= 1 for x in g)]
    assert all(fam.space(g).is_full() for g in inner)


def test_closure_seed_outside_box():
    p = _params(1, "natural")
    with pytest.raises(ValueError):
        closure([GradedVector((5, 0), (1, 0))], p, Box(2, 2), GeneratorSet(1, 2))


def test_invariance_trivial_families():
    p = _params(1, "natural")
    box = Box(2, 2)
    gens = GeneratorSet(1, 2)
    zero = _family(p, box, {g: Subspace.zero(2) for g in box.grades()})
    assert invariance_check(zero, gens, method="enumerate")["failures"] == []
    full = _family(p, box, {g: Subspace.full(2) for g in box.grades()})
    assert invariance_check(full, gens, method="enumerate")["failures"] == []


def test_build_trivial_line():
    p = _params(1, "trivial", alpha=(1, 0))
    fam = build_submodule("trivial_line", p, Box(2, 2))
    assert fam.space((-1, 0)).dim == 1
    assert sum(fam.space(g).dim for g in fam.box.grades()) == 1


def test_build_delta1_hand_check():
    # grade 0 space is span{alpha}; H_(1,0) lands in span{(1,0)+alpha}
    p = _params(1, "natural", alpha=(F(1, 2), F(1, 2)))
    fam = build_submodule("delta1", p, Box(2, 2))
    assert fam.space((0, 0)) == Subspace.from_vectors([(F(1, 2), F(1, 2))], 2)
    out = act_H((1, 0), GradedVector((0, 0), (F(1, 2), F(1, 2))), p)
    assert out.payload == (F(-3, 4), F(-1, 4))
    assert fam.space((1, 0)).contains(out.payload)


def test_delta1_closed_form_action():
    from hamlie.symplectic import bar, pairing

    p = _params(2, "natural", alpha=(F(1, 3), 0, 0, 0))
    fam = build_submodule("delta1", p, Box(2, 4))
    s = (1, 0, -1, 1)
    for g in [(0, 0, 0, 0), (1, -1, 0, 1)]:
        v = tuple(F(a) + b for a, b in zip(g, p.alpha))
        out = act_H(s, GradedVector(g, v), p)
        c = pairing(bar(s), v)
        tgt = tuple(F(a) + b + d for a, b, d in zip(g, p.alpha, s))
        assert out.payload == tuple(c * t for t in tgt)


def test_build_deltak_dims():
    p = _params(2, "fundamental:2", alpha=(F(1, 3), 0, 0, 0))
    fam = build_submodule("deltak", p, Box(2, 4))
    for g in fam.box.grades():
        d = fam.space(g).dim
        assert 1 <= d <= 4


def test_build_kind_mismatch():
    p = _params(1, "natural")
    with pytest.raises(ValueError):
        build_submodule("trivial_line", p, Box(2, 2))
    with pytest.raises(ValueError):
        build_submodule("deltak", p, Box(2, 2))
    # -alpha outside the box: an empty family would pass every check
    with pytest.raises(ValueError):
        build_submodule("trivial_line", _params(1, "trivial", alpha=(5, 0)), Box(1, 2))


def test_invariance_methods_agree():
    p = _params(2, "fundamental:2", alpha=(1, 0, 0, 0))
    fam = build_submodule("deltak", p, Box(2, 4))
    gens = GeneratorSet(1, 4)
    a = invariance_check(fam, gens, method="certificate")
    b = invariance_check(fam, gens, method="enumerate")
    assert a["failures"] == [] and b["failures"] == []
    assert a["pairs"] == b["pairs"]


# the identity keys of each certificate report, in report order; renaming
# one changes the report bytes
CERTIFICATE_IDENTITIES = {
    "trivial_line": ["rep_acts_by_zero", "scalar_vanishes", "spot_checks"],
    "delta1": ["line_identity", "rank_one_expansion", "rho_matches_rank_one", "spot_checks"],
    "deltak": ["I1", "I2", "S1", "kernel_embedding", "rank_one_expansion",
               "rho_factorization", "spot_checks", "theta_equivariant"],
}


@pytest.mark.parametrize("kind,spec,alpha", [
    ("trivial_line", "trivial", (1, 0, 0, 0)),
    ("delta1", "natural", (F(1, 3), 0, 0, 0)),
    ("deltak", "fundamental:2", (F(1, 3), 0, 0, 0)),
])
def test_certificate_report_schema(kind, spec, alpha):
    fam = build_submodule(kind, _params(2, spec, alpha=alpha), Box(2, 4))
    report = invariance_check(fam, GeneratorSet(1, 4), method="certificate")
    assert list(report["identities"]) == CERTIFICATE_IDENTITIES[kind]
    assert all(v is True for v in report["identities"].values())
    assert report["failures"] == [] and report["passes"] == report["pairs"] > 0


def _deltak_identities(n, k):
    fam = build_submodule("deltak", _params(n, f"fundamental:{k}"), Box(1, 2 * n))
    return invariance_check(fam, GeneratorSet(1, 2 * n), method="certificate",
                            spot_samples=1)["identities"]


WEDGE_CASES = [(2, 2), (3, 2), (3, 3)]


def test_certificate_catches_misplaced_trivial_line():
    # the line at grade 0, not at -alpha: H_r scales it by (bar r, alpha),
    # which is nonzero for some r, so the family is not invariant
    p = _params(2, "trivial", alpha=(1, 0, 0, 0))
    box, gens = Box(2, 4), GeneratorSet(1, 4)
    fam = _family(p, box, {(0,) * 4: Subspace.from_vectors([[1]], 1)}, kind="trivial_line")
    report = invariance_check(fam, gens, method="certificate")
    assert report["identities"]["scalar_vanishes"] is False
    assert report["passes"] == 0
    assert {"identity": "scalar_vanishes"} in report["failures"]
    enumerated = invariance_check(fam, gens, method="enumerate")
    assert enumerated["pairs"] - enumerated["passes"] == 54


@pytest.mark.parametrize("n,k", WEDGE_CASES)
def test_certificate_identities_hold(n, k):
    assert all(_deltak_identities(n, k).values())


@pytest.mark.parametrize("n,k", WEDGE_CASES)
def test_certificate_catches_doubled_interior(n, k, monkeypatch):
    interior = submodules.interior_matrix
    monkeypatch.setattr(submodules, "interior_matrix", lambda *a: interior(*a).scale(2))
    ids = _deltak_identities(n, k)
    assert not ids["I1"] and not ids["S1"] and ids["I2"]


@pytest.mark.parametrize("n,k", WEDGE_CASES)
def test_certificate_catches_symmetric_bar(n, k, monkeypatch):
    # bar(e_b) = +e_j for every b: a symmetric form in place of the symplectic one
    sign_index = submodules._bar_sign_index
    monkeypatch.setattr(submodules, "_bar_sign_index", lambda b, n: (1, sign_index(b, n)[1]))
    assert not _deltak_identities(n, k)["I1"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_catches_unhalved_diagonal_polarization(n, monkeypatch):
    # C_aa = sym_outer(e_a, e_a) without its factor 1/2
    assert submodules._certificate_rank_one_expansion(n)
    polarization = submodules.polarization
    monkeypatch.setattr(submodules, "polarization",
                        lambda N, a, b: polarization(N, a, b).scale(2 if a == b else 1))
    assert not submodules._certificate_rank_one_expansion(n)


def test_claim2_hand_example():
    # r+alpha = e1: constraints w1 = w3 = 0, witness proportional to e1 ^ w
    p = _params(2, "fundamental:2", alpha=(0,) * 4)
    w = claim2_witness(p, (1, 0, 0, 0), 2)
    alg = build_sp(2, verify=False)
    theta = contraction_theta(alg, 2)
    assert any(w)
    assert all(v == 0 for v in theta.matrix.matvec(w))
    # wedge factor must avoid e1 and e3 slots: no components pairing them
    labels = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    nz = {labels[i] for i, v in enumerate(w) if v != 0}
    assert nz <= {(0, 1), (0, 3)}


def test_claim2_k1():
    p = _params(2, "natural", alpha=(F(1, 2), 0, 0, 0))
    w = claim2_witness(p, (1, 1, 0, 0), 1)
    assert tuple(w) == (F(3, 2), F(1), F(0), F(0))


def test_claim2_rejects_zero():
    p = _params(2, "fundamental:2", alpha=(-1, 0, 0, 0))
    with pytest.raises(ValueError):
        claim2_witness(p, (1, 0, 0, 0), 2)


def test_claim1_small_values():
    report = claim1_inequality(3)
    assert report["failures"] == []
    by_nk = {(e["n"], e["k"]): e for e in report["entries"]}
    assert by_nk[(2, 2)]["dim"] == 5 and by_nk[(2, 2)]["bound"] == 3
    assert by_nk[(3, 3)]["dim"] == 14 and by_nk[(3, 3)]["bound"] == 10


def test_probe_trivial_integral_proper():
    p = _params(1, "trivial", alpha=(1, 1))
    report = irreducibility_probe(p, Box(3, 2), GeneratorSet(2, 2))
    assert report["verdict"] == "PROPER"
    # closures of the seeds fill the line at every grade except -alpha,
    # which never receives anything: (bar r, s + alpha) = 0 when s + r = -alpha
    spaces = report["detected_family"]["spaces"]
    nonzero = {g for g, rows in spaces.items() if rows}
    assert "-1,-1" not in nonzero
    assert len(nonzero) == 7 * 7 - 1


def test_probe_rechecks_on_its_own_action_table(monkeypatch):
    # the PROPER re-checks reuse the probe's closure engine: one table per probe
    from hamlie import submodules

    built = []
    table = submodules._ActionTable
    monkeypatch.setattr(submodules, "_ActionTable", lambda *a: built.append(a) or table(*a))
    report = irreducibility_probe(_params(1, "trivial", alpha=(1, 1)), Box(3, 2),
                                  GeneratorSet(2, 2))
    assert report["verdict"] == "PROPER"
    assert len(built) == 1


# One argv per benchmark shape that runs an enumeration, with the walk it
# must take: the grid where a generator's in-box rows fill half a sweep
# chunk or the residuals pass int64 (q = 2^31-1 and 2^61-1), the sweep for
# one-row families and n=1 probe closures
_ENUM = ["--method", "enumerate"]
WALK_SHAPES = [
    (["submodule-check", "deltak", "--n", "2", "--rep", "fundamental:2", "--alpha=1/3,0,0,0",
      "--box", "2", "--gens", "2"] + _ENUM, True),
    (["submodule-check", "delta1", "--n", "2", "--rep", "natural", "--alpha=0,-2/7,0,0",
      "--box", "2", "--gens", "1"] + _ENUM, True),
    (["submodule-check", "delta1", "--n", "3", "--rep", "natural", "--alpha=0,0,0,5/3,0,0",
      "--box", "1", "--gens", "1"] + _ENUM, True),
    (["probe", "--n", "2", "--rep", "natural", "--alpha=0,0,-2/5,0", "--box", "2",
      "--gens", "1"], True),
    (["submodule-check", "trivial_line", "--n", "2", "--rep", "trivial", "--alpha=0,-1,0,0",
      "--box", "3", "--gens", "1"] + _ENUM, False),
    (["submodule-check", "trivial_line", "--n", "3", "--rep", "trivial",
      "--alpha=0,0,0,0,1,0", "--box", "1", "--gens", "1"] + _ENUM, False),
    (["submodule-check", "trivial_line", "--n", "3", "--rep", "trivial",
      "--alpha=0,0,-1,0,0,0", "--box", "2", "--gens", "1"] + _ENUM, False),
    (["probe", "--n", "1", "--rep", "natural", "--alpha=-3/7,0", "--box", "6", "--gens", "2"],
     False),
    (["probe", "--n", "1", "--rep", "natural", "--alpha=0,-17/2147483647", "--box", "6",
      "--gens", "2"], True),
    (["submodule-check", "delta1", "--n", "2", "--rep", "natural",
      "--alpha=0,-2/2305843009213693951,0,0", "--box", "2", "--gens", "1"] + _ENUM, True),
    (["probe", "--n", "1", "--rep", "natural", "--alpha=5/2305843009213693951,0", "--box", "3",
      "--gens", "1"], True),
]


@pytest.mark.parametrize("argv,grid", WALK_SHAPES)
def test_enumeration_walk_of_each_bench_shape(monkeypatch, capsys, argv, grid):
    from hamlie import cli

    taken = []
    choose = submodules._takes_grid
    monkeypatch.setattr(submodules, "_takes_grid", lambda *a: taken.append(choose(*a)) or taken[-1])
    cli.main(argv)
    assert taken and set(taken) == {grid}


def _spy_probe_work(monkeypatch) -> dict:
    """Counts of closures (transports, guided runs and exact runs) and
    enumeration re-checks."""
    from hamlie import submodules

    counts = {"closures": 0, "recheck": 0}
    recheck = submodules._enumerate_invariance

    def closure_spy(method):
        def spy(self, *a, **k):
            counts["closures"] += 1
            return method(self, *a, **k)
        return spy

    def recheck_spy(*a, **k):
        counts["recheck"] += 1
        return recheck(*a, **k)

    for name in ("transport", "guided_run", "run"):
        monkeypatch.setattr(submodules._ClosureEngine, name,
                            closure_spy(getattr(submodules._ClosureEngine, name)))
    monkeypatch.setattr(submodules, "_enumerate_invariance", recheck_spy)
    return counts


def test_probe_closes_a_line_once(monkeypatch):
    # trivial V has dimension 1, so every seed is a multiple of every other
    counts = _spy_probe_work(monkeypatch)
    for n, alpha in [(1, (1, 1)), (2, (1, 0, -1, 0))]:
        counts.update(closures=0, recheck=0)
        report = irreducibility_probe(_params(n, "trivial", alpha=alpha), Box(2, 2 * n),
                                      GeneratorSet(1, 2 * n))
        assert report["verdict"] == "PROPER"
        assert len(report["seeds"]) == 5
        assert counts == {"closures": 1, "recheck": 1}


def test_probe_rechecks_each_family_once(monkeypatch):
    counts = _spy_probe_work(monkeypatch)
    p = _params(1, "natural", alpha=(F(-3, 7), 0))
    report = irreducibility_probe(p, Box(6, 2), GeneratorSet(2, 2))
    assert report["verdict"] == "PROPER"
    not_full = [e for e in report["seeds"] if not e["full_on_inner"]]
    assert [e["seed"] for e in not_full] == ["basis:0", "random:1"]
    assert all(e["invariant"] for e in not_full)
    assert not_full[0]["inner_dims"] == not_full[1]["inner_dims"]
    assert counts == {"closures": 1, "recheck": 1}
    # distinct seeds whose closures coincide share one closure and one
    # re-check: basis:3 lies at grade 0 in basis:1's family, and its grade-0
    # rank reaches that family's dimension there
    counts.update(closures=0, recheck=0)
    p = _params(2, "natural", alpha=(F(1, 3), 0, 0, 0))
    report = irreducibility_probe(p, Box(2, 4), GeneratorSet(1, 4))
    assert report["verdict"] == "PROPER"
    not_full = [e for e in report["seeds"] if not e["full_on_inner"]]
    assert [e["seed"] for e in not_full] == ["basis:0", "basis:1", "basis:3"]
    assert not_full[1]["inner_dims"] == not_full[2]["inner_dims"]
    assert counts == {"closures": 2, "recheck": 2}


def test_seed_key_is_the_line():
    from hamlie.submodules import _seed_key

    def key(*payload):
        return _seed_key(GradedVector((0, 0), tuple(F(x) for x in payload)))

    assert key(1, 1) == key(3, 3) == key(-1, -1) == key(F(1, 2), F(1, 2))
    assert key(0, -2) == key(0, 5)
    # the same support, another line
    assert key(1, 1) != key(1, 2) != key(1, -2)
    assert _seed_key(GradedVector((1, 0), (F(1), F(1)))) != key(1, 1)


def test_family_key_is_the_family():
    from hamlie.submodules import _family_key

    def family(*rows):
        ech = _IntEchelon(2)
        for row in rows:
            ech.insert(row)
        return _echelon_grid(1, 2, {0: ech})

    assert _family_key(family((1, 0))) == _family_key(family((-3, 0)))
    assert _family_key(family((1, 1), (1, 2))) == _family_key(family((0, 5), (2, 0)))
    # equal dimensions, another family
    assert _family_key(family((1, 0))) != _family_key(family((0, 1)))


def test_probe_deterministic():
    import json

    p = _params(1, "natural", alpha=(F(1, 2), 0))
    a = irreducibility_probe(p, Box(3, 2), GeneratorSet(2, 2))
    b = irreducibility_probe(p, Box(3, 2), GeneratorSet(2, 2))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_family_serialization():
    p = _params(1, "natural", alpha=(F(1, 2), F(1, 2)))
    fam = build_submodule("delta1", p, Box(1, 2))
    obj = fam.to_obj()
    assert obj["box_radius"] == 1
    rows = obj["spaces"]["0,0"]
    assert [[parse_scalar(x) for x in row] for row in rows] == [[F(1), F(1)]]
