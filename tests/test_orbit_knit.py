"""A knit given the group action builds one almost split sequence and one
tau^- per G-orbit of classes, and twists the rest (`ar.twisted_sequence`).
It must knit the same quiver as the plain knit, on Lambda with its action
and on Lambda G with the dual action, and every sequence it twists must be
almost split."""

import functools

import pytest

from skewcover import ar, cli
from skewcover.action import validate_action
from skewcover.ar import category_rank, knit_ar_quiver
from skewcover.inputfmt import build_input, parse_input
from skewcover.rep import (IsoClasses, Representation, decompose,
                           is_indecomposable, twist)
from skewcover.skew import build_presentation

from conftest import load_built, load_generated
from oracle_paper import verify_almost_split

INPUTS = ("fig5", "fig6", "free_action_a3", "star3_1", "star2_2", "cover2_4")
CASES = [(key, side) for key in INPUTS for side in ("base", "skew")]


@functools.cache
def _algebra(key: str, side: str):
    """(algebra, validated action) of Lambda, or of Lambda G with the dual
    action."""
    built = (load_generated(key) if key.startswith(("star", "cover"))
             else load_built(f"{key}.skw"))
    pres = build_presentation(built.algebra, built.group, built.action)
    if side == "base":
        return built.algebra, pres.context.action
    return pres.algebra, pres.dual_group_action()[1]


@functools.cache
def _knits(key: str, side: str):
    """(plain knit, orbit knit, counts of the orbit knit's calls, the
    sequences it twisted)."""
    alg, action = _algebra(key, side)
    plain = knit_ar_quiver(alg)
    counts, twisted = {"almost_split_sequence": 0, "tau_minus": 0}, []
    build, tau_minus, transport = (ar.almost_split_sequence, ar.ARToolkit.tau_minus,
                                   ar.twisted_sequence)

    def counted(original, name):
        def call(*args):
            counts[name] += 1
            return original(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ar, "almost_split_sequence", counted(build, "almost_split_sequence"))
        mp.setattr(ar.ARToolkit, "tau_minus", counted(tau_minus, "tau_minus"))
        mp.setattr(ar, "twisted_sequence",
                   lambda *args: twisted.append(transport(*args)) or twisted[-1])
        orbit = knit_ar_quiver(alg, action=action)
    return plain, orbit, counts, twisted


def _orbits(arq, action, flags) -> int:
    """The number of G-orbits of the classes i of `arq` with not flags[i]."""
    classes = IsoClasses(arq.modules)
    return len({frozenset(classes.index(twist(action, g, M))
                          for g in action.group.elements)
                for M, flag in zip(arq.modules, flags) if not flag})


def _middles(arq):
    return {t: sorted(arq.calc.index_of(s.rep) for s in seq.middle_summands)
            for t, seq in arq.sequences.items()}


@pytest.mark.parametrize("key,side", CASES)
def test_orbit_knit_gives_the_plain_quiver(key, side):
    plain, orbit, _, _ = _knits(key, side)
    assert ([(M.dims, M.label()) for M in orbit.modules]
            == [(M.dims, M.label()) for M in plain.modules])
    assert orbit.arrows == plain.arrows
    assert orbit.tau_map == plain.tau_map
    assert orbit.projective_flags == plain.projective_flags
    assert orbit.injective_flags == plain.injective_flags
    assert _middles(orbit) == _middles(plain)
    assert category_rank(orbit) == category_rank(plain)


@pytest.mark.parametrize("key,side", CASES)
def test_meshes_read_off_tau_map_and_arrows(key, side):
    """`transport.pushdown_sequence` reads a knitted mesh ending at t off
    the quiver: its left term is the class tau_map[t], and its middle
    classes are the arrows into t, with their multiplicities."""
    _, orbit, _, _ = _knits(key, side)
    middles = _middles(orbit)
    for t, seq in orbit.sequences.items():
        assert orbit.tau_map[t] == orbit.calc.index_of(seq.left)
        assert sorted(x for (x, y), mult in orbit.arrows.items() if y == t
                      for _ in range(mult)) == middles[t]


@pytest.mark.parametrize("key,side", CASES)
def test_one_sequence_and_one_tau_minus_per_orbit(key, side):
    plain, orbit, counts, twisted = _knits(key, side)
    action = _algebra(key, side)[1]
    sequences = _orbits(plain, action, plain.projective_flags)
    assert counts["almost_split_sequence"] == sequences
    assert counts["almost_split_sequence"] + len(twisted) == len(plain.sequences)
    assert counts["tau_minus"] <= _orbits(plain, action, plain.injective_flags)


def test_orbit_knit_halves_the_sequences_where_g_acts_freely():
    """Figures quoted for the per-orbit knit: Z_3 on the star with arms of
    length 1 on both sides, and Z_2 on two copies of A_4."""
    assert [_knits("star3_1", s)[2]["almost_split_sequence"] for s in ("base", "skew")] == [4, 4]
    assert [len(_knits("star3_1", s)[0].sequences) for s in ("base", "skew")] == [8, 8]
    assert _knits("cover2_4", "base")[2]["almost_split_sequence"] == 6
    assert len(_knits("cover2_4", "base")[0].sequences) == 12


@pytest.mark.parametrize("key,side", CASES)
def test_twisted_sequences_are_almost_split(key, side):
    _, orbit, _, twisted = _knits(key, side)
    for seq in twisted:
        assert any(s is seq for s in orbit.sequences.values())
        assert verify_almost_split(seq, orbit.modules, orbit.calc)


@pytest.mark.parametrize("key,side", CASES)
def test_twists_carry_loewy_layers_and_indecomposability(key, side):
    """A twist of a knitted module reads its Loewy layers off the module's,
    permuted by g, and is recorded as indecomposable: a module of the same
    content built from scratch must compute the same layers and certify
    itself indecomposable."""
    alg, action = _algebra(key, side)
    for M in _knits(key, side)[0].modules:
        M.label()
        for g in action.group.elements:
            gM = twist(action, g, M, indecomposable=True)
            assert "_layers" in gM.__dict__
            assert [s.rep for s in decompose(gM)] == [gM]
            fresh = Representation(alg, gM.dims, gM.maps)
            assert fresh.label() == gM.label() and is_indecomposable(fresh)


SQUARE = """field p = 1009
vertex 1
vertex 2
vertex 3
vertex 4
arrow a: 1 -> 2
arrow b: 2 -> 4
arrow c: 1 -> 3
arrow d: 3 -> 4
relation 1*b.a + -1*d.c
group Z2
action g1: vertex 2 -> 3
action g1: vertex 3 -> 2
action g1: arrow a -> {}*c
action g1: arrow c -> {}*a
action g1: arrow b -> d
action g1: arrow d -> b
"""


def _rank_stdout(text, tmp_path, capsys):
    path = tmp_path / "square.skw"
    path.write_text(text)
    assert cli.main(["rank", str(path)]) == 0
    return capsys.readouterr().out


def test_rank_ignores_an_action_that_breaks_a_relation(tmp_path, capsys, monkeypatch):
    """g(a) = 2c and g(c) = a/2 has order 2 but sends b.a - d.c to
    2 d.c - b.a/2, outside the ideal: `rank` must knit as without it."""
    broken, valid = SQUARE.format(2, pow(2, -1, 1009)), SQUARE.format(1, 1)
    built = build_input(parse_input(broken))
    report = validate_action(built.algebra, built.group, built.action)
    assert [i.check for i in report.issues] == ["relations-preserved"]
    built = build_input(parse_input(valid))
    assert cli._valid_action(built) is built.action
    seen, real = [], cli.knit_ar_quiver
    monkeypatch.setattr(cli, "knit_ar_quiver",
                        lambda alg, **kw: seen.append(kw["action"]) or real(alg, **kw))
    out = _rank_stdout(broken, tmp_path, capsys)
    with_valid = _rank_stdout(valid, tmp_path, capsys)
    assert seen[0] is None and seen[1] is not None
    monkeypatch.setattr(cli, "_valid_action", lambda built: None)
    assert _rank_stdout(broken, tmp_path, capsys) == out
    # the two inputs differ only in the action, so only the digest line differs
    assert with_valid.splitlines()[2:] == out.splitlines()[2:]
    assert "rank: " in out
