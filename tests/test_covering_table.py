"""`CoveringTable` computes each module's pushdown, stabilizer and twist
classes once; its reports must equal the per-pair check it replaced
(`oracle_covering`) on every pair, and the knit it reads must not ask for
a tau^- it already knows."""

import json

import numpy as np
import pytest

from skewcover import ar, cli, pushdown
from skewcover.ar import knit_ar_quiver
from skewcover.pushdown import CoveringTable, verify_semi_covering
from skewcover.rep import is_isomorphic
from skewcover.skew import build_presentation

from conftest import generated_text, load_built, load_generated
from oracle_covering import PairCoveringTable
from oracle_covering import verify_semi_covering as oracle_semi_covering
from test_module_identity import _base_change


def _load(name):
    if name.startswith(("star", "cover")):
        return load_generated(name)
    return load_built(f"{name}.skw")


def _presentation(built):
    return build_presentation(built.algebra, built.group, built.action)


def _assert_table_matches_oracle(pres, mods):
    table = CoveringTable(pres, mods)
    for i, M in enumerate(mods):
        for j, N in enumerate(mods):
            assert table.report(i, j) == oracle_semi_covering(pres, M, N), (i, j)


@pytest.mark.parametrize("name", ["fig5", "star3_1", "free_action_a3", "cover2_4"])
def test_table_matches_oracle_on_knitted_list(name):
    built = _load(name)
    _assert_table_matches_oracle(_presentation(built),
                                 knit_ar_quiver(built.algebra).modules)


@pytest.mark.parametrize("side", ["base", "skew"])
@pytest.mark.parametrize("name", ["fig5", "fig6", "free_action_a3", "star3_1",
                                  "star2_2", "cover2_4"])
def test_table_matches_per_pair_table_on_both_sides(name, side, monkeypatch):
    """Solving dim Hom(F M, F N) once per pair of G-orbits, carried through
    the gauge, reports what solving it on every pair reports; the skew side
    transports Lambda G with the dual action.  Each module past the first
    of its orbit is tied to it by one checked gauge."""
    built = _load(name)
    pres = _presentation(built)
    if side == "skew":
        pres = build_presentation(pres.algebra, *pres.dual_group_action())
    mods = knit_ar_quiver(pres.context.algebra).modules
    gauges, gauge = [], pushdown.pushdown_twist_gauge
    monkeypatch.setattr(pushdown, "pushdown_twist_gauge",
                        lambda *args, **kw: gauges.append(args) or gauge(*args, **kw))
    table, oracle = CoveringTable(pres, mods), PairCoveringTable(pres, mods)
    for i in range(len(mods)):
        for j in range(len(mods)):
            assert table.report(i, j) == oracle.report(i, j), (i, j)
    orbits = {min(row) for row in table._twists}
    assert len(gauges) == len(mods) - len(orbits)


@pytest.mark.parametrize("name", ["fig5", "kronecker_z3"])
def test_named_modules_match_oracle_with_pattern(name):
    built = _load(name)
    pres = _presentation(built)
    mods = [built.modules[n] for n in sorted(built.modules)]
    _assert_table_matches_oracle(pres, mods)
    for M in mods:
        for N in mods:
            assert (verify_semi_covering(pres, M, N, with_pattern=True)
                    == oracle_semi_covering(pres, M, N, with_pattern=True))


def test_isomorphic_named_modules_share_a_class(fig5, fig5_pres):
    names = sorted(fig5.modules)
    copy = _base_change(fig5.modules["N_3_2"], np.random.default_rng(0))
    mods = [fig5.modules[n] for n in names] + [copy]
    assert not any(np.array_equal(a, b) for a, b in
                   zip(copy.maps, fig5.modules["N_3_2"].maps) if a.size)
    table = CoveringTable(fig5_pres, mods)
    assert table._cls[-1] == table._cls[names.index("N_3_2")]
    _assert_table_matches_oracle(fig5_pres, mods)


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_all_indecomposables_pushes_and_twists_each_module_once(
        monkeypatch, tmp_path, capsys):
    """The table pushes each module once and twists it once per g.  Only
    the table's own twists are counted: the knit also twists, once per
    handled module and g, to build one sequence per G-orbit."""
    path = tmp_path / "star3_1.skw"
    path.write_text(generated_text("star3_1"))
    order = load_generated("star3_1").group.n
    counts = {"pushdown_module": 0, "twist": 0}
    _counting(monkeypatch, pushdown, "pushdown_module", counts)
    _counting(monkeypatch, pushdown, "twist", counts)
    assert cli.main(["--json", "verify-covering", str(path),
                     "--all-indecomposables"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    n = int(round(results["pairs"] ** 0.5))
    assert n * n == results["pairs"] and n > 1 and results["all_match"]
    assert counts == {"pushdown_module": n, "twist": order * n}


@pytest.mark.parametrize("name", ["fig5", "fig6", "free_action_a3"])
def test_knit_skips_known_tau_minus(name, monkeypatch):
    """tau^- is never asked of tau T once T's sequence is built: T is then
    the answer, already in the list."""
    lefts, asked = [], []
    build, tau_minus = ar.almost_split_sequence, ar.ARToolkit.tau_minus

    def recorded(tk, T):
        seq = build(tk, T)
        lefts.append(seq.left)
        return seq

    def checked(tk, M):
        asked.append(M)
        assert not any(X.dims == M.dims and is_isomorphic(X, M) for X in lefts)
        return tau_minus(tk, M)

    monkeypatch.setattr(ar, "almost_split_sequence", recorded)
    monkeypatch.setattr(ar.ARToolkit, "tau_minus", checked)
    arq = knit_ar_quiver(_load(name).algebra)
    assert lefts and asked
    assert len(asked) < arq.injective_flags.count(False)
