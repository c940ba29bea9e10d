"""Setup in proportion to what a command reads.

An algebra builds its product table on first use, and an action its COO
store: `hom` multiplies nothing and acts with no group element, so it
builds neither.  `skew` builds the tables of Lambda and of Q_G, each once.
"""

from functools import cached_property
import importlib.resources as resources

import pytest

from skewcover import cli
from skewcover.action import QuiverAction
from skewcover.quiver import BoundAlgebra

FIG5 = str(resources.files("skewcover").joinpath("data/fig5.skw"))


@pytest.fixture
def built_tables(monkeypatch):
    """The algebras whose product table is built, once per build, and the
    actions whose store is computed."""
    tables, stores = [], []
    build = BoundAlgebra._build_structure
    entries = QuiverAction.entries.func

    def tracked_build(self):
        tables.append(self)
        return build(self)

    def tracked_entries(self):
        stores.append(self)
        return entries(self)

    prop = cached_property(tracked_entries)
    prop.__set_name__(QuiverAction, "entries")
    monkeypatch.setattr(BoundAlgebra, "_build_structure", tracked_build)
    monkeypatch.setattr(QuiverAction, "entries", prop)
    return tables, stores


def test_hom_builds_no_table(built_tables, capsys):
    tables, stores = built_tables
    assert cli.main(["hom", FIG5, "M_1_2", "N_3_2"]) == 0
    assert "dim: " in capsys.readouterr().out
    assert tables == [] and stores == []


def test_skew_builds_each_table_once(built_tables, capsys, fig5, fig5_pres):
    tables, _ = built_tables
    tables.clear()  # whatever the fixtures built
    assert cli.main(["skew", FIG5]) == 0
    capsys.readouterr()
    assert len({id(alg) for alg in tables}) == len(tables) == 2
    assert [alg.quiver.vertices for alg in tables] == [fig5.quiver.vertices,
                                                       fig5_pres.qg.vertices]
