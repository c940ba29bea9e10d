"""Q_G's arrows from one pass over Lambda's arrows, against the pair loop.

`SkewPresentation._build_arrows` groups the Lambda-arrows into each orbit
representative by the representative of their source's orbit;
`oracle_dense.pair_loop_arrows` takes every ordered pair of
representatives and re-scans all arrows for each.  Both must give the same
arrows in the same order, the same realizing elements and the same
per-orbit arrow data, which `oracle_paper.orbit_arrow_data` recomputes with
the one-pass loop.
"""

import numpy as np
import pytest

from conftest import load_built, load_generated, workload_generated_keys
from oracle_dense import pair_loop_arrows
from oracle_paper import orbit_arrow_data
from skewcover.inputfmt import build_input, parse_input, serialize_presentation
from skewcover.skew import build_presentation

BUNDLED = ["fig1.skw", "fig2.skw", "fig5.skw", "fig6.skw",
           "free_action_a3.skw", "kronecker_z3.skw"]


def zigzag_cover(n: int, length: int) -> str:
    """The free Z_n cover of A_length with alternating orientation."""
    lines = ["field p = 1009"]
    lines += [f"vertex v{k}_{i}" for k in range(n) for i in range(1, length + 1)]
    for k in range(n):
        for i in range(1, length):
            s, t = (i, i + 1) if i % 2 else (i + 1, i)
            lines.append(f"arrow a{k}_{i}: v{k}_{s} -> v{k}_{t}")
    lines.append(f"group Z{n}")
    for k in range(n):
        nk = (k + 1) % n
        lines += [f"action g1: vertex v{k}_{i} -> v{nk}_{i}"
                  for i in range(1, length + 1)]
        lines += [f"action g1: arrow a{k}_{i} -> a{nk}_{i}" for i in range(1, length)]
    return "\n".join(lines) + "\n"


def _assert_same_arrows(built):
    pres = build_presentation(built.algebra, built.group, built.action)
    old = pair_loop_arrows(pres)
    assert pres.arrows == old.arrows
    assert list(pres.elements) == list(old.elements)
    for name, elem in pres.elements.items():
        assert np.array_equal(elem, old.elements[name]), name
    assert list(orbit_arrow_data(pres).items()) == list(old.orbit_arrow_data.items())
    return pres


INPUTS = BUNDLED + workload_generated_keys()


def _load(name: str):
    return load_built(name) if name.endswith(".skw") else load_generated(name)


@pytest.mark.parametrize("name", INPUTS)
def test_arrows_match_pair_loop(name):
    _assert_same_arrows(_load(name))


@pytest.mark.parametrize("name", INPUTS)
def test_arrows_match_pair_loop_double_skew(name):
    """The Lambda G side of `double-skew`: the serialized presentation,
    read back and skewed by the dual group."""
    b = _load(name)
    pres = build_presentation(b.algebra, b.group, b.action)
    _assert_same_arrows(build_input(parse_input(serialize_presentation(pres))))


def test_arrows_match_pair_loop_zigzag_cover():
    pres = _assert_same_arrows(build_input(parse_input(zigzag_cover(3, 30))))
    assert len(pres.arrows) == 29
    assert {ar.case for ar in pres.arrows} == {1}
