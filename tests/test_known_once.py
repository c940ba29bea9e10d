"""Facts a knit reads many times are computed once: each direct sum of
projectives or injectives, and each module's Loewy layers."""

from collections import Counter

import skewcover.ar as ar
from skewcover.ar import ar_quiver_dot, knit_ar_quiver
from skewcover.rep import Representation, decompose

from conftest import load_built


def test_direct_sums_built_once_per_summand_tuple(monkeypatch):
    """A fig6 knit sums each tuple of modules at most once: the toolkit
    keeps its sums of P_v and of I_v per vertex tuple."""
    calls = []
    real = ar._sum_module
    # the recorded lists keep their modules alive, so ids stay distinct
    monkeypatch.setattr(ar, "_sum_module",
                        lambda alg, reps: calls.append(list(reps)) or real(alg, reps))
    knit_ar_quiver(load_built("fig6.skw").algebra)
    counts = Counter(tuple(map(id, reps)) for reps in calls)
    assert len(counts) > 20
    assert max(counts.values()) == 1


def test_loewy_layers_computed_once_per_module(monkeypatch):
    """Knitting, sorting and printing labels twice, and decomposing a
    middle term again, compute each module's Loewy layers at most once;
    the summands rebuilt from the decomposition memo compute none."""
    seen = []
    real = Representation.radical_layers
    monkeypatch.setattr(Representation, "radical_layers",
                        lambda self: seen.append(self) or real(self))
    arq = knit_ar_quiver(load_built("fig5.skw").algebra)
    for _ in range(2):
        ar_quiver_dot(arq)
        [m.label() for m in arq.modules]
    assert seen and max(Counter(map(id, seen)).values()) == 1
    seq = next(s for s in arq.sequences.values() if len(s.middle_summands) > 1)
    seen.clear()
    labels = [s.rep.label() for s in decompose(seq.middle)]
    assert len(labels) > 1 and seen == []
