import importlib.resources as resources
import importlib.util
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import pytest

from skewcover.inputfmt import build_input, parse_input
from skewcover.skew import build_presentation
from skewcover.ar import knit_ar_quiver


def data_text(name: str) -> str:
    return resources.files("skewcover").joinpath(f"data/{name}").read_text()


def golden_text(name: str) -> str:
    return resources.files("skewcover").joinpath(f"data/golden/{name}").read_text()


def load_built(name: str, build_algebra: bool = True):
    return build_input(parse_input(data_text(name)), build_algebra=build_algebra)


GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def generated_text(key: str) -> str:
    """``star3_1`` -> the input text of the Z_3 star with arms of length 1,
    from the benchmark's generator."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    family = "star" if key.startswith("star") else "cover"
    n, length = map(int, key[len(family):].split("_"))
    return gen.generate(family, n, length)


def load_generated(key: str):
    return build_input(parse_input(generated_text(key)))


def workload_generated_keys() -> list[str]:
    """Keys of every generated input the benchmark's workloads run."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", GEN.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    return sorted(workloads.generated_inputs())


@pytest.fixture(scope="session")
def fig5():
    return load_built("fig5.skw")


@pytest.fixture(scope="session")
def fig1():
    return load_built("fig1.skw")


@pytest.fixture(scope="session")
def fig6():
    return load_built("fig6.skw")


@pytest.fixture(scope="session")
def fig2():
    return load_built("fig2.skw")


@pytest.fixture(scope="session")
def kronecker():
    return load_built("kronecker_z3.skw")


@pytest.fixture(scope="session")
def free_a3():
    return load_built("free_action_a3.skw")


@pytest.fixture(scope="session")
def fig5_pres(fig5):
    return build_presentation(fig5.algebra, fig5.group, fig5.action)


@pytest.fixture(scope="session")
def fig1_pres(fig1):
    return build_presentation(fig1.algebra, fig1.group, fig1.action)


@pytest.fixture(scope="session")
def kron_pres(kronecker):
    return build_presentation(kronecker.algebra, kronecker.group, kronecker.action)


@pytest.fixture(scope="session")
def fig5_arq(fig5):
    return knit_ar_quiver(fig5.algebra)


@pytest.fixture(scope="session")
def fig5_skew_arq(fig5_pres):
    return knit_ar_quiver(fig5_pres.algebra)


@pytest.fixture(scope="session")
def fig6_arq(fig6):
    return knit_ar_quiver(fig6.algebra)


# Inputs whose knits pin the decomposition layer: every module they
# decompose and every minimal polynomial they factor, over Lambda and
# Lambda G; the Kronecker algebra is knitted up to dimension 14.
RECORDED_KEYS = ("fig5", "fig6", "free_action_a3", "star3_1", "star2_2",
                 "cover2_4", "kronecker_z3")


@dataclass
class RecordedKnit:
    pres: object                 # the skew presentation of the input
    arq: object                  # None where the knit hit its cap
    decomposed: list = dc_field(default_factory=list)   # modules decomposed
    polynomials: list = dc_field(default_factory=list)  # (F, coefficients)


@pytest.fixture(scope="session")
def recorded_knits():
    """{(key, "base" or "skew"): RecordedKnit} over RECORDED_KEYS, each
    knitted on freshly built algebras, so that no memo hides a split."""
    from skewcover import rep
    from skewcover.ar import CapExceededError
    out, current = {}, [None]
    split, factor = rep._krull_schmidt, rep.factor_poly
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rep, "_krull_schmidt",
                   lambda M: current[0].decomposed.append(M) or split(M))
        mp.setattr(rep, "factor_poly", lambda F, c: current[0].polynomials.append(
            (F, list(c))) or factor(F, c))
        for key in RECORDED_KEYS:
            built = (load_generated(key) if key.startswith(("star", "cover"))
                     else load_built(f"{key}.skw"))
            pres = build_presentation(built.algebra, built.group, built.action)
            for side, alg in (("base", built.algebra), ("skew", pres.algebra)):
                current[0] = out[key, side] = RecordedKnit(pres, None)
                try:
                    out[key, side].arq = knit_ar_quiver(
                        alg, **({"max_dimension": 14} if key == "kronecker_z3" else {}))
                except CapExceededError:
                    pass
    return out
