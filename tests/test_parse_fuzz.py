"""Fuzzing the input format: random text spliced into the bundled inputs.

Reading an input must either succeed or refuse it with a `ParseError`, a
`ValueError` or a documented refusal (relations that are not
length-homogeneous, an algebra that is not admissible within the bound);
any other exception is a defect in the reader.
"""

import importlib.resources as resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewcover.inputfmt import ParseError, build_input, parse_input
from skewcover.quiver import InhomogeneousRelationError, NotAdmissibleError

REFUSALS = (ParseError, ValueError, InhomogeneousRelationError,
            NotAdmissibleError)

INPUTS = {path.name: path.read_text()
          for path in resources.files("skewcover").joinpath("data").iterdir()
          if path.name.endswith(".skw")}

# The characters of the format.  Insertions stay short, so a number can grow
# by a few digits at most and no module dimension becomes large enough to
# exhaust memory.
ALPHABET = "abcdgpxyzMNSZ0123456789 \n=->*.+[],{}#:_"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(INPUTS)), data=st.data())
def test_spliced_inputs_parse_or_refuse(name, data):
    text = INPUTS[name]
    start = data.draw(st.integers(0, len(text)), label="start")
    cut = data.draw(st.integers(0, 8), label="cut")
    insert = data.draw(st.text(ALPHABET, max_size=6), label="insert")
    spliced = text[:start] + insert + text[start + cut:]
    try:
        build_input(parse_input(spliced))
    except REFUSALS:
        pass


@pytest.mark.parametrize("literal", ["[[1.5]]", "[[True]]", "[[1e999]]",
                                     "{[]: 1}", "(1, 2)", "[1]"])
def test_matrix_literals_must_be_integer_rows(literal):
    text = INPUTS["fig5.skw"].replace("map c = [[1]]", f"map c = {literal}")
    with pytest.raises(ParseError, match="line 28"):
        parse_input(text)


def test_large_matrix_entries_are_reduced_mod_p():
    big = 10 ** 30
    text = INPUTS["fig5.skw"].replace("map c = [[1]]", f"map c = [[{big}]]")
    rep = build_input(parse_input(text)).modules["N_3_2"]
    assert np.array_equal(rep.maps[2], [[big % 1009]])
