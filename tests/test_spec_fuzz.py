"""Fuzzing of spec input: it parses or is refused cleanly, never a traceback.

Arbitrary bytes go through ``phelix classify`` on a file, and JSON-shaped
documents built from the spec keys go through ``load_spec``.  A document
either parses or raises ``SpecParseError``; a command exits 0, 1 or 2.
"""

import contextlib
import io
import json

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from phelix import SpecParseError, load_spec
from phelix.cli import main

FORMS = ("quaternion", "bezier-quaternion", "hopf", "hodograph", "curve")
KEYS = ("form", "coefficients", "origin", "z1", "z2", "dx", "dy", "dz", "x", "y", "z")

integers = st.integers(min_value=-1000, max_value=1000)
numbers = st.one_of(
    integers,
    integers.map(str),
    st.tuples(integers, integers).map(lambda nd: f"{nd[0]}/{nd[1]}"),
)
scalars = st.one_of(
    st.none(), st.booleans(), numbers, st.sampled_from(FORMS + KEYS), st.floats(-10, 10)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(KEYS), inner, max_size=4)
    ),
    max_leaves=16,
)
coefficient_lists = st.lists(numbers, max_size=4)
coefficients = st.one_of(
    st.lists(st.lists(numbers, min_size=4, max_size=4), max_size=3),
    st.fixed_dictionaries(
        {"z1": st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=3),
         "z2": st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=3)}
    ),
    st.fixed_dictionaries({"dx": coefficient_lists, "dy": coefficient_lists,
                           "dz": coefficient_lists}),
    st.fixed_dictionaries({"x": coefficient_lists, "y": coefficient_lists,
                           "z": coefficient_lists}),
    json_values,
)
documents = st.one_of(
    st.fixed_dictionaries(
        {"form": st.sampled_from(FORMS), "coefficients": coefficients},
        optional={"origin": st.one_of(st.lists(numbers, min_size=3, max_size=3), json_values)},
    ),
    json_values,
)


@given(documents)
def test_json_document_parses_or_is_refused(doc):
    try:
        load_spec(json.dumps(doc))
    except SpecParseError:
        pass


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=64))
def test_arbitrary_bytes_exit_cleanly(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["classify", str(path)])
    assert code in (0, 1, 2)
