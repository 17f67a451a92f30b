"""The JSON writer behind `emit_json` against `json.dumps(obj, indent=2)`."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutlab.report import _json_text

SCALARS = (st.text() | st.integers() | st.integers(-2**200, 2**200)
           | st.floats() | st.booleans() | st.none())
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


@given(VALUES)
@settings(max_examples=500)
@example({"é ∑ 😀": ["\"quoted\"", "back\\slash", "\x00\x1f\x7f\n\t"]})
@example([2**64, -2**100, -0.0, float("nan"), float("inf"), -float("inf")])
@example({"t": True, "f": False, "n": None, "d": {}, "l": [], "u": ()})
@example({"": {"": [[], {}, [[{}]]]}})
def test_writer_matches_json_dumps_indent_2(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)
