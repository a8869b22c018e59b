"""Text emitters: a 2-D float array prints as its ``tolist()`` does."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from epsdelta import EpsDeltaError
from epsdelta.serialize import csv_text, json_text

TABLES = {
    "signed-zeros": [[0.0, -0.0], [-0.0, 0.0]],
    "subnormals": [[5e-324, -5e-324], [2.2250738585072009e-308, -1e-310]],
    "largest": [[1e308, -1e308], [1.7976931348623157e308, -1.7976931348623157e308]],
    "one-row": [[0.1, 1.0 / 3.0]],
    "three-columns": [[1.0, 2.5, -7.0], [1e-17, 123456789.0, 0.30000000000000004]],
}


def documents(a):
    """The array in each place an emitter meets it, and the same with its list."""
    return [(doc(a), doc(a.tolist()))
            for doc in (lambda t: t, lambda t: {"points": t}, lambda t: [{"a": {"b": t}}, 1.5])]


def assert_prints_as_list(a):
    for doc, listed in documents(a):
        assert json_text(doc) == json_text(listed)
    header = [f"c{k}" for k in range(a.shape[1])]
    assert csv_text(header, a) == csv_text(header, a.tolist())


@pytest.mark.parametrize("rows", TABLES.values(), ids=TABLES)
def test_table_prints_as_its_list(rows):
    assert_prints_as_list(np.array(rows, dtype=np.float64))


def test_envelope_sized_table():
    rng = np.random.default_rng(7)
    a = np.column_stack((np.linspace(0.0, 1.0, 2 ** 14), rng.standard_normal(2 ** 14)))
    assert_prints_as_list(a)


@pytest.mark.parametrize("shape", [(0, 2), (3, 0), (4,)])
def test_empty_and_flat_arrays_print_as_their_lists(shape):
    a = np.arange(float(np.prod(shape))).reshape(shape)
    for doc, listed in documents(a):
        assert json_text(doc) == json_text(listed)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_any_finite_table_prints_as_its_list(a):
    assert_prints_as_list(a)


@pytest.mark.parametrize(
    "rows, shown",
    [([[1.0, np.inf], [np.nan, 2.0]], "inf"), ([[1.0, 2.0], [-np.inf, np.nan]], "-inf"),
     ([[np.nan, -np.inf]], "nan"), ([[0.0, 1.0], [2.0, -np.nan]], "nan")],
)
def test_json_refuses_the_first_non_finite_value(rows, shown):
    a = np.array(rows)
    for doc, listed in documents(a):
        messages = []
        for d in (doc, listed):
            with pytest.raises(EpsDeltaError) as info:
                json_text(d)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"JSON cannot hold the value {shown}; use --output csv"
    # CSV has no such limit
    assert csv_text(["x", "g"], a) == csv_text(["x", "g"], a.tolist())


def test_json_prints_an_empty_dict_inside_a_dict():
    assert json_text({"a": {}}) == '{\n  "a": {}\n}'


def test_json_refuses_an_object_it_has_no_form_for():
    with pytest.raises(TypeError, match="cannot serialize object"):
        json_text(object())
