"""Property test of ``core.integers_in``, the reader of integer tables."""

import math

import numpy as np
import pytest

from mixlab.core import integer_array, integers_in
from mixlab.errors import MixingLabError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ENTRIES = st.one_of(
    st.integers(-3, 12), st.booleans(), st.just(np.True_), st.just(2**64),
    st.floats(-3, 12), st.sampled_from([0.5, 2.0, math.nan, math.inf]))


@st.composite
def tables(draw):
    """(values, ndim): a 1-d or 2-d table as nested lists or an ndarray."""
    ndim = draw(st.sampled_from([1, 2]))
    width = draw(st.integers(0, 4))
    row = st.lists(ENTRIES, min_size=width, max_size=width)
    values = (draw(row) if ndim == 1
              else draw(st.lists(row, min_size=1, max_size=3)))
    if draw(st.booleans()):
        values = np.array(values)
    return values, ndim


def _flat(values, ndim):
    if isinstance(values, np.ndarray):
        return values.ravel()
    return values if ndim == 1 else [v for row in values for v in row]


def _expected(values, ndim, low, high):
    """The entries as Python ints when every one is an integer, not a
    bool, in [low, high) and in the int64 range; else None.  An ndarray
    holds what numpy made of the entries: bools and ints make an int64
    array, and bools alone a bool array."""
    entries = _flat(values, ndim)
    if isinstance(values, np.ndarray):
        entries = entries.tolist()
    out = []
    for v in entries:
        if isinstance(v, (bool, np.bool_)):
            return None
        if isinstance(v, float):
            if not v.is_integer():
                return None
            v = int(v)
        if not (low <= v < high and -2**63 <= v < 2**63):
            return None
        out.append(v)
    return out


@settings(max_examples=400, deadline=None)
@given(tables(), st.integers(0, 1), st.sampled_from([1, 5, 12, math.inf]))
def test_integers_in_accepts_exactly_the_integer_tables_in_range(
        table, low, high):
    values, ndim = table
    want = _expected(values, ndim, low, high)
    if want is None:
        with pytest.raises(MixingLabError):
            integers_in(values, low, high, "x", ndim=ndim)
        return
    got = integers_in(values, low, high, "x", ndim=ndim)
    assert got.ndim == ndim and got.shape == np.shape(values)
    assert got.ravel().tolist() == want
    assert want == integer_array(_flat(values, ndim), "x").tolist()
