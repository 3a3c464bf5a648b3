"""Tests for the dense linear-algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nala.errors import ZeroVector
from nala.linalg import nd_decompose


class TestNdDecompose:
    def test_pythagorean_triple(self):
        parts = nd_decompose([3.0, 4.0])
        assert parts.norm == pytest.approx(5.0, abs=1e-15)
        np.testing.assert_allclose(parts.direction, [0.6, 0.8], atol=1e-15)

    def test_unit_vector_fixed_point(self):
        parts = nd_decompose([1.0, 0.0, 0.0])
        assert parts.norm == pytest.approx(1.0, abs=0)
        np.testing.assert_array_equal(parts.direction, [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            nd_decompose([0.0, 0.0])

    @given(
        st.lists(
            st.floats(-1e6, 1e6).filter(lambda v: abs(v) > 1e-3),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_and_unit_direction(self, entries):
        x = np.array(entries)
        parts = nd_decompose(x)
        err = np.abs(parts.norm * parts.direction - x)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(x)))
        assert abs(np.linalg.norm(parts.direction) - 1.0) <= 1e-12
