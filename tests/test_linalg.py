"""Tests for the exact power-of-two row rescale."""

import numpy as np

from nala.linalg import make_rng, rescale_rows


class TestRescaleRows:
    # row scales from 2**-800 to 2**700: squares and sums of most rows leave the float64 range
    rows = make_rng(3).standard_normal((16, 5)) * np.ldexp(1.0, np.arange(-800, 800, 100))[:, None]

    def test_exact_and_largest_entry_in_half_open_unit(self):
        scaled, e = rescale_rows(self.rows)
        np.testing.assert_array_equal(np.ldexp(scaled, e), self.rows)
        top = np.abs(scaled).max(axis=-1)
        assert np.all((0.5 <= top) & (top < 1.0))

    def test_masked_rows_untouched(self):
        keep = np.arange(16) % 3 != 0
        scaled, e = rescale_rows(self.rows, ~keep[:, None])
        np.testing.assert_array_equal(e[keep], 0)
        np.testing.assert_array_equal(scaled[keep], self.rows[keep])
        np.testing.assert_array_equal(scaled[~keep], rescale_rows(self.rows)[0][~keep])
