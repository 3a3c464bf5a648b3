"""Tests for the exact power-of-two row rescale and the row validation."""

import numpy as np
import pytest

from nala.entropy import concavity_probe, pse_of_exp, theorem1_scan
from nala.errors import DimensionMismatch, NonFinite
from nala.gradcheck import finite_diff_jacobian, jac_phi_k, jac_phi_q
from nala.kernels import KernelSpec
from nala.linalg import make_rng, rescale_rows

#: The public callers of linalg.as_rows, each with its other arguments.
ROW_CALLERS = {
    "jac_phi_q": lambda x: jac_phi_q(x, KernelSpec()),
    "jac_phi_k": lambda x: jac_phi_k(x, KernelSpec()),
    "finite_diff_jacobian": lambda x: finite_diff_jacobian(lambda v: v, x),
    "pse_of_exp": lambda x: pse_of_exp(x, 1.0),
    "theorem1_scan": lambda x: theorem1_scan(x, [1.0, 2.0]),
    "concavity_probe": lambda x: concavity_probe(x, 0, [1e-4]),
}


@pytest.mark.parametrize("caller", list(ROW_CALLERS))
class TestRows:
    # one row (d,) or a stack (m, d) of rows, each of at least one finite entry
    @pytest.mark.parametrize("shape", [(), (0,), (2, 0), (2, 2, 2)], ids=str)
    def test_shape_rejected(self, caller, shape):
        with pytest.raises(DimensionMismatch):
            ROW_CALLERS[caller](np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3,), (2, 3)], ids=str)
    def test_non_finite_entry_rejected(self, caller, bad, shape):
        x = np.full(shape, 0.5)
        x[..., 1] = bad
        with pytest.raises(NonFinite):
            ROW_CALLERS[caller](x)


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
