import numpy as np
import pytest

from emlab import grids

R_IN = grids.log_grid(1e-6, 1.0, 400)
R_OUT = grids.log_grid(1.0, 1e6, 400)


@pytest.mark.parametrize("coef", [1.0, 0.3 - 2j], ids=["real", "complex"])
class TestSingularIntegral:
    def test_interior_is_lower_tail_plus_cumulative(self, coef):
        f = coef * R_IN**0.5
        oracle = grids.tail_integral(R_IN, f, side="lower") + grids.cumulative_integral(f, R_IN)
        out = grids.singular_integral(f, R_IN, "interior")
        assert np.array_equal(out, oracle)
        np.testing.assert_allclose(out, coef * R_IN**1.5 / 1.5, rtol=1e-6)

    def test_exterior_is_complement_plus_upper_tail(self, coef):
        f = coef * R_OUT**-2.5
        oracle = grids.complement_cumulative(f, R_OUT) + grids.tail_integral(
            R_OUT, f, side="upper")
        out = grids.singular_integral(f, R_OUT, "exterior")
        assert np.array_equal(out, oracle)
        np.testing.assert_allclose(out, coef * R_OUT**-1.5 / 1.5, rtol=1e-6)


def test_singular_integral_rejects_unknown_side():
    with pytest.raises(ValueError, match="side"):
        grids.singular_integral(R_IN, R_IN, "lower")
