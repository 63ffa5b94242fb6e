import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from emlab import grids

R_IN = grids.log_grid(1e-6, 1.0, 400)
R_OUT = grids.log_grid(1.0, 1e6, 400)


def scipy_cumulative(g, x):
    """scipy's cumulative Simpson, the real and imaginary parts apart: the
    oldest admitted scipy takes real input only."""
    out = cumulative_simpson(g.real, x=x, initial=0.0)
    if np.iscomplexobj(g):
        out = out + 1j * cumulative_simpson(g.imag, x=x, initial=0.0)
    return out


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 100, 101, 2400, 3000, 3001, 9000])
    @pytest.mark.parametrize("kind", ["real", "complex", "stacked"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["increasing", "reversed"])
    def test_matches_scipy_bit_for_bit(self, n, kind, reverse):
        rng = np.random.default_rng(n)
        x = np.log(grids.log_grid(1e-8, 1.0, n))
        if reverse:
            x = -x[::-1]
        shape = (8, n) if kind == "stacked" else (n,)
        g = rng.standard_normal(shape)
        if kind != "real":
            g = g + 1j * rng.standard_normal(shape)
        got = grids._cumulative_simpson(g, x)
        want = np.stack([scipy_cumulative(row, x) for row in g]) if g.ndim == 2 \
            else scipy_cumulative(g, x)
        assert got.dtype == want.dtype
        assert np.array_equal(got.real, want.real)
        assert np.array_equal(got.imag, want.imag)

    def test_rejects_fewer_than_three_nodes(self):
        with pytest.raises(ValueError, match="3 nodes"):
            grids._cumulative_simpson(np.ones(2), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]],
                             ids=["repeated", "decreasing"])
    def test_rejects_x_not_strictly_increasing(self, x):
        with pytest.raises(ValueError, match="strictly increasing"):
            grids._cumulative_simpson(np.ones(4), np.array(x))


@pytest.mark.parametrize("coef", [1.0, 0.3 - 2j], ids=["real", "complex"])
class TestSingularIntegral:
    def test_interior_is_lower_tail_plus_cumulative(self, coef):
        f = coef * R_IN**0.5
        cum = scipy_cumulative(f * R_IN, np.log(R_IN))
        out = grids.singular_integral(f, R_IN, "interior")
        # the tail below r[0] is what is left at the first node
        assert np.array_equal(out, out[0] + cum)
        np.testing.assert_allclose(out, coef * R_IN**1.5 / 1.5, rtol=1e-6)

    def test_exterior_is_complement_plus_upper_tail(self, coef):
        f = coef * R_OUT**-2.5
        complement = scipy_cumulative((f * R_OUT)[::-1], -np.log(R_OUT)[::-1])[::-1]
        out = grids.singular_integral(f, R_OUT, "exterior")
        # the tail above r[-1] is what is left at the last node
        assert np.array_equal(out, complement + out[-1])
        np.testing.assert_allclose(out, coef * R_OUT**-1.5 / 1.5, rtol=1e-6)


def test_singular_integral_rejects_unknown_side():
    with pytest.raises(ValueError, match="side"):
        grids.singular_integral(R_IN, R_IN, "lower")
