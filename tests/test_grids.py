import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from emlab import grids
from emlab.errors import EmlabError, OffGridError, TailFitError
from oracles import nearest_index as scanned_index
from oracles import tail_fit_real as polyfit_tail

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


class TestKeptRule:
    """A grid from ``log_grid`` keeps log r and its Simpson weights; each
    helper gives, bit for bit, what it gives on a plain copy of the grid,
    which builds them afresh on every call."""

    @pytest.mark.parametrize("r", [R_IN, R_OUT, grids.log_grid(1e-8, 1.0, 3001)],
                             ids=["interior", "exterior", "odd"])
    def test_equals_a_freshly_built_rule(self, r):
        plain = np.array(r)
        assert type(plain) is np.ndarray
        wobble = 1 + 0.1 * np.sin(np.log(plain))
        for side, f in (("interior", (0.3 - 2j) * plain**0.5 * wobble),
                        ("exterior", (0.3 - 2j) * plain**-2.5 * wobble)):
            for got, want in ((grids.cumulative_integral(f, r),
                               grids.cumulative_integral(f, plain)),
                              (grids.singular_integral(f, r, side),
                               grids.singular_integral(f, plain, side)),
                              (grids.log_derivative(f, r), grids.log_derivative(f, plain))):
                assert np.array_equal(got, want)
        radii = np.geomspace(r[0], r[-1], 23)
        assert ([grids.nearest_index(r, v) for v in radii]
                == [grids.nearest_index(plain, v) for v in radii])
        fresh = grids._simpson_rule(np.log(plain))
        for kept, built in zip(r.simpson, fresh):
            assert all(np.array_equal(a, b) for a, b in zip(kept, built))

    def test_built_once_and_kept_by_the_grid_alone(self):
        r = grids.log_grid(1e-8, 1.0, 300)
        assert not r.flags.writeable
        assert r.log is r.log and r.simpson is r.simpson
        # what is computed from a grid is a plain array and keeps nothing
        for a in (r**2, np.log(r), r * 1j, np.zeros_like(r, dtype=complex)):
            assert type(a) is np.ndarray
        # a view is a grid of its own nodes
        assert np.array_equal(r[::2].log, np.log(np.array(r)[::2]))


@pytest.mark.parametrize("value", [R_IN[0] / 2, 2.0, np.inf, np.nan])
def test_off_grid_radius_is_an_emlab_error(value):
    with pytest.raises(OffGridError, match="outside grid") as info:
        grids.nearest_index(R_IN, value)
    assert isinstance(info.value, EmlabError) and isinstance(info.value, ValueError)


class TestNearestIndex:
    """Bisection of the kept log r against the argmin scan it replaced, on a
    grid and on a plain copy of it."""

    @pytest.mark.parametrize("r", [R_IN, R_OUT, grids.log_grid(1e-8, 1.0, 3000),
                                   grids.log_grid(2e-8, 2.0, 3000),
                                   grids.log_grid(1e-8, 1.0, 3001)],
                             ids=["interior", "exterior", "even", "even_R2", "odd"])
    def test_equals_the_argmin_scan(self, r):
        x = np.log(np.array(r))
        log_midpoints = np.exp((x[:-1] + x[1:]) / 2)
        # every node, both ends, every midpoint, and the first blow-up radius 1e-4 R
        values = [*r, *log_midpoints, *np.sqrt(r[:-1] * r[1:]), 1e-4 * r[-1]]
        for grid in (r, np.array(r)):
            assert [grids.nearest_index(grid, v) for v in values] \
                == [scanned_index(grid, v) for v in values]
        # exact ties in log distance, which both give to the lower node
        t = np.log(log_midpoints)
        assert np.any(np.abs(x[:-1] - t) == np.abs(x[1:] - t))


def _outcome(fit, *args):
    """What a tail fit returns, or the message of the TailFitError it raises."""
    try:
        return fit(*args)
    except TailFitError as err:
        return str(err)


class TestKeptTailFit:
    """The tail fit on the grid's kept design against ``np.polyfit`` on the
    window, real and imaginary parts, converging and diverging exponents."""

    @pytest.mark.parametrize("r", [R_IN, R_OUT, grids.log_grid(1e-8, 1.0, 3001),
                                   grids.log_grid(1.0, 50.0, 20)],
                             ids=["interior", "exterior", "odd", "shorter_than_the_window"])
    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    @pytest.mark.parametrize("converges", [True, False], ids=["converging", "diverging"])
    def test_equals_polyfit(self, r, lower, converges):
        n = grids.TAIL_FIT_NODES
        window = slice(0, n) if lower else slice(-n, None)
        plain = np.array(r)
        p = (0.5 if lower else -2.5) if converges else (-1.5 if lower else 0.5)
        f = (0.3 - 2j) * plain**p * (1 + 0.1 * np.sin(np.log(plain)))
        scale = float(np.abs(f).max())
        for grid in (r, grids._grid(plain)):
            for part in (f.real, f.imag):
                got = _outcome(grids._tail_fit_real, grid, part[window], lower, scale)
                want = _outcome(polyfit_tail, plain[window], part[window], lower, scale)
                assert type(got) is type(want) and got == want
                assert isinstance(want, float) == converges

    def test_rank_deficient_window_warns_as_polyfit(self):
        # nodes a few ulps apart: the scaled design has rank 1
        r = grids.log_grid(1e6, 1e6 * (1 + 1e-13), 40)
        f = np.array(r) ** -2.5
        for lower in (True, False):
            window = slice(0, 30) if lower else slice(-30, None)
            with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
                polyfit_tail(np.array(r)[window], f[window], lower, 1.0)
            with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
                grids._tail_fit_real(r, f[window], lower, 1.0)


class TestKeptGrids:
    """``log_grid`` keeps its last GRID_CACHE_SIZE grids by their arguments."""

    def test_equal_arguments_give_the_same_grid(self):
        r = grids.log_grid(1e-7, 3.0, 500)
        assert grids.log_grid(1e-7, 3.0, 500) is r
        assert grids.log_grid.cache_info().maxsize == grids.GRID_CACHE_SIZE
        others = [grids.log_grid(1e-7, 3.0, 501), grids.log_grid(2e-7, 3.0, 500),
                  grids.log_grid(1e-7, 4.0, 500)]
        assert all(o is not r for o in others)

    def test_an_evicted_grid_is_rebuilt_bit_for_bit(self):
        r = grids.log_grid(1e-7, 3.0, 500)
        for n in range(grids.GRID_CACHE_SIZE):
            grids.log_grid(1e-7, 3.0, 600 + n)
        again = grids.log_grid(1e-7, 3.0, 500)
        assert again is not r and not again.flags.writeable
        assert np.array_equal(again, r) and np.array_equal(again.log, r.log)
        for built, kept in [*zip(again.simpson, r.simpson), *zip(again.tail_designs,
                                                                  r.tail_designs)]:
            assert all(np.array_equal(a, b) for a, b in zip(built, kept))
        assert (again.log_step, again.increasing) == (r.log_step, r.increasing)


@pytest.mark.parametrize("nodes", [[1, 2, 3], [0, 1, 2], [-1, 1, 2], [1, 1, 2], [1, 3, 2],
                                   [np.nan, 1, 2], [1, np.nan, 2], [1, 2, np.nan]])
def test_increasing_is_the_field_grid_check(nodes):
    r = np.array(nodes, dtype=float)
    assert grids._grid(r).increasing == (not (r[0] <= 0 or np.any(np.diff(r) <= 0)))
