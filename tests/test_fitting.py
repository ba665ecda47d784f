"""Shell-averaged decay fits on synthetic data with known exact answers."""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio.fitting import (
    DEFAULT_S_GRID,
    SHELL_WIDTH,
    censor_shells,
    scan_orders,
    shell_decay_fit,
    sorted_tail_fits,
)
from conftest import lstsq_line_fit


def _radial_samples(extent=6.0, step=0.25):
    axis = np.arange(-extent, extent + step / 2, step)
    x, w = np.meshgrid(axis, axis)
    return np.hypot(x.ravel(), w.ravel())


def test_gaussian_synthetic_recovers_half_order():
    dist = _radial_samples()
    mags = np.exp(-dist ** 2)
    fit = shell_decay_fit(dist, mags, floor=1e-14)
    assert fit.s_hat == 0.5
    assert abs(fit.epsilon_hat - 1.0) <= 1e-9
    assert fit.r_squared > 0.999


def test_exponential_synthetic_recovers_first_order():
    dist = _radial_samples()
    mags = np.exp(-2.0 * dist)
    fit = shell_decay_fit(dist, mags, floor=1e-14)
    assert fit.s_hat == 1.0
    assert abs(fit.epsilon_hat - 2.0) <= 1e-9
    assert fit.r_squared > 0.999


def test_constant_data_ties_break_to_smallest_order():
    # Flat magnitudes fit every order with zero residual; the tie must
    # resolve to the smallest order in the search grid.
    dist = np.linspace(0.0, 6.0, 200)
    mags = np.full_like(dist, 0.5)
    fit = shell_decay_fit(dist, mags, floor=1e-14)
    assert fit.s_hat == DEFAULT_S_GRID[0]
    assert abs(fit.epsilon_hat) <= 1e-12


def test_search_grid_contents():
    assert DEFAULT_S_GRID[0] == 0.40
    assert DEFAULT_S_GRID[-1] == 2.00
    np.testing.assert_allclose(np.diff(DEFAULT_S_GRID), 0.05)


def test_below_floor_sample_censors_its_shell():
    dist = _radial_samples()
    mags = np.exp(-2.0 * dist)
    clean = censor_shells(dist, mags, floor=1e-14).clean

    poisoned = mags.copy()
    hit = np.argmin(np.abs(dist - 3.1))
    poisoned[hit] = 1e-300
    censored = censor_shells(dist, poisoned, floor=1e-14).clean
    fit = shell_decay_fit(dist, poisoned, floor=1e-14)
    # Exactly the poisoned sample's shell disappears; the exact law still
    # comes back from the rest.
    assert np.flatnonzero(clean != censored).tolist() == [
        int(dist[hit] // SHELL_WIDTH)]
    assert clean.all()
    assert fit.s_hat == 1.0
    assert abs(fit.epsilon_hat - 2.0) <= 1e-9


def test_exclusion_radius_drops_near_diagonal():
    dist = _radial_samples()
    mags = np.exp(-2.0 * dist)
    # Corrupt only the near-diagonal; an exclusion radius hides it.
    mags = np.where(dist < 0.4, 1e3, mags)
    fit = shell_decay_fit(dist, mags, floor=1e-14, exclusion_radius=0.5)
    assert fit.s_hat == 1.0
    assert abs(fit.epsilon_hat - 2.0) <= 1e-9


def test_all_below_floor_raises_no_signal():
    dist = np.linspace(0.0, 6.0, 100)
    with pytest.raises(gf.NoSignalError):
        shell_decay_fit(dist, np.full_like(dist, 1e-30), floor=1e-14)


@pytest.mark.parametrize("n_in", [0, 100])
def test_nothing_past_the_exclusion_radius_is_insufficient_data(n_in):
    # Samples all inside the radius, or none at all (every column of a
    # matrix flagged), once raised NoSignalError blaming the floor. The
    # error now names the radius and counts the samples it dropped.
    dist = np.linspace(0.0, 6.0, n_in)
    mags = np.exp(-dist)
    with pytest.raises(gf.InsufficientDataError,
                       match=f"radius 1e\\+300 dropped all {n_in} "):
        censor_shells(dist, mags, floor=1e-14, exclusion_radius=1e300)


def test_too_few_samples_raises_insufficient_data():
    dist = np.linspace(0.0, 6.0, 30)
    mags = np.exp(-dist)
    with pytest.raises(gf.InsufficientDataError):
        shell_decay_fit(dist, mags, floor=1e-14, min_samples=50)


def test_too_few_shells_raises_insufficient_data():
    # 100 samples but all within one shell width.
    dist = np.linspace(0.0, 0.45, 100)
    mags = np.exp(-dist)
    with pytest.raises(gf.InsufficientDataError):
        shell_decay_fit(dist, mags, floor=1e-14, min_samples=50)


def test_fixed_order_fit_exact():
    dist = _radial_samples()
    mags = np.exp(-3.0 * dist)
    fit = shell_decay_fit(dist, mags, floor=1e-14, s_grid=(1.0,))
    assert abs(fit.epsilon_hat - 3.0) <= 1e-9
    assert abs(fit.log_c) <= 1e-9
    assert fit.r_squared > 0.999999


def test_bincount_shells_match_per_shell_loop():
    # Reference: one pass of boolean masks per occupied shell. A shell
    # with any sample below the floor is dropped whole.
    rng = np.random.default_rng(11)
    dist = rng.uniform(0.0, 12.0, 5000)
    mags = np.exp(-dist ** 2 / 4.0) * rng.uniform(0.5, 2.0, dist.size)
    floor = 1e-6
    shells = censor_shells(dist, mags, floor=floor)

    ref_idx = np.floor(dist / SHELL_WIDTH).astype(int)
    ref_shells, ref_means, ref_counts = [], [], []
    for i in np.unique(ref_idx):
        m = mags[ref_idx == i]
        if np.all(m >= floor):
            ref_shells.append(i)
            ref_means.append(np.mean(np.log(m)))
            ref_counts.append(m.size)
    censored = np.unique(ref_idx[mags < floor])
    assert censored.size >= 3 and np.any(mags[
        np.isin(ref_idx, censored)] >= floor)
    in_clean = np.isin(ref_idx, ref_shells)
    np.testing.assert_array_equal(shells.idx, ref_idx[in_clean])
    np.testing.assert_array_equal(shells.dist, dist[in_clean])
    np.testing.assert_array_equal(np.flatnonzero(shells.clean), ref_shells)
    np.testing.assert_array_equal(shells.counts, ref_counts)
    np.testing.assert_allclose(shells.ybars, ref_means, rtol=1e-12)
    assert shells.n_samples == np.count_nonzero(mags >= floor)



def _scan_cases():
    rng = np.random.default_rng(5)
    dist = rng.uniform(0.0, 12.0, 5000)
    noisy = np.exp(-dist ** 1.3 / 2.0) * rng.uniform(0.5, 2.0, dist.size)
    radial = _radial_samples()
    # The random case's floor censors its outermost shells.
    return {"random": (dist, noisy, 1e-5),
            "synthetic": (radial, np.exp(-2.0 * radial), 1e-14)}


@pytest.mark.parametrize("case", ["random", "synthetic"])
def test_fit_at_each_order_matches_lstsq(case):
    # The closed-form line at each grid order against np.linalg.lstsq on
    # the same shell means. Measured: 7.5e-16 relative in epsilon,
    # 4.2e-15 in log C (relative to 1 + |log C|) and 1.1e-16 in r2.
    dist, mags, floor = _scan_cases()[case]
    shells = censor_shells(dist, mags, floor=floor)
    assert shells.clean.all() == (case == "synthetic")
    for s in DEFAULT_S_GRID:
        xs = np.bincount(shells.idx, weights=shells.dist ** (1.0 / s),
                         minlength=shells.clean.size)[shells.clean]
        eps, logc, _, r2 = lstsq_line_fit(xs / shells.counts, shells.ybars)
        fit = shell_decay_fit(dist, mags, floor=floor, s_grid=(s,))
        assert fit.s_hat == s
        assert abs(fit.epsilon_hat - eps) <= 1e-14 * abs(eps), s
        assert abs(fit.log_c - logc) <= 2e-14 * (1 + abs(logc)), s
        assert abs(fit.r_squared - r2) <= 1e-15, s


@pytest.mark.parametrize("s_grid, named", [
    ((), "()"), ([], "[]"), ((0.5, 0.0), "0"), ([-1.0], "-1"),
    ((0.5, float("nan")), "nan")])
def test_scan_orders_rejects_bad_orders(s_grid, named):
    dist = _radial_samples()
    shells = censor_shells(dist, np.exp(-dist), floor=1e-14)
    with pytest.raises(ValueError, match="s_grid") as err:
        scan_orders(shells, s_grid=s_grid)
    assert named in str(err.value)


def test_sorted_tail_fit_exact():
    rng = np.random.default_rng(3)
    n = np.arange(1, 40)
    # Entries below the floor would bend the line if they entered the fit.
    mags = np.concatenate([np.exp(-n.astype(float)), np.full(5, 1e-20)])
    rng.shuffle(mags)
    eps, logc, r2 = sorted_tail_fits([mags[None, :]], 1.0, floor=1e-18)
    assert abs(eps[0] - 1.0) <= 1e-9
    assert abs(logc[0]) <= 1e-9
    assert r2[0] > 0.999999


def _row_tail_lstsq(row, exponent, floor):
    """One row's tail fit: a sort, the floor, then lstsq_line_fit."""
    v = np.sort(row)[::-1]
    v = v[v >= floor]
    xs = np.arange(1, v.size + 1, dtype=float) ** exponent
    eps, logc, _, r2 = lstsq_line_fit(xs, np.log(v))
    return eps, logc, r2


@pytest.mark.parametrize("exponent", [0.3, 1.0, 1.7])
def test_batched_tail_fits_match_per_row_lstsq(exponent):
    # 300 rows of 60 in ten blocks, each row with its own count of
    # entries above the floor (0 to 60); rows with fewer than 3 must be
    # skipped. The rest are zeros, tiny values and NaN, which the
    # per-row fit drops like values under the floor.
    rng = np.random.default_rng(17)
    floor = 1e-12
    counts = rng.integers(0, 61, 300)
    counts[:6] = [0, 1, 2, 3, 60, 2]
    rows = rng.choice([0.0, 1e-15, np.nan], (300, 60))
    for row, k in zip(rows, counts):
        n = np.arange(1, k + 1) ** exponent
        row[:k] = np.exp(1.5 - 0.4 * n + 0.3 * rng.standard_normal(k))
        row[:k] = np.maximum(row[:k], floor)
        rng.shuffle(row)
    kept = [row for row in rows if np.count_nonzero(row >= floor) >= 3]
    assert len(kept) == np.count_nonzero(counts >= 3)

    got = sorted_tail_fits(np.split(rows, 10), exponent, floor=floor)
    ref = np.array([_row_tail_lstsq(row, exponent, floor) for row in kept]).T
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=0)


def test_batched_tail_fits_errors():
    rows = np.full((5, 10), 1e-20)
    rows[:, :2] = 1.0
    with pytest.raises(gf.InsufficientDataError):
        sorted_tail_fits([rows], 1.0, floor=1e-14)
    # Rank 100 raised to 160 overflows.
    rows = np.exp(-np.arange(100.0))[None, :].repeat(3, axis=0)
    with pytest.raises(ValueError, match="s_grid"):
        sorted_tail_fits([rows], 160.0, floor=0.0)
