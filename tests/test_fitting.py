"""Shell-averaged decay fits on synthetic data with known exact answers."""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio.fitting import (
    DEFAULT_S_GRID,
    SHELL_WIDTH,
    _censored_shells,
    shell_decay_fit,
    sorted_tail_fits,
)


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
    _, clean, _, _ = _censored_shells(dist, mags, 1e-14)

    poisoned = mags.copy()
    hit = np.argmin(np.abs(dist - 3.1))
    poisoned[hit] = 1e-300
    _, censored, _, _ = _censored_shells(dist, poisoned, 1e-14)
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
    idx, clean, counts, ybars = _censored_shells(dist, mags, floor)

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
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(np.flatnonzero(clean), ref_shells)
    np.testing.assert_array_equal(counts[clean], ref_counts)
    np.testing.assert_allclose(ybars, ref_means, rtol=1e-12)



def test_sorted_tail_fit_exact():
    rng = np.random.default_rng(3)
    n = np.arange(1, 40)
    # Entries below the floor would bend the line if they entered the fit.
    mags = np.concatenate([np.exp(-n.astype(float)), np.full(5, 1e-20)])
    rng.shuffle(mags)
    eps, logc, r2 = sorted_tail_fits(mags[None, :], 1.0, floor=1e-18)
    assert abs(eps[0] - 1.0) <= 1e-9
    assert abs(logc[0]) <= 1e-9
    assert r2[0] > 0.999999


def _row_tail_lstsq(row, exponent, floor):
    """One row's tail fit by np.linalg.lstsq on _line_fit's design."""
    v = np.sort(row)[::-1]
    v = v[v >= floor]
    xs = np.arange(1, v.size + 1, dtype=float) ** exponent
    centre = np.sum(xs / xs.size)
    scale = float(np.max(np.abs(xs - centre))) or 1.0
    a = np.column_stack([np.ones_like(xs), -(xs - centre) / scale])
    ys = np.log(v)
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    resid = ys - a @ coef
    r2 = 1.0 - (resid @ resid) / np.sum((ys - ys.mean()) ** 2)
    eps = coef[1] / scale
    return eps, coef[0] + eps * centre, r2


@pytest.mark.parametrize("exponent", [0.3, 1.0, 1.7])
def test_batched_tail_fits_match_per_row_lstsq(exponent):
    # 300 rows of 60, several blocks, each row with its own count of
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

    got = sorted_tail_fits(rows, exponent, floor=floor)
    ref = np.array([_row_tail_lstsq(row, exponent, floor) for row in kept]).T
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=0)


def test_batched_tail_fits_errors():
    rows = np.full((5, 10), 1e-20)
    rows[:, :2] = 1.0
    with pytest.raises(gf.InsufficientDataError):
        sorted_tail_fits(rows, 1.0, floor=1e-14)
    # Rank 100 raised to 160 overflows.
    rows = np.exp(-np.arange(100.0))[None, :].repeat(3, axis=0)
    with pytest.raises(ValueError, match="s_grid"):
        sorted_tail_fits(rows, 160.0, floor=0.0)
