"""Uniform periodic grids and the centered discrete Fourier transform.

Conventions are fixed here once and inherited by every other module:
time samples t_n = (n - N/2) * dx for n = 0..N-1 covering [-L/2, L/2),
frequency samples w_k = (k - N/2) / L covering [-N/(2L), N/(2L)), and the
forward transform F(w) = integral f(t) exp(-2 pi i t w) dt discretized as
dx * sum_n f(t_n) exp(-2 pi i t_n w_k), evaluated by FFT with centering
shifts. dx * N = L, so the transform is unitary up to the dx weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "SampledSignal",
    "sample",
    "forward_transform",
    "inverse_transform",
    "inner_product",
    "signal_to_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^d with N points per axis."""

    dim: int
    points_per_axis: int
    length: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        n = self.points_per_axis
        if n < 2 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 2, got {n}")
        if not (self.length > 0 and np.isfinite(self.length)):
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.points_per_axis

    @property
    def half_width(self) -> float:
        return self.length / 2.0

    @property
    def freq_spacing(self) -> float:
        return 1.0 / self.length

    @property
    def freq_half_width(self) -> float:
        return self.points_per_axis / (2.0 * self.length)

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dim

    def times(self) -> np.ndarray:
        """Per-axis time coordinates, centered on 0."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.spacing

    def freqs(self) -> np.ndarray:
        """Per-axis frequency coordinates of the transform output."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.freq_spacing

    def require_1d(self):
        if self.dim != 1:
            raise NotImplementedError(
                f"only d=1 grids are exercised; got dim={self.dim}")


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples of a function on a Grid. Immutable after creation."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.shape != (self.grid.size,):
            raise ValueError(
                f"values length {v.shape} does not match grid size "
                f"{self.grid.size}")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("signal values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def norm(self) -> float:
        """L2 norm under the grid quadrature weight."""
        w = self.grid.spacing ** self.grid.dim
        return float(np.sqrt(w) * np.linalg.norm(self.values))


def sample(grid: Grid, fn) -> SampledSignal:
    """Evaluate a callable on the grid points (d=1)."""
    grid.require_1d()
    return SampledSignal(grid, np.asarray(fn(grid.times()), dtype=complex))


def forward_transform(f: SampledSignal) -> SampledSignal:
    """Centered DFT approximating integral f(t) exp(-2 pi i t w) dt."""
    f.grid.require_1d()
    vals = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f.values)))
    return SampledSignal(f.grid, f.grid.spacing * vals)


def inverse_transform(f_hat: SampledSignal) -> SampledSignal:
    """Inverse of forward_transform on the same grid."""
    f_hat.grid.require_1d()
    vals = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(f_hat.values)))
    return SampledSignal(f_hat.grid, vals / f_hat.grid.spacing)


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """Riemann-sum L2 pairing integral f conj(g); grids must match."""
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")
    w = f.grid.spacing ** f.grid.dim
    return complex(w * np.vdot(g.values, f.values))


def _write_csv(path, header: str, columns) -> None:
    """Write the header line, then one %.17g row per index of the columns."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        fh.writelines(row % values for values in zip(*columns))


def signal_to_csv(f: SampledSignal, path, *, frequency_axis: bool = False):
    """Dump one row per grid point, full double precision.

    Columns are t,re,im on the time axis and omega,re,im when the signal
    holds transform values.
    """
    f.grid.require_1d()
    axis = f.grid.freqs() if frequency_axis else f.grid.times()
    label = "omega" if frequency_axis else "t"
    _write_csv(path, f"{label},re,im", (axis, f.values.real, f.values.imag))
