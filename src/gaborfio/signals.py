"""Uniform periodic grids and the signals sampled on them.

Conventions are fixed here once and inherited by every other module:
time samples t_n = (n - N/2) * dx for n = 0..N-1 covering [-L/2, L/2),
frequency samples w_k = (k - N/2) / L covering [-N/(2L), N/(2L)), and the
forward transform F(w) = integral f(t) exp(-2 pi i t w) dt discretized as
dx * sum_n f(t_n) exp(-2 pi i t_n w_k), evaluated by FFT with centering
shifts. dx * N = L, so the transform is unitary up to the dx weight.
fio's operator quadrature is where this transform is used: it transforms
each input before summing over the frequency grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "SampledSignal",
    "inner_product",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2) with N points; dim must be 1."""

    dim: int
    points_per_axis: int
    length: float

    def __post_init__(self):
        if self.dim != 1:
            raise ValueError(f"only d = 1 grids are implemented, got "
                             f"dim={self.dim}")
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

    def doubled(self) -> Grid:
        """Twice the points over twice the length, at the same spacing."""
        return Grid(self.dim, 2 * self.points_per_axis, 2 * self.length)

    def times(self) -> np.ndarray:
        """Time coordinates, centered on 0."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.spacing

    def freqs(self) -> np.ndarray:
        """Frequency coordinates of the transform output."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.freq_spacing


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples of a function on a Grid. Immutable after creation."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.shape != (self.grid.points_per_axis,):
            raise ValueError(
                f"values length {v.shape} does not match grid size "
                f"{self.grid.points_per_axis}")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("signal values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def norm(self) -> float:
        """L2 norm under the grid quadrature weight."""
        return float(np.sqrt(self.grid.spacing)
                     * np.linalg.norm(self.values))


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """Riemann-sum L2 pairing integral f conj(g); grids must match."""
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")
    return complex(f.grid.spacing * np.vdot(g.values, f.values))


def _write_csv(path, header: str, columns) -> None:
    """Write the header line, then one %.17g row per index of the columns."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        fh.writelines(row % values for values in zip(*columns))

