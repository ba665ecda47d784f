"""Uniform periodic grids and the signals sampled on them.

Conventions are fixed here once and inherited by every other module:
time samples t_n = (n - N/2) * dx for n = 0..N-1 covering [-L/2, L/2),
frequency samples w_k = (k - N/2) / L covering [-N/(2L), N/(2L)), and the
forward transform F(w) = integral f(t) exp(-2 pi i t w) dt discretized as
dx * sum_n f(t_n) exp(-2 pi i t_n w_k), evaluated by FFT with centering
shifts. dx * N = L, so the transform is unitary up to the dx weight.
fio's operator quadrature is where this transform is used: it transforms
each input before summing over the frequency grid.

CSV artifacts are written here (_csv_rows, _write_csv): each value
exactly as Python's "%.17g" % x, a block of rows at a time, by one numpy
formatter (_g17). Its tables are built on its first call, not at import.
"""

from __future__ import annotations

import functools
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


# ------------------------------------------------------------ CSV text
#
# _g17 lays out the "%.17g" text of each value in a slot of _SLOT bytes,
# four little-endian words. Word 0: sign, "0." and up to three zeros (a
# fixed value under 1), first digit, point. Words 1 and 2: digits 2 to
# 17, trailing zeros NUL. Word 3: exponent, then NULs, and last the
# separator's byte. A fixed value of 10 or more has its point in words 1
# and 2, after its integer digits, and the digits after it one byte on
# (the 17th into word 3). Bytes a value does not use are NUL and are
# dropped as a block of rows is written, so no text is moved into place
# byte by byte.
_SLOT = 32
_WORD = np.dtype("<i8")
# The decimal exponents k of the fast path: 10^(16 - k), one step past
# either end, keeps its Veltkamp halves finite and its rest normal, and
# |x| 2^27 stays finite (_scaled).
_K_LO, _K_HI = -283, 299
# A scaled value this close to a rounding tie is left to Python's %.
_TIE_MARGIN = 1e-6
# Veltkamp's splitter: with c = x _SPLIT, c - (c - x) is x to 26 bits,
# and x less that fits in 26 more.
_SPLIT = 2.0 ** 27 + 1


@functools.cache
def _g17_tables() -> dict:
    """The formatter's tables, built from exact integers on first use."""
    ks = range(_K_LO - 1, _K_HI + 2)
    # 10^(16 - k) as hi + lo: hi the correctly rounded double, with its
    # two 26-bit halves, and lo the correctly rounded rest (Python's int /
    # int rounds correctly).
    hi, lo = [], []
    for k in ks:
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    c = hi * _SPLIT
    hi_h = c - (c - hi)
    # By k: word 0 less its sign and first digit, one for no digit after
    # the first and one for some; word 3 less what a move puts in it; and
    # 17 times the integer digits after the first of a fixed value (1 to
    # 16, else 0), the row of its masks.
    head, exps, mask_row = [], [], []
    for k in ks:
        lead = b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b""
        exp = b"" if -4 <= k < 17 else b"e%+03d" % k
        point = b"." if k == 0 or exp else b"\0"
        head += [b"\0" + lead.ljust(6, b"\0") + more
                 for more in (b"\0", point)]
        exps.append(exp.ljust(8, b"\0"))
        mask_row.append(17 * k if 1 <= k <= 16 else 0)
    # By (integer digits after the first j, last nonzero digit l): masks of
    # the digits kept in place and of those moved one byte on, and the
    # point.
    pos, groups = np.arange(16), np.arange(10000, dtype=np.uint32)
    j, last = np.arange(17)[:, None, None], np.arange(17)[None, :, None]
    masks = ((pos < np.where(j > 0, j, last)) * 0xFF,
             ((j > 0) & (pos >= j) & (pos < last)) * 0xFF,
             ((j > 0) & (pos == j) & (last > j)) * ord("."))
    return {
        "pow": (hi, hi_h, hi - hi_h, np.array(lo)),
        "digits": sum((groups // 10 ** (3 - i) % 10 + 0x30) << 8 * i
                      for i in range(4)).astype("<u4"),
        "head": np.frombuffer(b"".join(head), dtype=_WORD),
        "exp": np.frombuffer(b"".join(exps), dtype=_WORD),
        "mask_row": np.array(mask_row),
        "masks": tuple(m.astype(np.uint8).view(_WORD).reshape(17 * 17, 2).T
                       .copy() for m in masks),
    }


def _scaled(tab, a, i):
    """(D, r): D the nearest integer to a 10^(16 - k), r that less D.

    10^(16 - k) is the double-double tab["pow"][i]; a times its high part
    is exact as a Dekker product of Veltkamp halves, so the scaled value,
    below 2^60, is known to about 1e-13.
    """
    hi, hi_h, hi_l, lo = (t.take(i) for t in tab["pow"])
    c = a * _SPLIT
    a_h = c - (c - a)
    a_l = a - a_h
    ph = a * hi
    pl = (((a_h * hi_h - ph) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
          + a * lo)
    ih = np.rint(ph)
    r = (ph - ih) + pl
    ir = np.rint(r)
    return ih.astype(np.int64) + ir.astype(np.int64), r - ir


def _decimal(tab, x):
    """(k, D, slow) of each value of x, for its text "%.17g" % x.

    D = round(|x| 10^(16 - k)) has 17 digits; k is the decimal exponent
    less _K_LO - 1, the row of tab's tables. Zeros have D = 0. slow marks
    the values D is not certified for, left to Python's %: those not
    finite, below 1e-283 or from 1e300 on, and those within _TIE_MARGIN
    of a rounding tie.
    """
    a = np.abs(x)
    zero = a == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))
    slow = ~((k >= _K_LO) & (k <= _K_HI) | zero)
    a[zero | slow] = 2.0
    k[zero | slow] = 0
    k = k.astype(np.intp) - (_K_LO - 1)
    d, rest = _scaled(tab, a, k)
    slow |= np.abs(rest) > 0.5 - _TIE_MARGIN
    # log10 may be one off next to a power of ten: D then has 18 digits,
    # or 16, possibly rounded up to 10^16. Those are scaled again with the
    # exponent one up or down; where D is then 10^17 (|x| rounds up to the
    # next power of ten), or near a tie, the value is left to %.
    off = np.flatnonzero((d <= 10 ** 16) | (d >= 10 ** 17))
    if off.size:
        k[off] += np.where(d[off] <= 10 ** 16, -1, 1)
        d[off], rest = _scaled(tab, a[off], k[off])
        slow[off] |= ((np.abs(rest) > 0.5 - _TIE_MARGIN)
                      | (d[off] < 10 ** 16) | (d[off] >= 10 ** 17))
    d[zero] = 0
    return k, d, slow


def _ascii_digits(tab, d):
    """(first, digits, last) of 17-digit integers D.

    first is D's first digit; digits (2 x len(D)) the ASCII of the other
    16 as two words; last the place (0 to 16) of the last nonzero one.
    """
    upper = d // 10 ** 8
    first = upper // 10 ** 8
    eights = np.stack([upper - first * 10 ** 8, d - upper * 10 ** 8])
    fours = eights // 10 ** 4
    eights -= fours * 10 ** 4
    digits = tab["digits"].take(np.stack([fours, eights], axis=2))
    digits = digits.view(_WORD)[..., 0]
    # The top nonzero byte of the digits less "0": a byte is at most 9, so
    # the float's exponent is exact to the byte.
    top = np.frexp((digits - 0x3030303030303030).astype(float))[1] + 7
    top >>= 3
    return first, digits, np.where(top[1] > 0, top[1] + 8, top[0])


def _g17(x: np.ndarray) -> np.ndarray:
    """The "%.17g" % v text of each v of a 1-D float64 array, laid out.

    One row of _SLOT // 8 little-endian words per value (a view of
    word-major storage), its text in their bytes, NUL where it ends.
    Values _decimal does not certify are formatted by Python's %.
    """
    tab = _g17_tables()
    k, d, slow = _decimal(tab, x)
    first, digits, last = _ascii_digits(tab, d)
    row = tab["mask_row"].take(k) + last
    kept, moved, point = (m.take(row, axis=1) for m in tab["masks"])
    moved &= digits
    words = np.empty((4, len(x)), dtype=_WORD)
    np.bitwise_and(kept, digits, out=words[1:3])
    words[1:3] |= point
    words[1:3] |= moved << 8
    words[2] |= moved[0] >> 56
    np.bitwise_or(tab["exp"].take(k), moved[1] >> 56, out=words[3])
    np.bitwise_or(tab["head"].take(2 * k + (last > 0)), (first + 0x30) << 48,
                  out=words[0])
    words[0] |= np.signbit(x) * 0x2D
    for i in np.flatnonzero(slow):
        words[:, i] = np.frombuffer((b"%.17g" % x[i]).ljust(_SLOT, b"\0"),
                                    dtype=_WORD)
    return words.T


def _csv_rows(values: np.ndarray, lead: np.ndarray | None = None
              ) -> bytearray:
    """CSV text of the rows of a 2-D float array, "%.17g" per value.

    lead, NUL-padded bytes (rows x width, uint8), starts each row. Each
    row is laid out in full, NULs included, and the NULs are dropped.
    """
    rows, cols = values.shape
    words = _g17(np.ravel(values)).reshape(rows, cols, -1)
    width = 0 if lead is None else lead.shape[1]
    start = -(-width // 8) * 8
    text = bytearray(rows * (start + cols * _SLOT))
    block = np.frombuffer(text, dtype=np.uint8).reshape(rows, -1)
    if lead is not None:
        block[:, :width] = lead
    block[:, start:].view(_WORD).reshape(words.shape)[...] = words
    del words
    slots = block[:, start:].reshape(rows, cols, _SLOT)
    slots[:, :, -1] = ord(",")
    slots[:, -1, -1] = ord("\n")
    return text.translate(None, b"\0")


# Rows per block of _write_csv.
CSV_BLOCK_ROWS = 4096


def _write_csv(path, header: str, columns) -> None:
    """Write the header line, then one %.17g row per index of the columns,
    a block of CSV_BLOCK_ROWS rows at a time."""
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for lo in range(0, len(values), CSV_BLOCK_ROWS):
            fh.write(_csv_rows(values[lo:lo + CSV_BLOCK_ROWS]))
