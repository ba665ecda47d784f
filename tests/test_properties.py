"""Property tests over drawn inputs (hypothesis, the optional test extra)."""

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import gmatrix
from gaborfio.fitting import SHELL_WIDTH
from gaborfio.metaplectic import _covariant_source
from gaborfio.signals import _csv_rows
from conftest import LATTICE_STEP, chi_distances, source_entries, zero_matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LATTICE = gf.make_lattice(0.5, 0.5, 2.0)


@st.composite
def symplectic_matrices(draw):
    """[[a, b], [c, (1 + b c) / a]] with 0.2 <= |a| <= 3, |b|, |c| <= 3."""
    a = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from((-1.0, 1.0)))
    b, c = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    return gf.SymplecticMatrix(((a, b), (c, (1.0 + b * c) / a)))


@hypothesis.settings(max_examples=150, deadline=None, database=None,
                     derandomize=True)
@hypothesis.given(mat=symplectic_matrices(), width=st.floats(0.5, 3.0))
def test_covariant_entries_have_the_law_modulus(mat, width):
    # The complex closed form assemble fills matrices with, against the
    # independent overlap law, on a 9 x 9 lattice in runs of one lattice
    # time; measured <= 6.9e-15 of the peak over 2000 random draws.
    entries = source_entries(_covariant_source(mat, width, LATTICE),
                             LATTICE, 1)
    law = gf.metaplectic_law(gf.build_metaplectic(mat), LATTICE,
                             gf.gaussian(width))
    assert (np.max(np.abs(np.abs(entries) - law))
            <= 1e-14 * np.max(law))


@hypothesis.settings(max_examples=500, deadline=None, database=None,
                     derandomize=True)
@hypothesis.given(values=st.lists(st.floats(), min_size=1, max_size=6))
def test_csv_row_is_percent_formatting(values):
    # One row of any floats, NaNs, infinities and subnormals included,
    # against one %.17g per value.
    expected = ",".join(["%.17g"] * len(values)) % tuple(values) + "\n"
    assert bytes(_csv_rows(np.array([values]))) == expected.encode()


# chi anywhere, on a lattice point (where i = j = m puts the identity's
# distance d = m on a shell boundary) or on a half-step.
CHI_COORDS = st.one_of(
    st.floats(-6.0, 6.0),
    st.integers(-8, 8).map(lambda k: k * LATTICE_STEP),
    st.integers(-16, 16).map(lambda k: k * LATTICE_STEP / 2))
RADII = st.one_of(st.none(), st.sampled_from((0.0, 0.5, 0.7, 1.0, 1.3, 2.5)),
                  st.floats(0.0, 6.0))
# The reference lattice: every point's distance to one chi.
SHELL_LATTICE = gf.make_lattice(LATTICE_STEP, LATTICE_STEP, 8.0)


@hypothesis.settings(max_examples=300, deadline=None, database=None,
                     derandomize=True)
@hypothesis.given(chis=st.lists(st.tuples(CHI_COORDS, CHI_COORDS),
                                min_size=1, max_size=8))
def test_certified_shells_are_those_of_hypot(chis):
    # The counts pass takes each shell index from the separable squares,
    # with np.hypot near a boundary: it must be exactly floor(d /
    # SHELL_WIDTH) of the np.hypot distance d. The square roots alone put
    # some entries of half-step chi, such as (-15, -7) half-steps, in the
    # next shell.
    chi = np.array(chis)
    dx = SHELL_LATTICE.times - chi[:, :1]
    dw = SHELL_LATTICE.freqs - chi[:, 1:]
    exact = np.hypot(SHELL_LATTICE.points[None, :, 0] - chi[:, 0, None],
                     SHELL_LATTICE.points[None, :, 1] - chi[:, 1, None])
    assert np.array_equal(gmatrix._shell_indices(dx, dw),
                          np.floor(exact / SHELL_WIDTH).astype(np.intp))


@hypothesis.settings(max_examples=200, deadline=None, database=None,
                     derandomize=True)
@hypothesis.given(x=CHI_COORDS, w=CHI_COORDS, radius=RADII)
def test_pass_counts_past_the_radius_are_those_of_hypot(x, w, radius):
    # The exclusion test takes np.hypot only in the shell that holds the
    # radius; the counts must be np.bincount of the np.hypot shells of
    # the entries with d >= radius.
    matrix = zero_matrix((x, w), truncation=3.0)
    exact = chi_distances(matrix)
    reference = np.floor(exact / SHELL_WIDTH).astype(np.intp)
    past = reference if radius is None else reference[exact >= radius]
    counts = gmatrix._shell_counts(matrix, radius)
    expected = np.bincount(past.ravel())
    assert counts.dtype == expected.dtype
    assert np.array_equal(counts, expected)
