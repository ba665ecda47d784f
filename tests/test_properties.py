"""Property tests over drawn inputs (hypothesis, the optional test extra)."""

import math
import re

import numpy as np
import pytest

import gaborfio as gf
from gaborfio import cli, gmatrix
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


def _leaves(defaults, path=""):
    """(dotted key, default) of every config leaf."""
    for key, default in defaults.items():
        if isinstance(default, dict):
            yield from _leaves(default, f"{path}{key}.")
        else:
            yield path + key, default


LEAVES = dict(_leaves(cli.DEFAULTS))
# No leaf takes these: bools, null, objects, and numbers that are not
# finite as floats.
NEVER = st.one_of(st.booleans(), st.none(), st.just({}), st.just({"N": 1}),
                  st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400,
                                   -10 ** 400]))
NEGATIVE = st.one_of(st.integers(max_value=-1),
                     st.floats(max_value=-1e-300, allow_infinity=False))
# Wrong values a key's kind does not cover, which other checks refuse.
EXTRA = {"grid.d": st.integers(min_value=2),
         "grid.N": st.integers(0, 10 ** 6).map(lambda k: 2 * k + 1)}


def _wrong_number(key):
    """What a number leaf, or an element of a number list, must refuse."""
    sign = (NEGATIVE if key in cli.NONNEGATIVE
            else st.one_of(NEGATIVE, st.sampled_from([0, 0.0, -0.0])))
    return st.one_of(NEVER, sign, st.text(max_size=4), st.just([]),
                     st.just([1.0]))


@st.composite
def wrong_leaves(draw):
    key = draw(st.sampled_from(sorted(LEAVES)))
    default = LEAVES[key]
    if isinstance(default, str):
        value = st.one_of(NEVER, st.just(""), st.floats(), st.integers(),
                          st.just([]), st.just(["identity"]))
    elif isinstance(default, list):
        at = draw(st.integers(0, len(default)))
        value = st.one_of(
            st.just([]), st.one_of(NEVER, st.floats(), st.text(max_size=4)),
            _wrong_number(key).map(
                lambda bad: default[:at] + [bad] + default[at:]))
    elif isinstance(default, int):
        value = st.one_of(_wrong_number(key), st.floats(),
                          EXTRA.get(key, st.nothing()))
    else:
        value = _wrong_number(key)
    return key, draw(value)


def _config(key, value):
    """The defaults with one leaf set to value."""
    *section, leaf = key.split(".")
    user = {section[0]: {leaf: value}} if section else {leaf: value}
    return cli._merge(user, cli.DEFAULTS, "")


@hypothesis.settings(max_examples=600, deadline=None, database=None,
                     derandomize=True)
@hypothesis.given(leaf=wrong_leaves())
def test_every_config_leaf_refuses_a_wrong_value_naming_it(leaf):
    # A bool, a string, NaN, an infinity, 10**400, a negative, 0 where a
    # positive is required, an empty list or an object, put into one
    # leaf: the config is refused, naming that leaf.
    key, value = leaf
    with pytest.raises(gf.ConfigError, match=re.escape(repr(key))):
        cli.Experiment.from_dict(_config(key, value))


POSITIVE = st.one_of(st.integers(1, 10 ** 300),
                     st.floats(min_value=5e-324, allow_infinity=False))


@st.composite
def right_leaves(draw):
    key = draw(st.sampled_from(sorted(LEAVES)))
    default = LEAVES[key]
    number = (st.one_of(POSITIVE, st.sampled_from([0, 0.0, -0.0]))
              if key in cli.NONNEGATIVE else POSITIVE)
    if key == "grid.d":
        value = st.just(1)
    elif key == "grid.N":
        value = st.integers(1, 10 ** 300).map(lambda k: 2 * k)
    elif isinstance(default, str):
        value = st.just(default)
    elif isinstance(default, list):
        value = st.lists(number, min_size=1, max_size=5)
    else:
        value = number
    return key, draw(value)


@hypothesis.settings(max_examples=300, deadline=None, database=None,
                     derandomize=True)
@hypothesis.given(leaf=right_leaves())
def test_every_config_leaf_takes_a_value_of_its_kind(leaf):
    # Any finite number of the key's sign (an even integer for grid.N),
    # or a nonempty list of them, is taken: from_dict does not raise.
    cli.Experiment.from_dict(_config(*leaf))
