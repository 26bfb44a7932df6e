"""Level sets: planning and ARE read a vector only through its sorted distinct
|x_j| and their counts.  Reading them with the zeros counted apart gives the
same arrays as ``np.unique(np.abs(x), return_counts=True)``, so every planning
number keeps its bits; the library's sequences give theirs without building a
vector of length d."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmean import are, hypotest
from pmean.are import (DirectionSequence, block_sequence, classify_are, orlicz_norm,
                       spike_sequence)
from pmean.hypotest import TestPlan, as_shift_scale, feasibility, level_set, sample_size
from pmean.moments import regime_row
from pmean.numcore import IndeterminateGrowthError


def dense_levels(x):
    return np.unique(np.abs(np.asarray(x, dtype=float)), return_counts=True)


# magnitudes from the subnormals to 1e300; vectors repeat a few of them, with zeros
MAGNITUDE = st.one_of(st.floats(5e-324, 1e300), st.sampled_from([5e-324, 1e-310, 0.5, 1.0, 1e300]))


@st.composite
def vectors(draw):
    mags = draw(st.lists(MAGNITUDE, min_size=1, max_size=4))
    counts = draw(st.lists(st.integers(1, 12), min_size=len(mags), max_size=len(mags)))
    zeros = draw(st.integers(0, 10))
    x = np.concatenate([np.repeat(mags, counts), np.zeros(zeros)])
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=x.size, max_size=x.size))
    order = draw(st.permutations(range(x.size)))
    return (x * np.array(signs))[list(order)]


def outcome(fn, *args):
    """fn's value, or its exception's type and message."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


def same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vectors())
def test_level_set_is_the_dense_unique(x):
    vals, counts = level_set(x)
    want_vals, want_counts = dense_levels(x)
    assert vals.dtype == want_vals.dtype and counts.dtype == want_counts.dtype
    assert np.array_equal(vals, want_vals) and np.array_equal(counts, want_counts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(vectors(), st.sampled_from([-np.inf, -2.0, -1.0, -0.3, 0.0, 1.0, 3.0, np.inf]))
def test_plans_match_the_dense_reading(x, p):
    d = x.size
    row = regime_row(p, 0.05, d)
    assert same(row.shift_sum(level_set(x))(1.0), row.shift_sum(dense_levels(x))(1.0))
    plan = TestPlan(p, d, 0.05, 0.8, x)
    assert feasibility(plan).d0 == np.count_nonzero(x == 0.0)
    got = [outcome(f, plan) for f in (feasibility, as_shift_scale, sample_size)]
    with mock.patch.object(hypotest, "level_set", dense_levels):
        dense = TestPlan(p, d, 0.05, 0.8, x)
        want = [outcome(f, dense) for f in (feasibility, as_shift_scale, sample_size)]
    assert all(same(a, b) for a, b in zip(got, want)), (got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(vectors(), st.sampled_from([-0.4, -0.25, 0.0, 0.5, 1.0, 1.9]))
def test_orlicz_norm_matches_the_dense_reading(x, p):
    got = outcome(orlicz_norm, p, 0.05, 0.8, x)
    with mock.patch.object(are, "level_set", dense_levels):
        want = outcome(orlicz_norm, p, 0.05, 0.8, x)
    assert same(got, want), (got, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.sampled_from([-0.3, 0.0, 0.5, 1.0, 1.5, 3.0, 6.0, np.inf]))
def test_block_verdicts_match_a_dense_generator(gamma, p):
    dims = (100, 1_000, 100_000)
    library = dataclasses.replace(block_sequence(gamma), probe_dims=dims)
    dense = DirectionSequence(library.generator, probe_dims=dims)
    got, want = (outcome(classify_are, p, seq, 0.05, 0.8) for seq in (library, dense))
    if isinstance(got, tuple):
        assert got[0] is IndeterminateGrowthError and want[0] is IndeterminateGrowthError
    else:
        assert got.tag == want.tag


@pytest.mark.parametrize("p, seq", [(3.0, spike_sequence()), (1.0, block_sequence(0.3))])
def test_library_sequences_allocate_no_probe(p, seq):
    # at probe d = 1e6 a dense probe alone takes 7.6 MiB
    classify_are(p, seq, 0.05, 0.8)     # imports and caches outside the trace
    tracemalloc.start()
    try:
        classify_are(p, seq, 0.05, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
