"""dbgen's draw functions against ``random.Random``, value for value.

``_Draws`` makes the ``getrandbits``/``random()`` calls that
``randint``, ``choice`` and ``uniform`` make, so any interleaving of
draws on one stream must equal the same calls on a twin ``Random`` of
the same seed. The ``.tbl`` pins check this at SF 0.001 only; this
checks it at any width, including SF 1's ``n_parts`` and the powers of
two, where half of all draws are rejected and drawn again.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.tpch.dbgen import _WORDS, TPCHConfig, _Draws

WIDTHS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 7, 8, 1 << 10, 1 << 16,
                     TPCHConfig(scale_factor=1.0).n_parts]),
    st.integers(1, 1 << 40),
)

# (kind, first argument, second argument); each becomes one draw
# function, called several times
OPS = st.one_of(
    st.tuples(st.just("ints"), st.integers(-10**6, 10**6), WIDTHS),
    st.tuples(st.just("choice"), WIDTHS, st.none()),
    st.tuples(st.just("uniform"),
              st.floats(-1e6, 1e6, allow_nan=False),
              st.floats(-1e6, 1e6, allow_nan=False)),
)


def twin_call(rng, kind, first, second):
    if kind == "ints":
        return rng.randint(first, first + second - 1)
    if kind == "choice":
        return rng.choice(range(first))
    return rng.uniform(first, second)


def draw_function(draws, kind, first, second):
    if kind == "ints":
        return draws.ints(first, first + second - 1)
    if kind == "choice":
        return draws.choice(range(first))
    return draws.uniform(first, second)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1 << 64),
       ops=st.lists(OPS, min_size=1, max_size=8),
       calls=st.lists(st.integers(0, 7), min_size=1, max_size=60))
def test_interleaved_draws_equal_random(seed, ops, calls):
    draws = _Draws(seed)
    functions = [draw_function(draws, *op) for op in ops]
    twin = random.Random(seed)
    for call in calls:
        index = call % len(ops)
        expected = twin_call(twin, *ops[index])
        got = functions[index]()
        assert got == expected and type(got) is type(expected)
    # both streams are at the same point afterwards
    assert draws.ints(0, (1 << 32) - 1)() == twin.randrange(1 << 32)


@pytest.mark.parametrize("width", [1, 2, 4, 8, 1 << 20, 200_000])
def test_rejection_heavy_widths(width):
    draws = _Draws(20150413)
    twin = random.Random(20150413)
    below, pick = draws.ints(0, width - 1), draws.choice(range(width))
    for _ in range(500):
        assert below() == twin.randrange(width)
        assert pick() == twin.choice(range(width))


def test_comment_and_date_equal_random():
    draws, twin = _Draws(7), random.Random(7)
    comment, date = draws.comment(3), draws.date()
    for _ in range(200):
        assert comment() == " ".join(twin.choice(_WORDS) for _ in range(3))
        assert date() == (f"{twin.randint(1992, 1998):04d}-"
                          f"{twin.randint(1, 12):02d}-"
                          f"{twin.randint(1, 28):02d}")


@pytest.mark.parametrize("make", [
    lambda draws: draws.ints(5, 4),
    lambda draws: draws.choice([]),
])
def test_an_empty_range_is_refused(make):
    with pytest.raises(ValueError):
        make(_Draws(1))
