import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sftkit import (
    CylinderFunction,
    EvPerPoint,
    full_shift,
    golden_mean,
    orbit_sum,
    word,
)
from sftkit.errors import NotClosed, WordTooShort
from sftkit.samples import random_presentation


def test_eval_depth1(full2):
    f = CylinderFunction.from_values(full2, {"0": 3, "1": -1})
    assert f(EvPerPoint.make(full2, (), (0, 1))) == 3
    assert f(word("10")) == -1


def test_eval_constant(full2):
    f = CylinderFunction.constant(full2, 5)
    assert f(EvPerPoint.make(full2, (1,), (0,))) == 5
    assert f(()) == 5


def test_eval_depth2_unrolls_point(full2):
    f = CylinderFunction.from_values(
        full2, {"00": 0, "01": 7, "10": 0, "11": 0})
    x = EvPerPoint.make(full2, (0,), (1,))  # 0111...
    assert f(x) == 7


def test_eval_word_too_short(full2):
    f = CylinderFunction.from_values(
        full2, {"00": 0, "01": 7, "10": 0, "11": 0})
    with pytest.raises(WordTooShort):
        f.value_on(word("0"))


def test_table_must_be_total(gm):
    with pytest.raises(ValueError):
        CylinderFunction(gm, 1, {(0,): 1})
    with pytest.raises(ValueError):
        CylinderFunction(gm, 2, {w: 0 for w in gm.language(2)} | {(1, 1): 1})


def test_pullback_and_coboundary(full2):
    f = CylinderFunction.from_values(full2, {"0": 3, "1": -1})
    fs, df = f.pullback(), f.coboundary()
    assert fs.depth == 2 and df.depth == 2
    assert df.table == {(0, 0): 0, (0, 1): 4, (1, 0): -4, (1, 1): 0}
    assert fs.table == {(0, 0): 3, (0, 1): -1, (1, 0): 3, (1, 1): -1}


def test_coboundary_of_constant_vanishes(gm):
    f = CylinderFunction.constant(gm, 9)
    df = f.coboundary()
    assert set(df.table.values()) == {0}


def test_coboundary_telescopes(full2):
    f = CylinderFunction.from_values(full2, {"0": 3, "1": -1})
    df = f.coboundary()
    assert orbit_sum(df, word("01")) == 0
    assert orbit_sum(df, word("0")) == 0
    assert orbit_sum(df, word("0011")) == 0


def test_pullback_is_shift_composition(full2):
    f = CylinderFunction.from_values(
        full2, {"00": 2, "01": -3, "10": 5, "11": 0})
    fs = f.pullback()
    for pre, cyc in [((), (0, 1)), ((1, 1), (0,)), ((0,), (1, 0))]:
        x = EvPerPoint.make(full2, pre, cyc)
        assert fs(x) == f(x.shift(1))


def test_orbit_sum_examples(full2):
    one = CylinderFunction.constant(full2, 1)
    assert orbit_sum(one, word("01")) == 2
    f = CylinderFunction.from_values(
        full2, {"00": 1, "01": -1, "10": 2, "11": 0})
    assert orbit_sum(f, word("0")) == 1


def test_orbit_sum_rejects_open_path(gm):
    one = CylinderFunction.constant(gm, 1)
    with pytest.raises(NotClosed):
        orbit_sum(one, word("11"))


def test_refine_and_arithmetic(gm):
    f = CylinderFunction.from_values(gm, {"0": 1, "1": 2})
    g = f.refine(2)
    assert g.depth == 2
    for w in gm.language(2):
        assert g.value_on(w) == f.value_on(w)
    assert (f + f) == g + f  # mixed depths refine to the larger one
    assert (f - f).min_value() == 0 and (f - f).max_value() == 0
    assert f == g  # equality compares as functions


def _orbit_sum_by_positions(f, cycle):
    """The reference: f on the window starting at each position of the
    orbit, read cyclically."""
    n = len(cycle)
    return sum(f.value_on(tuple(cycle[(i + t) % n] for t in range(f.width())))
               for i in range(n))


def test_orbit_sum_matches_the_per_position_formula():
    """Depth 0, depths below and above the cycle length, on full shifts,
    the golden mean and seeded random presentations."""
    rng = random.Random(3)
    presentations = [full_shift(2), full_shift(3), golden_mean()] + [
        random_presentation(random.Random(seed)) for seed in range(20)]
    depths_seen = set()
    for P in presentations:
        for depth in range(0, 6):
            if depth == 0:
                f = CylinderFunction.constant(P, rng.randint(-3, 3))
            else:
                f = CylinderFunction(P, depth, {w: rng.randint(-3, 3)
                                                for w in P.language(depth)})
            for c in P.cycles(4):
                assert orbit_sum(f, c) == _orbit_sum_by_positions(f, c)
                depths_seen.add((depth == 0, depth > len(c)))
    assert depths_seen == {(True, False), (False, False), (False, True)}


def test_orbit_sum_rejects_open_words_at_every_depth(gm):
    """Empty, inadmissible, unclosed and foreign words raise NotClosed
    before any table is read."""
    for f in (CylinderFunction.constant(gm, 1),
              CylinderFunction.from_values(gm, {"00": 1, "01": 2, "10": 3})):
        for w in ((), word("11"), word("1"), word("101"), (2,)):
            with pytest.raises(NotClosed):
                orbit_sum(f, w)


def _random_function(rng, P, depth):
    if depth == 0:
        return CylinderFunction.constant(P, rng.randint(-3, 3))
    return CylinderFunction(P, depth, {w: rng.randint(-3, 3)
                                       for w in P.language(depth)})


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 3),
       st.integers(-3, 3))
def test_arithmetic_results_pass_the_public_check(seed, df, dg, c):
    """Results built without the constructor's word-set check cover exactly
    the admissible words of their width, pass that check, and agree word by
    word with the value_on reference."""
    rng = random.Random(seed)
    P = random_presentation(rng)
    f, g = _random_function(rng, P, df), _random_function(rng, P, dg)
    d = max(df, dg)
    cases = [
        ("refine", f.refine(d + 1), d + 1, lambda w: f.value_on(w)),
        ("pullback", f.pullback(), df + 1, lambda w: f.value_on(w[1:])),
        ("coboundary", f.coboundary(), df + 1,
         lambda w: f.value_on(w) - f.value_on(w[1:])),
        ("f + g", f + g, d, lambda w: f.value_on(w) + g.value_on(w)),
        ("f - g", f - g, d, lambda w: f.value_on(w) - g.value_on(w)),
        ("f + c", f + c, df, lambda w: f.value_on(w) + c),
        ("f - c", f - c, df, lambda w: f.value_on(w) - c),
        ("-f", -f, df, lambda w: -f.value_on(w)),
        ("constant", CylinderFunction.constant(P, c), 0, lambda w: c),
    ]
    for name, r, depth, ref in cases:
        assert r.depth == depth, name
        assert set(r.table) == P.language(r.width()), name
        assert CylinderFunction(P, r.depth, r.table).table == r.table, name
        for w in P.words(r.width()):
            assert r.value_on(w) == ref(w), (name, w)


@pytest.mark.parametrize("other", [Fraction(1, 2), 1.5, "a", None],
                         ids=["Fraction", "float", "str", "None"])
def test_inexact_operands_are_refused(gm, other):
    """+ and - take an int or a CylinderFunction; anything else is not
    handled, so Python raises TypeError."""
    f = CylinderFunction.from_values(gm, {"0": 1, "1": 2})
    with pytest.raises(TypeError):
        f + other
    with pytest.raises(TypeError):
        f - other


def test_an_int_operand_builds_no_table_of_its_own(gm, monkeypatch):
    """f + c and f - c read f's table once: no constant table, no
    refinement, and f's depth and word order are kept."""
    f = CylinderFunction.from_values(gm, {"10": 5, "00": 1, "01": 2})

    def refused(*args):
        raise AssertionError("an int operand must not build a table")

    monkeypatch.setattr(CylinderFunction, "constant", refused)
    monkeypatch.setattr(CylinderFunction, "refine", refused)
    for r, want in [(f + 3, [8, 4, 5]), (f - 1, [4, 0, 1]),
                    (f + True, [6, 2, 3])]:
        assert r.depth == 2
        assert list(r.table) == list(f.table)
        assert list(r.table.values()) == want


def test_public_constructor_still_checks_the_word_set(gm):
    """Missing or extra words and a non-constant depth-0 table are
    rejected at the public boundary."""
    words = gm.language(2)
    with pytest.raises(ValueError, match="missing"):
        CylinderFunction(gm, 2, {w: 0 for w in sorted(words)[1:]})
    with pytest.raises(ValueError, match="extra"):
        CylinderFunction(gm, 2, {w: 0 for w in words | {(1, 1)}})
    with pytest.raises(ValueError, match="constant"):
        CylinderFunction(gm, 0, {(0,): 0, (1,): 1})


def test_on_words_equals_the_public_constructor():
    rng = random.Random(41)
    for _ in range(60):
        P = random_presentation(rng, 5)
        d = rng.randint(0, 4)
        words = P.words(max(d, 1))
        values = ([rng.randint(-3, 3)] * len(words) if d == 0
                  else [rng.randint(-3, 3) for _ in words])
        f = CylinderFunction.on_words(P, d, values)
        g = CylinderFunction(P, d, dict(zip(words, values)))
        assert f.depth == d
        assert list(f.table.items()) == list(g.table.items())


def test_on_words_checks_the_count_and_depth_zero(full2, gm):
    with pytest.raises(ValueError, match="need 3 values"):
        CylinderFunction.on_words(gm, 2, [1, 2])
    with pytest.raises(ValueError, match="need 4 values"):
        CylinderFunction.on_words(full2, 2, [0] * 5)
    with pytest.raises(ValueError, match="must be constant"):
        CylinderFunction.on_words(full2, 0, [1, 2])
    with pytest.raises(ValueError, match=">= 0"):
        CylinderFunction.on_words(full2, -1, [])
    assert CylinderFunction.on_words(full2, 0, [5, 5]) == \
        CylinderFunction.constant(full2, 5)
