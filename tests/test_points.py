import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sftkit import (
    BiPoint,
    EvPerPoint,
    full_shift,
    is_isolated,
    word,
)
from sftkit.errors import (
    InadmissibleWord,
    NegativeShiftOneSided,
    NotPeriodic,
)
from sftkit.presentation import Presentation, rotations
from sftkit.samples import random_presentation

FULL2 = full_shift(2)


def test_normalize_primitivity(full2):
    p = EvPerPoint.make(full2, (), word("0101"))
    assert (p.prefix, p.cycle) == ((), (0, 1))


def test_normalize_minimal_prefix():
    P = full_shift(2, labels=("a", "b"))
    p = EvPerPoint.make(P, word("abb"), word("ab"))
    assert (p.prefix, p.cycle) == (("a", "b"), ("b", "a"))


def test_normalize_already_canonical(gm):
    p = EvPerPoint.make(gm, (1,), (0,))
    assert (p.prefix, p.cycle) == ((1,), (0,))


def test_normalize_rejects_inadmissible(gm):
    with pytest.raises(InadmissibleWord):
        EvPerPoint.make(gm, (1,), (1,))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=4),
       st.lists(st.integers(0, 1), min_size=1, max_size=4),
       st.integers(0, 3), st.integers(1, 3))
def test_normalize_identifies_representations(pre, cyc, pad, reps):
    """Padding the prefix out of the cycle and repeating the cycle gives the
    same canonical point."""
    base = EvPerPoint.make(FULL2, tuple(pre), tuple(cyc))
    assert EvPerPoint.make(FULL2, tuple(pre), tuple(cyc) * reps) == base
    # move `pad` symbols of the expansion into the prefix
    expanded_prefix = tuple(base.symbol(i) for i in range(len(pre) + pad))
    rotated = tuple(base.symbol(i) for i in
                    range(len(pre) + pad, len(pre) + pad + base.least_period()))
    assert EvPerPoint.make(FULL2, expanded_prefix, rotated) == base


def test_normalize_idempotent(full2):
    p = EvPerPoint.make(full2, word("110"), word("10"))
    again = EvPerPoint.make(full2, p.prefix, p.cycle)
    assert p == again


def test_shift_examples():
    P = full_shift(2, labels=("a", "b"))
    p = EvPerPoint.make(P, ("a", "b"), ("b", "a"))
    assert p.shift(1) == EvPerPoint.make(P, ("b",), ("b", "a"))
    q = EvPerPoint.make(FULL2, (), (0, 1))
    assert q.shift(2) == q
    with pytest.raises(NegativeShiftOneSided):
        q.shift(-1)


def test_shift_matches_sequence(full2):
    p = EvPerPoint.make(full2, (1, 1, 0), (0, 1))
    for j in range(8):
        s = p.shift(j)
        assert all(s.symbol(i) == p.symbol(i + j) for i in range(10))


def test_least_period(full2):
    assert EvPerPoint.make(full2, (), (0, 1)).least_period() == 2
    assert EvPerPoint.make(full2, (1,), (0,)).least_period() == 1
    assert EvPerPoint.make(full2, (), (0, 1, 1, 0)).least_period() == 4


def test_least_period_divides_any_cycle_representation(full2):
    p = EvPerPoint.make(full2, (), word("011011"))
    assert p.least_period() == 3
    assert 6 % p.least_period() == 0


def test_is_isolated_variants(single_loop, gm):
    assert is_isolated(single_loop,
                       EvPerPoint.make(single_loop, (), ("a",)))
    for pre, cyc in [((), (0,)), ((1,), (0,)), ((), (0, 1))]:
        assert not is_isolated(gm, EvPerPoint.make(gm, pre, cyc))
    P = Presentation([1, 2], [(1, 1), (1, 2), (2, 2)])
    assert is_isolated(P, EvPerPoint.make(P, (), (2,)))
    assert not is_isolated(P, EvPerPoint.make(P, (), (1,)))


def test_singleton_cylinders_imply_isolated():
    """Exhaustive continuation count: if Z(u) is a singleton, the unique
    point must report isolated."""
    P = Presentation([1, 2, 3], [(1, 1), (1, 2), (2, 3), (3, 3)])
    horizon = 2 * len(P.labels)
    for m in (1, 2, 3):
        for u in P.language(m):
            exts = {u}
            for _ in range(horizon):
                exts = {w + (b,) for w in exts for b in P.out_neighbors(w[-1])}
            if len(exts) == 1:
                w = next(iter(exts))
                # the forced continuation closes into a cycle
                seen = {}
                rest = w
                while rest[-1] not in seen:
                    seen[rest[-1]] = len(rest) - 1
                    rest = rest + P.out_neighbors(rest[-1])
                i = seen[rest[-1]]
                p = EvPerPoint.make(P, rest[:i], rest[i:-1])
                assert is_isolated(P, p)


# -- two-sided points ------------------------------------------------------

def test_bipoint_canonical_fully_periodic(full2):
    b = BiPoint.make(full2, (0, 1), (0, 1), (0, 1), 0)
    assert b.is_periodic() and b.least_period() == 2
    assert b.middle == () and b.phase == 0


def test_bipoint_shift_phase(full2):
    b = BiPoint.periodic(full2, (0, 1), 0)
    assert b.shift(2) == b
    assert b.shift(1) == BiPoint.periodic(full2, (1, 0), 0)
    assert b.shift(1).shift(1) == b


def test_bipoint_not_periodic(full2):
    b = BiPoint.make(full2, (0,), (), (1,), 0)
    assert not b.is_periodic()
    with pytest.raises(NotPeriodic):
        b.least_period()


def test_bipoint_absorbs_middle(full2):
    # ...0101[01]0101... is fully periodic however it is presented
    b = BiPoint.make(full2, (0, 1), (0, 1), (0, 1), 3)
    c = BiPoint.periodic(full2, (0, 1), 3)
    assert b == c


def test_bipoint_representation_independence(full2):
    # ...000 111 0101... written two ways: with the middle padded into both
    # cycles and the right cycle rotated, compensated through the phase
    reference = BiPoint.make(full2, (0,), (1, 1, 1), (0, 1), 0)
    padded = BiPoint.make(full2, (0,), (0, 0, 1, 1, 1), (0, 1), 2)
    assert padded == reference
    rotated = BiPoint.make(full2, (0,), (0, 1, 1, 1, 0), (1, 0), 1)
    assert rotated == reference
    assert BiPoint.make(full2, (0,), (0, 1, 1, 1, 0), (1, 0), 3) == \
        reference.shift(2)
    assert reference.word_range(-2, 6) == (0, 0, 1, 1, 1, 0, 1, 0)


def test_bipoint_symbols_and_tails(full2):
    b = BiPoint.make(full2, (0,), (1, 1), (0, 1), 0)
    # anchor: middle starts at coordinate 0
    assert b.word_range(-3, 5) == (0, 0, 0, 1, 1, 0, 1, 0)
    t = b.tail(-2)
    assert t == EvPerPoint.make(full2, (0, 0, 1, 1), (0, 1))
    assert b.tail(2) == EvPerPoint.make(full2, (), (0, 1))
    assert b.tail(3) == EvPerPoint.make(full2, (), (1, 0))


def test_bipoint_tail_respects_phase(full2):
    b = BiPoint.make(full2, (0,), (1, 1), (0, 1), 0)
    shifted = b.shift(5)
    for i in range(-6, 6):
        assert shifted.tail(i) == b.tail(i + 5)


@settings(max_examples=100, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_bipoint_shift_additive(i, j):
    b = BiPoint.make(FULL2, (0,), (1,), (0, 1), 1)
    assert b.shift(i).shift(j) == b.shift(i + j)


# -- canonical forms on full shifts and seeded random presentations ------------

PRESENTATIONS = st.one_of(
    st.sampled_from([FULL2, full_shift(3)]),
    st.integers(0, 2 ** 16).map(
        lambda seed: random_presentation(random.Random(seed))))


@st.composite
def tail_words(draw, P, start=None):
    """An arbitrary (prefix, cycle) representation of a one-sided point of
    P: a walk that runs on until it revisits a vertex, with the loop it
    closes repeated and partly unrolled into the prefix."""
    walk = [start if start is not None else draw(st.sampled_from(P.labels))]
    for _ in range(draw(st.integers(0, 3))):
        walk.append(draw(st.sampled_from(P.out_neighbors(walk[-1]))))
    free = len(walk) - 1
    while walk[-1] not in walk[free:-1]:
        walk.append(draw(st.sampled_from(P.out_neighbors(walk[-1]))))
    i = walk.index(walk[-1], free)
    prefix = tuple(walk[:i])
    cycle = tuple(walk[i:-1]) * draw(st.integers(1, 3))
    pad = draw(st.integers(0, len(cycle)))
    return prefix + cycle[:pad], cycle[pad:] + cycle[:pad]


@st.composite
def one_sided(draw):
    P = draw(PRESENTATIONS)
    prefix, cycle = draw(tail_words(P))
    return P, prefix, cycle


@st.composite
def two_sided(draw):
    """A left loop, then a one-sided tail entered from its last vertex."""
    P = draw(PRESENTATIONS)
    _, left = draw(tail_words(P))
    start = draw(st.sampled_from(P.out_neighbors(left[-1])))
    middle, right = draw(tail_words(P, start))
    return BiPoint.make(P, left, middle, right, draw(st.integers(-6, 6)))


@settings(max_examples=150, deadline=None)
@given(one_sided())
def test_evperpoint_make_is_idempotent(case):
    P, prefix, cycle = case
    p = EvPerPoint.make(P, prefix, cycle)
    assert EvPerPoint.make(P, p.prefix, p.cycle) == p
    n = len(prefix) + 2 * len(cycle)
    assert p.symbols(n) == (prefix + cycle * 2)[:n]


@settings(max_examples=150, deadline=None)
@given(two_sided())
def test_bipoint_make_is_idempotent(bx):
    again = BiPoint.make(bx.presentation, bx.left_cycle, bx.middle,
                         bx.right_cycle, bx.phase)
    assert again == bx


@settings(max_examples=150, deadline=None)
@given(one_sided(), st.integers(0, 8), st.integers(0, 8))
def test_one_sided_shift_is_additive(case, a, b):
    p = EvPerPoint.make(*case)
    assert p.shift(a).shift(b) == p.shift(a + b)


@settings(max_examples=150, deadline=None)
@given(two_sided(), st.integers(0, 12))
def test_tail_reads_word_range(bx, k):
    for i in range(-8, 9):
        assert bx.tail(i).symbols(k) == bx.word_range(i, i + k)


@settings(max_examples=150, deadline=None)
@given(one_sided(), st.integers(0, 12))
def test_one_sided_shift_equals_make_of_the_suffix(case, j):
    """shift(j) builds the canonical point of the suffix from j without
    make: it must equal make on a raw (prefix, cycle) of that suffix."""
    P, prefix, cycle = case
    m = max(j, len(prefix))
    raw = prefix + cycle * ((m - len(prefix)) // len(cycle) + 2)
    suffix = EvPerPoint.make(P, raw[j:m], raw[m:m + len(cycle)])
    assert EvPerPoint.make(P, prefix, cycle).shift(j) == suffix


def test_bipoint_boundary_push_within_fine_wilf_bound():
    """With an empty middle and distinct primitive tails, make pushes the
    boundary left exactly as far as lc^inf and rc^inf agree, which is
    fewer than |lc| + |rc| - gcd symbols (Fine-Wilf)."""
    P = full_shift(3)
    cycles = P.cycles(5)
    slack = []
    for lc in cycles:
        for c in cycles:
            for rc in rotations(c):
                if rc == lc:
                    continue
                p, q = len(lc), len(rc)
                agree = 0
                while lc[-1 - agree % p] == rc[-1 - agree % q]:
                    agree += 1
                slack.append(p + q - gcd(p, q) - agree)
                bx = BiPoint.make(P, lc, (), rc)
                assert bx.phase == agree and bx.middle == ()
                assert bx.left_cycle[-1] != bx.right_cycle[-1]
                n = p + q
                assert bx.word_range(-n, n) == (lc * n)[-n:] + (rc * n)[:n]
    assert min(slack) == 1  # the bound holds, and some pair is extremal


@settings(max_examples=150, deadline=None)
@given(st.one_of(two_sided(), two_sided().map(
    lambda bx: BiPoint.periodic(bx.presentation, bx.left_cycle, bx.phase))))
def test_tail_equals_make_of_its_raw_words(bx):
    """tail builds its canonical point without make: it must equal make on
    a raw representation of the same tail, a prefix that runs a period into
    the right tail and that period written twice as the cycle."""
    m, q = len(bx.middle), len(bx.right_cycle)
    for i in range(-8, 9):
        k = max(i, m - bx.phase) + q
        raw = EvPerPoint.make(bx.presentation, bx.word_range(i, k),
                              bx.word_range(k, k + 2 * q))
        assert bx.tail(i) == raw


# -- sliced reads equal symbol-by-symbol reads ---------------------------------

@settings(max_examples=150, deadline=None)
@given(two_sided(), st.integers(-16, 16), st.integers(-16, 16))
def test_bipoint_word_range_reads_each_symbol(bx, a, b):
    """word_range slices the left cycle, the middle and the right cycle; it
    must read what symbol reads, on any range, empty ones (a >= b)
    included, and on a range that crosses all three parts."""
    assert bx.word_range(a, b) == tuple(bx.symbol(j) for j in range(a, b))
    lo = -bx.phase - 2 * len(bx.left_cycle) - 1
    hi = len(bx.middle) - bx.phase + 2 * len(bx.right_cycle) + 1
    assert bx.word_range(lo, hi) == tuple(bx.symbol(j) for j in range(lo, hi))


@settings(max_examples=150, deadline=None)
@given(one_sided(), st.integers(0, 20), st.integers(0, 20))
def test_evperpoint_sliced_reads_each_symbol(case, a, b):
    p = EvPerPoint.make(*case)
    assert p.word_range(a, b) == tuple(p.symbol(i) for i in range(a, b))
    assert p.symbols(b) == tuple(p.symbol(i) for i in range(b))
    assert p.word_range(-1, -1) == ()
    with pytest.raises(IndexError):
        p.word_range(-1, b + 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 16), st.randoms(use_true_random=False))
def test_equal_presentations_hash_equal(seed, rng):
    """The hash is computed once, in __init__; two equal presentations
    built separately, edges in another order, hash equal, and so do their
    points."""
    P = random_presentation(random.Random(seed))
    edges = sorted(P.edges)
    rng.shuffle(edges)
    Q = Presentation(list(P.labels), edges)
    assert Q is not P and Q == P and hash(Q) == hash(P)
    cycle = P.cycles(3)[0]
    assert hash(EvPerPoint(P, (), cycle)) == hash(EvPerPoint(Q, (), cycle))
    assert {P: 1}[Q] == 1


def test_point_strings_tell_apart_labels_of_several_characters():
    """On a shift with 11 or more vertices, (1, 11) and its shift (11, 1)
    used to print alike; a word's labels are joined by "." as soon as one
    int or str label prints as more than one character."""
    P = full_shift(12)
    x = BiPoint.periodic(P, (1, 11))
    assert (str(x), str(x.shift(1))) == ("1.11||1.11@0", "11.1||11.1@0")
    assert str(EvPerPoint.make(P, (10,), (1, 11))) == "10/1.11"
    assert str(BiPoint.make(P, (0,), (10, 2), (3,), 1)) == "0|10.2|3@1"
    Q = full_shift(2, ("a", "bc"))
    assert str(BiPoint.periodic(Q, ("a", "bc"))) == "a.bc||a.bc@0"
    # one-character labels and tuple labels (towers) keep the plain spelling
    assert str(BiPoint.periodic(full_shift(10), (1, 9))) == "19||19@0"
    assert str(EvPerPoint.make(full_shift(2, ("a", "b")), ("a",), ("b",))) \
        == "a/b"
    T = Presentation([(0, 0), (0, 1)], [((0, 0), (0, 1)), ((0, 1), (0, 0))])
    assert T.label_separator == ""
    assert str(BiPoint.periodic(T, ((0, 0), (0, 1)))) \
        == "(0, 0)(0, 1)||(0, 0)(0, 1)@0"
