"""Property tests for WeightProfile and the trusted BiPoint.shift.

The reference evaluates n on whole one-sided tails, n(bx.tail(i)), exactly
as m_eval/i_index/j_index/r_eval did before they read windows of symbols.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sftkit import (
    BiPoint,
    CylinderFunction,
    FlowMapData,
    OrbitEquivalence,
    WeightProfile,
    coe_to_flow_pipeline,
    full_shift,
    golden_mean,
    m_eval,
    quarter_grid,
    r_eval,
    verify_flow_claims,
)
from sftkit.errors import DegenerateN, InadmissibleWord
from sftkit.samples import (
    _is_strongly_connected,
    random_bipoint,
    random_presentation,
)
from sftkit.suspension import i_index, j_index

FULL = {2: full_shift(2), 3: full_shift(3)}


# -- reference: n on whole tails ---------------------------------------------

def ref_m(n, bx, j):
    if j > 0:
        return sum(n(bx.tail(i)) for i in range(j))
    if j < 0:
        return -sum(n(bx.tail(-i)) for i in range(1, -j + 1))
    return 0


def ref_scan_bound(n, bx, i):
    # from coordinate i, this many steps either way cross the middle and a
    # full period of the tail beyond it, so an unsuccessful scan is final
    return (abs(i + bx.phase) + len(bx.middle) + n.width()
            + len(bx.left_cycle) + len(bx.right_cycle) + 2)


def ref_i_index(n, bx, t):
    i = math.floor(Fraction(t))
    for _ in range(ref_scan_bound(n, bx, i)):
        if n(bx.tail(i)) != 0:
            return i
        i -= 1
    raise DegenerateN("no weighted index below t")


def ref_j_index(n, bx, t):
    j = math.floor(Fraction(t)) + 1
    for _ in range(ref_scan_bound(n, bx, j)):
        if n(bx.tail(j)) != 0:
            return j
        j += 1
    raise DegenerateN("no weighted index above t")


def ref_r(n, bx, t):
    t = Fraction(t)
    i = ref_i_index(n, bx, t)
    j = ref_j_index(n, bx, t)
    return ref_m(n, bx, i) + Fraction(t - i, j - i) * n(bx.tail(i))


def outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateN:
        return "degenerate"


# -- strategies ----------------------------------------------------------------

def irreducible_presentation(rng):
    while True:
        P = random_presentation(rng)
        if _is_strongly_connected(list(P.labels),
                                  [(a, b, 0) for a, b in P.edges]):
            return P


@st.composite
def weighted_points(draw):
    """(n, bx) with n >= 0 of depth 1-4 and bx a random two-sided point,
    on a full shift or an irreducible random presentation."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from([2, 3, "random"]))
    P = FULL[kind] if kind in FULL else irreducible_presentation(rng)
    depth = draw(st.integers(1, 4))
    # zeros are common so that zero runs and zero cycles occur
    n = CylinderFunction(P, depth, {w: rng.choice((0, 0, 1, 2))
                                    for w in P.language(depth)})
    return n, random_bipoint(rng, P)


@settings(max_examples=80, deadline=None)
@given(weighted_points())
def test_profile_matches_tail_reference(case):
    n, bx = case
    prof = WeightProfile(n, bx)
    for j in range(-12, 13):
        assert prof.value(j) == n(bx.tail(j))
        assert prof.m(j) == m_eval(n, bx, j) == ref_m(n, bx, j)
    for t in quarter_grid():
        assert outcome(i_index, n, bx, t) == outcome(ref_i_index, n, bx, t)
        assert outcome(j_index, n, bx, t) == outcome(ref_j_index, n, bx, t)
        assert outcome(r_eval, n, bx, t) == outcome(ref_r, n, bx, t)


@settings(max_examples=80, deadline=None)
@given(weighted_points(), st.integers(-60, 60), st.integers(1, 7))
def test_r_over_is_r_at_a_over_d(case, a, d):
    n, bx = case
    prof = WeightProfile(n, bx)

    def over():
        num, den = prof.r_over(a, d)
        assert den > 0
        return Fraction(num, den)

    assert outcome(over) == outcome(ref_r, n, bx, Fraction(a, d))


def test_claims_read_int_and_fraction_grids_alike(full2, std_exchange):
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    # raising n on 010 breaks suspension-well-defined, whose report prints t
    bad = dict(D.n.table)
    bad[(0, 1, 0)] += 1
    Dbad = FlowMapData(D.h, D.k, D.l, D.k_prime, D.l_prime, D.b, D.b_prime,
                       CylinderFunction(full2, D.n.depth, bad), D.n_prime,
                       validate=False)
    sample = [BiPoint.periodic(full2, (0, 1)),
              BiPoint.make(full2, (0,), (1, 1, 0), (0, 1), -1)]
    for data, fails in ((D, False), (Dbad, True)):
        ints = verify_flow_claims(data, sample, t_grid=[-1, 0, 1]).as_list()
        fractions = verify_flow_claims(
            data, sample,
            t_grid=[Fraction(-1), Fraction(0), Fraction(1)]).as_list()
        assert ints == fractions
        assert any(r["claim"] == "suspension-well-defined" and not r["pass"]
                   for r in ints) == fails


@settings(max_examples=80, deadline=None)
@given(weighted_points(), st.integers(-9, 9), st.integers(-9, 9))
def test_shift_is_make_and_composes(case, a, b):
    _, bx = case
    P = bx.presentation
    for j in (a, b, a + b):
        assert bx.shift(j) == BiPoint.make(P, bx.left_cycle, bx.middle,
                                           bx.right_cycle, bx.phase + j)
    assert bx.shift(a).shift(b) == bx.shift(a + b)


def test_profile_closed_form_far_out(full2):
    n = CylinderFunction.from_values(full2, {"00": 1, "01": 0,
                                             "10": 2, "11": 0})
    bx = BiPoint.make(full2, (0, 1), (1, 1, 0), (1,), 2)
    prof = WeightProfile(n, bx)
    for j in (-301, -77, 64, 250):
        assert prof.m(j) == ref_m(n, bx, j)


def test_profile_degenerate_only_on_zero_tail(full2):
    n = CylinderFunction.from_values(full2, {"0": 0, "1": 1})
    # right tail 0^inf carries no weight; the left tail 1^inf does
    bx = BiPoint.make(full2, (1,), (), (0,), 0)
    prof = WeightProfile(n, bx)
    assert prof.i_index(Fraction(1000)) == -1
    with pytest.raises(DegenerateN):
        prof.j_index(0)


def test_profile_window_outside_table_is_inadmissible(full2):
    gm = golden_mean()
    n = CylinderFunction(gm, 2, {w: 1 for w in gm.language(2)})
    # 11 is a word of the full shift but not of the golden mean
    with pytest.raises(InadmissibleWord):
        WeightProfile(n, BiPoint.periodic(full2, (1,)))


def test_j_index_from_far_left_of_a_weightless_left_cycle(full2):
    """n vanishes on the left cycle 0^inf, so the first weighted index
    after a time left of the stored range lies in the middle."""
    n = CylinderFunction.from_values(full2, {"0": 0, "1": 1})
    bx = BiPoint.make(full2, (0,), (1, 0), (1,), 0)
    prof = WeightProfile(n, bx)
    for t in (Fraction(-41, 4), -20, prof.lo - 2):
        assert math.floor(t) + 1 < prof.lo
        assert prof.j_index(t) == ref_j_index(n, bx, t) == 0
