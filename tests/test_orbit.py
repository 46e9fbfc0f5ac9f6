import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from sftkit import (
    CylinderFunction,
    EvPerPoint,
    OrbitEquivalence,
    bold_varphi,
    bowen_franks,
    check_least_period_preserving,
    coe_to_flow_pipeline,
    derive_cocycle_pair,
    full_shift,
    golden_mean,
    identity_map,
    orbit_sum,
    prefix_exchange,
    solve_coboundary,
    verify_coe,
    verify_flow_claims,
    word,
)
from sftkit.errors import InvalidCode, LeastPeriodViolation
from sftkit.maps import Images
from sftkit.orbit import CocyclePair, _on_code
from sftkit.presentation import Presentation
from sftkit.samples import (
    random_bipoint,
    random_bipoints,
    random_prefix_exchange,
    random_presentation,
    random_split_conjugacy,
)


@pytest.fixture
def std_oe(std_exchange):
    return OrbitEquivalence(std_exchange)


def test_derive_conjugacy_gives_zero_one(full2):
    rng = random.Random(1)
    h = random_split_conjugacy(rng, full2, moves=2)
    pair = derive_cocycle_pair(h)
    assert set(pair.k.table.values()) == {0}
    assert set(pair.l.table.values()) == {1}


def test_derive_std_exchange_values(std_oe):
    pair = derive_cocycle_pair(std_oe)
    assert pair.depth == 3
    assert (pair.k.value_on(word("000")), pair.l.value_on(word("000"))) == (1, 2)
    assert (pair.k.value_on(word("010")), pair.l.value_on(word("010"))) == (0, 3)
    assert pair.l.value_on(word("100")) - pair.k.value_on(word("100")) == -1
    assert (pair.k.value_on(word("111")), pair.l.value_on(word("111"))) == (0, 1)


def test_verify_identity_pair(full2, gm):
    from sftkit.samples import random_presentation
    rng = random.Random(2)
    presentations = [full2, gm] + [random_presentation(rng, 4)
                                   for _ in range(6)]
    for P in presentations:
        h = OrbitEquivalence(identity_map(P))
        zero = CylinderFunction.constant(P, 0)
        one = CylinderFunction.constant(P, 1)
        pair = CocyclePair(zero, one)
        rep = verify_coe(h, pair, pair)
        assert rep.verified and rep.least_period_preserving


def test_verify_derived_pair(std_oe):
    pair = derive_cocycle_pair(std_oe)
    pair_p = derive_cocycle_pair(std_oe.inverse())
    rep = verify_coe(std_oe, pair, pair_p)
    assert rep.verified
    assert not rep.failures


def test_verify_detects_corrupted_l(std_oe, full2):
    pair = derive_cocycle_pair(std_oe)
    bad = dict(pair.l.table)
    key = word("010")
    bad[key] += 1
    corrupted = CocyclePair(pair.k, CylinderFunction(full2, pair.depth, bad))
    rep = verify_coe(std_oe, corrupted, derive_cocycle_pair(std_oe.inverse()))
    assert not rep.verified
    offending = [w for w, _, _ in rep.failures]
    assert any(w[:len(key)] == key for w in offending)
    # counterexamples re-verify pointwise
    found_concrete = False
    for w, reason, ce in rep.failures:
        if ce is not None:
            found_concrete = True
            lhs = std_oe(ce.shift(1)).shift(corrupted.k.value_on(w))
            rhs = std_oe(ce).shift(corrupted.l.value_on(w))
            assert lhs != rhs
    assert found_concrete


def test_least_period_preserving_values(std_oe, full2):
    pair = derive_cocycle_pair(std_oe)
    ok, witnesses = check_least_period_preserving(std_oe, pair,
                                                  full2.cycles(6))
    assert ok and not witnesses
    diff = pair.difference()
    assert orbit_sum(diff, word("0")) == 1
    assert orbit_sum(diff, word("1")) == 1
    assert orbit_sum(diff, word("01")) == 2


def test_least_period_fault_injection(std_oe, full2):
    # force (k, l) = (0, 0) on the 0-fixed-point's cylinder; the orbit sum
    # there drops to 0 while lp(h(0^inf)) stays 1
    pair = derive_cocycle_pair(std_oe)
    ktab, ltab = dict(pair.k.table), dict(pair.l.table)
    ktab[word("000")] = ltab[word("000")] = 0
    bumped = CocyclePair(CylinderFunction(full2, pair.depth, ktab),
                         CylinderFunction(full2, pair.depth, ltab))
    ok, witnesses = check_least_period_preserving(std_oe, bumped,
                                                  full2.cycles(4))
    assert not ok
    points = [w[0] for w in witnesses]
    fixed = EvPerPoint.make(full2, (), (0,))
    assert fixed in points
    x, want, got = witnesses[points.index(fixed)]
    assert (want, got) == (1, 0)


def test_scoe_transfer_conjugacy(full2):
    h = OrbitEquivalence(identity_map(full2))
    zero = CylinderFunction.constant(full2, 0)
    one = CylinderFunction.constant(full2, 1)
    b = verify_coe(h, CocyclePair(zero, one), CocyclePair(zero, one)
                   ).scoe_transfer
    assert b is not None
    assert set(b.refine(1).table.values()) == {0}


def test_scoe_transfer_orbit_obstruction(std_oe):
    pair = derive_cocycle_pair(std_oe)
    # the 0-fixed-point has (l-k)-sum 1 = its period, but the 2-cycle's sum
    # is 2 and the identity needs every cycle sum to equal cycle length;
    # here sums do match, so instead check a pair that cannot transfer
    broken = CocyclePair(pair.k, pair.l + 1)
    assert solve_coboundary(std_oe.domain, broken.difference() - 1,
                            broken.depth) is None


def test_scoe_transfer_planted(full2):
    g = CylinderFunction.from_values(full2, {"00": 1, "01": 0,
                                             "10": 2, "11": 1})
    target = g.coboundary() + 1  # l - k = 1 + dg
    l = target + 3  # keep both components non-negative
    k = CylinderFunction.constant(full2, 3).refine(l.depth)
    h = OrbitEquivalence(identity_map(full2))
    b = solve_coboundary(h.domain, CocyclePair(k, l).difference() - 1,
                         l.depth)
    assert b is not None
    assert (l - k) == CylinderFunction.constant(full2, 1) + b.coboundary()


def test_pipeline_conjugacy_has_unit_n(full2):
    rng = random.Random(5)
    h = random_split_conjugacy(rng, full2, moves=2)
    D = coe_to_flow_pipeline(h, scoe=True)
    assert set(D.n.table.values()) == {1}
    assert set(D.n_prime.table.values()) == {1}
    for _ in range(20):
        bx = random_bipoint(rng, h.domain)
        assert bold_varphi(D, bx.shift(1)) == bold_varphi(D, bx).shift(1)


def test_pipeline_std_exchange_full_run(std_oe, full2):
    D = coe_to_flow_pipeline(std_oe)
    from sftkit import verify_flow_claims
    rng = random.Random(17)
    sample = [random_bipoint(rng, full2) for _ in range(6)]
    rep = verify_flow_claims(D, sample, j_range=(-3, 3), p_range=(-2, 2))
    assert rep.all_pass()


def test_pipeline_positivity_of_orbit_sums(std_oe, full2):
    D = coe_to_flow_pipeline(std_oe)
    diff = D.l - D.k
    for c in full2.cycles(6):
        s = orbit_sum(diff, c)
        assert s == orbit_sum(D.n, c)
        assert s >= 1


def test_pipeline_decides_each_positivity_once(std_oe, monkeypatch):
    # verify_coe certifies l - k and the pipeline lifts that certificate;
    # only l' - k' is decided again, inside decompose_positive
    import sftkit.cohomology as cohomology_mod
    import sftkit.orbit as orbit_mod
    decide, decided = cohomology_mod.class_is_positive, []

    def counting(P, f):
        decided.append(f)
        return decide(P, f)

    pair = derive_cocycle_pair(std_oe)
    rep = verify_coe(std_oe, pair, derive_cocycle_pair(std_oe.inverse()))
    assert rep.positivity.verify(pair.difference())
    monkeypatch.setattr(orbit_mod, "class_is_positive", counting)
    monkeypatch.setattr(cohomology_mod, "class_is_positive", counting)
    D = coe_to_flow_pipeline(std_oe)
    assert len(decided) == 2
    assert (D.n, D.b) == rep.positivity.lifted(pair.l)


def test_pipeline_rejects_lp_violation(std_oe, full2, monkeypatch):
    # derived pairs on honest full-shift exchanges preserve periods, so the
    # error path is driven by a stubbed check
    import sftkit.orbit as orbit_mod
    fixed = EvPerPoint.make(full2, (), (0,))

    def fake_check(h, pair, cycles):
        return False, [(fixed, 1, 0)]

    monkeypatch.setattr(orbit_mod, "check_least_period_preserving", fake_check)
    with pytest.raises(LeastPeriodViolation):
        orbit_mod.coe_to_flow_pipeline(std_oe)


def test_composition_closure(full2, std_exchange):
    rng = random.Random(9)
    pe = OrbitEquivalence(std_exchange)
    other = random_prefix_exchange(rng, full2)
    for composed in [pe.compose(pe), pe.compose(other), other.compose(pe)]:
        pair = derive_cocycle_pair(composed)
        pair_p = derive_cocycle_pair(composed.inverse())
        rep = verify_coe(composed, pair, pair_p)
        assert rep.verified and rep.least_period_preserving


def test_pipeline_consistency_tripwire(full2):
    rng = random.Random(21)
    h = random_split_conjugacy(rng, full2, moves=3)
    D = coe_to_flow_pipeline(h, scoe=True)
    assert bowen_franks(h.domain) == bowen_franks(h.codomain)


def test_verify_coe_reports_scoe(full2):
    rng = random.Random(3)
    h = random_split_conjugacy(rng, full2, moves=1)
    pair = derive_cocycle_pair(h)
    rep = verify_coe(h, pair, derive_cocycle_pair(h.inverse()))
    assert rep.scoe_transfer is not None
    assert rep.as_dict()["strongly_coe"]


def _verified_pairs(loop_into_loop, single_loop):
    """(h, pair, pair_prime) on seeded exchanges, split conjugacies and
    compositions with their derived pairs, and on identity maps with
    verified pairs that are not strongly COE."""
    rng = random.Random(6)
    maps = list(_general_maps(60, seed=6))
    for P in (full_shift(2), full_shift(3)):
        pe, other = (random_prefix_exchange(rng, P) for _ in range(2))
        split = random_split_conjugacy(rng, P, 2)
        maps += [pe.compose(other), other.compose(pe),
                 split.compose(random_prefix_exchange(rng, split.codomain))]
    for h in maps:
        yield h, derive_cocycle_pair(h), derive_cocycle_pair(h.inverse())
    h = OrbitEquivalence(identity_map(loop_into_loop))
    k = CylinderFunction.constant(loop_into_loop, 0).refine(1)
    pair = CocyclePair(k, CylinderFunction.from_values(
        loop_into_loop, {("a",): 1, ("b",): 2}))
    yield h, pair, pair
    h = OrbitEquivalence(identity_map(single_loop))
    for kv, lv in [(1, 1), (0, 2), (1, 0), (2, 1)]:
        pair = CocyclePair(CylinderFunction.constant(single_loop, kv),
                           CylinderFunction.constant(single_loop, lv))
        yield h, pair, pair


def test_scoe_transfer_is_decided_exactly(loop_into_loop, single_loop):
    """verify_coe's transfer exists exactly when l - k - 1 is a coboundary
    at any depth, and it witnesses l - k = 1 + t - t o sigma."""
    found = {True: 0, False: 0}
    for h, pair, pair_prime in _verified_pairs(loop_into_loop, single_loop):
        rep = verify_coe(h, pair, pair_prime)
        assert rep.verified
        diff = pair.difference()
        deep = solve_coboundary(h.domain, diff - 1, 99)
        t = rep.scoe_transfer
        assert (t is not None) == (deep is not None), h.forward
        if t is not None:
            assert diff == t.coboundary() + 1
        found[t is not None] += 1
    assert found == {True: 66, False: 5}


def test_solve_coboundary_depth_cap(full2):
    from sftkit import CylinderFunction, solve_coboundary
    g = CylinderFunction(full2, 3, {w: hash(w) % 5 - 2
                                    for w in full2.language(3)})
    df = g.coboundary()
    deep = solve_coboundary(full2, df, 8)
    assert deep.depth == 3
    assert deep.coboundary() == df
    assert solve_coboundary(full2, df, 2) is None


def test_random_prefix_exchanges_verify(full2, full3):
    rng = random.Random(13)
    for P in (full2, full3):
        for _ in range(3):
            h = random_prefix_exchange(rng, P)
            pair = derive_cocycle_pair(h)
            pair_p = derive_cocycle_pair(h.inverse())
            rep = verify_coe(h, pair, pair_p)
            assert rep.verified
            assert rep.least_period_preserving


def _general_maps(count, seed=7):
    """Seeded maps on random_presentation(rng, 4): 70% prefix exchanges,
    30% random_split_conjugacy(., 2)."""
    rng = random.Random(seed)
    maps = 0
    while maps < count:
        P = random_presentation(rng, 4)
        if rng.random() < 0.7:
            try:
                h = random_prefix_exchange(rng, P)
            except InvalidCode:
                continue  # no non-identity exchange in 100 draws
        else:
            h = random_split_conjugacy(rng, P, 2)
        yield h
        maps += 1


def test_least_period_verdict_matches_the_bounded_oracle(monkeypatch):
    """On general presentations (reducible ones and isolated periodic
    points included), verify_coe's verdict for every period agrees with a
    direct check of every orbit of length <= 8, and it evaluates exactly
    the poor orbits."""
    import sftkit.orbit as orbit_mod
    check = orbit_mod.check_least_period_preserving
    evaluated = []

    def spy(h, pair, cycles):
        evaluated.append(cycles)
        return check(h, pair, cycles)

    monkeypatch.setattr(orbit_mod, "check_least_period_preserving", spy)
    with_poor = 0
    for h in _general_maps(300):
        pair = derive_cocycle_pair(h)
        evaluated.clear()
        rep = verify_coe(h, pair, derive_cocycle_pair(h.inverse()))
        assert rep.verified
        assert evaluated == [h.domain.poor_cycles()]
        assert rep.lp_checked_cycles == len(evaluated[0])
        ok, witnesses = check(h, pair, h.domain.cycles(8))
        assert rep.least_period_preserving == ok, (h.forward, witnesses)
        with_poor += rep.lp_checked_cycles > 0
    assert with_poor >= 50


def test_generated_maps_round_trip_at_their_resolution():
    """The inverse each constructor proves undoes the map on the completion
    of every cylinder of length max(prefix_needed(1), 2), both ways."""
    points = 0
    for h in _general_maps(300):
        d = max(h.forward.prefix_needed(1), 2)
        for P, f, g in [(h.domain, h.forward, h.backward),
                        (h.codomain, h.backward, h.forward)]:
            for w in P.words(d):
                x = EvPerPoint.make(P, *P.complete_to_cycle_word(w))
                assert g(f(x)) == x, (h.forward, w)
                points += 1
    assert points > 10000


def test_pipeline_and_claims_on_general_maps():
    rng = random.Random(5)
    claims = 0
    for h in _general_maps(60):
        D = coe_to_flow_pipeline(h)
        # drawn on h.domain: a split conjugacy may be inverted, so its
        # domain need not be the presentation it was drawn on
        rep = verify_flow_claims(D, random_bipoints(rng, h.domain, 4))
        assert not rep.failures and not rep.inconclusive, h.forward
        claims += len(rep.results)
    assert claims > 2000


def test_general_fixtures_preserve_least_periods(loop_into_loop,
                                                 rich_into_permutation,
                                                 two_rich_components):
    rng = random.Random(4)
    for P in (loop_into_loop, rich_into_permutation, two_rich_components):
        for h in (random_prefix_exchange(rng, P),
                  random_split_conjugacy(rng, P, 2)):
            pair = derive_cocycle_pair(h)
            rep = verify_coe(h, pair, derive_cocycle_pair(h.inverse()))
            assert rep.verified and rep.least_period_preserving
            assert rep.lp_checked_cycles == len(h.domain.poor_cycles())
            D = coe_to_flow_pipeline(h)
            assert D.n.is_nonnegative()


def test_poor_orbit_fault_is_reported(loop_into_loop):
    # raising l by one on Z(b) lifts the orbit sum of the isolated fixed
    # point b^inf to 2 while lp(h(b^inf)) stays 1
    P = loop_into_loop
    h = random_prefix_exchange(random.Random(2), P)
    pair = derive_cocycle_pair(h)
    pair_p = derive_cocycle_pair(h.inverse())
    assert verify_coe(h, pair, pair_p).least_period_preserving
    ltab = {w: v + (w[0] == "b") for w, v in pair.l.table.items()}
    bumped = CocyclePair(pair.k, CylinderFunction(P, pair.depth, ltab))
    ok, witnesses = check_least_period_preserving(h, bumped, P.poor_cycles())
    assert not ok
    assert [(str(x), want, got) for x, want, got in witnesses] == \
        [("/b", 1, 2)]
    # Z(b) is the single point b^inf, where the bumped identity holds, so
    # the pair verifies and the poor orbit is the witness
    rep = verify_coe(h, bumped, pair_p)
    assert rep.verified
    assert not rep.least_period_preserving
    assert [(str(x), want, got) for x, want, got in rep.lp_witnesses] == \
        [("/b", 1, 2)]


def test_pairs_are_settled_pointwise_on_one_point_cylinders(loop_into_loop,
                                                            single_loop):
    # sigma^k(sigma x) = sigma^l(x) with l - k = 2 on Z(b) of a -> b: the
    # symbolic tails are misaligned, but Z(b) holds only b^inf
    P = loop_into_loop
    h = OrbitEquivalence(identity_map(P))
    k = CylinderFunction.constant(P, 0).refine(1)
    good = CocyclePair(k, CylinderFunction.from_values(P, {("a",): 1,
                                                           ("b",): 2}))
    assert verify_coe(h, good, good).verified
    # Z(a) holds a^n b^inf as well, where l - k = 2 fails
    bad = CocyclePair(k, CylinderFunction.from_values(P, {("a",): 2,
                                                          ("b",): 1}))
    rep = verify_coe(h, bad, bad)
    assert not rep.verified
    assert [w for w, _, _ in rep.failures if w[0] == "b"] == []
    Q = single_loop
    h = OrbitEquivalence(identity_map(Q))
    for kv, lv in [(1, 1), (0, 2), (1, 0), (2, 1)]:
        pair = CocyclePair(CylinderFunction.constant(Q, kv),
                           CylinderFunction.constant(Q, lv))
        assert verify_coe(h, pair, pair).verified, (kv, lv)


def test_failed_identity_leaves_the_verdict_unestablished(std_oe, full2):
    pair = derive_cocycle_pair(std_oe)
    corrupted = CocyclePair(pair.k, pair.l + 1)
    rep = verify_coe(std_oe, corrupted, derive_cocycle_pair(std_oe.inverse()))
    assert not rep.verified
    assert not rep.least_period_preserving
    assert rep.lp_witnesses == [] and rep.lp_checked_cycles == 0


def test_negative_class_is_the_lp_witness(full2, monkeypatch):
    # the identity map with (k, l) = (0, 1) on Z(0) and (2, 1) on Z(1):
    # with the identities taken as verified, l - k sums to -1 on 1^inf
    import sftkit.orbit as orbit_mod
    monkeypatch.setattr(orbit_mod, "_verify_pair_on", lambda *args: [])
    h = OrbitEquivalence(identity_map(full2))
    k = CylinderFunction.from_values(full2, {"0": 0, "1": 2})
    l = CylinderFunction.constant(full2, 1).refine(1)
    rep = verify_coe(h, CocyclePair(k, l), CocyclePair(k, l))
    assert rep.verified and rep.lp_checked_cycles == 0
    assert not rep.least_period_preserving and rep.positivity is None
    assert rep.lp_witnesses == [(EvPerPoint.make(full2, (), (1,)), 1, -1)]


def test_derived_pairs_pass_the_exhaustive_check(loop_into_loop,
                                                 rich_into_permutation,
                                                 two_rich_components):
    """verify_coe takes a derived pair as proven; the exhaustive check it
    skips stays the reference, on both sides of every map."""
    from sftkit.orbit import _verify_pair_on
    rng = random.Random(9)
    fixtures = [f(rng, P, *a) for P in (loop_into_loop, rich_into_permutation,
                                        two_rich_components)
                for f, a in ((random_prefix_exchange, ()),
                             (random_split_conjugacy, (2,)))]
    for h in [*_general_maps(120, seed=11), *fixtures]:
        for P, pm, g in [(h.domain, h.forward, h),
                         (h.codomain, h.backward, h.inverse())]:
            pair = derive_cocycle_pair(g)
            assert pair._proven_for is pm
            assert _verify_pair_on(P, pm, pair) == [], (pm, pair)


def test_a_stale_proof_gets_the_exhaustive_check(std_oe, full2):
    import dataclasses
    pair = derive_cocycle_pair(std_oe)
    pair_p = derive_cocycle_pair(std_oe.inverse())
    bumped = dataclasses.replace(pair, l=pair.l + 1)
    assert bumped._proven_for is None
    assert verify_coe(std_oe, bumped, pair_p).as_dict()["failures"] == [
        ["(0, 0, 0)", "misaligned tails (-1 vs -2)", "00/01"],
        ["(0, 0, 1)", "misaligned tails (-1 vs -2)", "0/01"],
        ["(0, 1, 0)", "misaligned tails (-2 vs -3)", "/01"],
        ["(0, 1, 1)", "misaligned tails (-1 vs -2)", "01/10"],
        ["(1, 0, 0)", "misaligned tails (-1 vs -2)", "10/01"],
        ["(1, 0, 1)", "misaligned tails (-1 vs -2)", "/10"],
        ["(1, 1, 0)", "misaligned tails (-2 vs -3)", "1/10"],
        ["(1, 1, 1)", "misaligned tails (-1 vs -2)", "11/10"]]
    assert verify_coe(std_oe, pair, dataclasses.replace(pair_p)).verified
    # a pair derived for another map, on the same shift
    g = OrbitEquivalence(identity_map(full2))
    rep = verify_coe(std_oe, derive_cocycle_pair(g), pair_p)
    assert not rep.verified
    assert rep.as_dict()["failures"] == [
        ["(0, 1, 1)", "misaligned tails (-1 vs 0)", "01/10"],
        ["(0, 1, 0)", "misaligned tails (-2 vs 0)", "None"],
        ["(0, 0)", "symbols differ at position 0: 1 vs 0", "0/01"],
        ["(1, 1, 0)", "misaligned tails (-2 vs -1)", "1/10"],
        ["(1, 0)", "misaligned tails (0 vs -2)", "None"]]
    rep = verify_coe(g, pair, pair_p)
    assert not rep.verified and rep.failures


def _there_and_back(P, L):
    """E then its inverse, E the prefix exchange on the code
    {0^i 1 : i < L} + {0^L} that swaps 1 with 0^(L-1) 1: the identity map,
    whose stages read up to L + 1 symbols."""
    code = [(0,) * i + (1,) for i in range(L)] + [(0,) * L]
    pairing = {u: u for u in code}
    pairing[(1,)], pairing[code[L - 1]] = code[L - 1], (1,)
    E = prefix_exchange(P, pairing)
    return OrbitEquivalence(E.then(E.inverse()))


def _k0_l1(P):
    """The constant pair k = 0, l = 1 at depth 1."""
    return CocyclePair(CylinderFunction(P, 1, dict.fromkeys(P.words(1), 0)),
                       CylinderFunction(P, 1, dict.fromkeys(P.words(1), 1)))


@pytest.mark.parametrize("L", [9, 10, 11, 12, 13])
def test_a_pair_is_checked_as_deep_as_its_derivation(full2, L):
    # refinement once stopped 8 symbols past the pair's depth and reported
    # "undetermined within slack" although the pair holds
    h = _there_and_back(full2, L)
    derived = derive_cocycle_pair(h)
    assert derived.depth == L + 1
    assert set(derived.k.table.values()) == {0}
    assert set(derived.l.table.values()) == {1}
    pair = _k0_l1(full2)
    rep = verify_coe(h, pair, pair)
    assert rep.verified and rep.failures == []
    # h is the identity, so strongly COE at every derivable depth: the
    # transfer of its derived pair solves at depth L, and the pipeline's
    # n is the constant 1
    rep = verify_coe(h, derived, derive_cocycle_pair(h.inverse()))
    assert rep.as_dict()["strongly_coe"]
    n = coe_to_flow_pipeline(h, scoe=True).n
    assert (n.depth, n) == (0, CylinderFunction.constant(full2, 1))


def test_refinement_stops_at_the_derived_depth(full2, monkeypatch):
    import sftkit.orbit as orbit_mod
    from sftkit.errors import VerificationFailed
    pair = _k0_l1(full2)
    # the derivation the bound comes from goes as deep as the map needs
    rep = verify_coe(_there_and_back(full2, 12), pair, pair)
    assert rep.verified and rep.failures == []
    # a check that needs more than the derivation did is an internal fault
    shallow = orbit_mod._derived_code(identity_map(full2), Images(()))
    monkeypatch.setattr(orbit_mod, "_derived_code", lambda pm, im: shallow)
    with pytest.raises(VerificationFailed):
        verify_coe(_there_and_back(full2, 9), pair, pair)


def _mixed_compositions(count, seed=11):
    """Seeded compositions of 2-5 maps on random_presentation(rng, 5),
    each a prefix exchange or a one-move split conjugacy (60 : 40)."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        h = None
        P = random_presentation(rng, 5)
        for _ in range(rng.randint(2, 5)):
            Q = P if h is None else h.codomain
            try:
                g = (random_prefix_exchange(rng, Q) if rng.random() < 0.6
                     else random_split_conjugacy(rng, Q, 1))
            except InvalidCode:
                continue  # no non-identity exchange in 100 draws
            if g.domain != Q:
                g = g.inverse()  # the split ended on its inverse
            h = g if h is None else h.compose(g)
        if h is not None:
            yield h
            made += 1


def test_derived_depth_is_within_the_stages_bound(full2):
    """Every derivation resolves by h.forward.prefix_needed(1): 1 plus the
    stages' reaches.  Both directions of seeded exchanges, split
    conjugacies, compositions (reducible presentations included) and the
    composed identities E then E^-1; block stages meet the bound."""
    maps = [*_general_maps(60, seed=8), *_mixed_compositions(60),
            *(_there_and_back(full2, L) for L in range(2, 9))]
    depths, tight, reducible = set(), 0, 0
    for h in maps:
        for g in (h, h.inverse()):
            depth, bound = derive_cocycle_pair(g).depth, \
                g.forward.prefix_needed(1)
            assert depth <= bound, g.forward
            depths.add(depth)
            tight += depth == bound
            P = g.domain
            reducible += any(P.reachable(v) != set(P.labels)
                             for v in P.labels)
    assert tight >= 20 and reducible >= 20 and max(depths) >= 8


def test_a_bound_below_the_need_is_a_broken_proof(full2, std_oe,
                                                  monkeypatch):
    """A cylinder that asks for more than the stages' bound means the
    bound's proof is wrong: VerificationFailed, never a silent cut."""
    from sftkit.errors import VerificationFailed
    from sftkit.maps import PointMap
    h = _there_and_back(full2, 5)
    assert derive_cocycle_pair(h).depth == 6
    monkeypatch.setattr(PointMap, "prefix_needed", lambda self, m: 5)
    with pytest.raises(VerificationFailed, match="does not resolve at the "
                                                 "bound 5"):
        derive_cocycle_pair(h)
    monkeypatch.setattr(PointMap, "prefix_needed", lambda self, m: 1)
    with pytest.raises(VerificationFailed):
        coe_to_flow_pipeline(std_oe)
    # a bound the map meets exactly still derives
    monkeypatch.setattr(PointMap, "prefix_needed", lambda self, m: 6)
    assert derive_cocycle_pair(h).depth == 6


def test_derived_pairs_are_not_checked_again(std_oe, tmp_path, monkeypatch,
                                             capsys):
    import sftkit.orbit as orbit_mod
    from sftkit.cli import main
    check = orbit_mod._verify_pair_on
    calls = []

    def spy(P, pm, pair):
        calls.append(pm)
        return check(P, pm, pair)

    monkeypatch.setattr(orbit_mod, "_verify_pair_on", spy)
    coe_to_flow_pipeline(std_oe, scoe=True)
    (tmp_path / "full2.sft").write_text(
        "sft v1\nvertices 2\nedge 0 0\nedge 0 1\nedge 1 0\nedge 1 1\n")
    (tmp_path / "pe.oe").write_text("oe v1\ndomain full2.sft\n"
                                    "codomain full2.sft\nmap 0 -> 10\n"
                                    "map 10 -> 0\nmap 11 -> 11\n")
    assert main(["verify-coe", str(tmp_path / "pe.oe")]) == 0
    assert "verified: true" in capsys.readouterr().out
    assert calls == []
    # h.inverse().inverse() is a new PointMap, so its pair is checked
    twice = std_oe.inverse().inverse()
    rep = verify_coe(std_oe, derive_cocycle_pair(twice),
                     derive_cocycle_pair(std_oe.inverse()))
    assert rep.verified and calls == [std_oe.forward]


@pytest.mark.parametrize("k, l, message", [
    ({"0": 0, "1": 0}, 1, "k and l must share a depth"),
    (-1, 0, "cocycle values must be non-negative"),
], ids=["depths-differ", "negative-value"])
def test_cocycle_pair_rejects_bad_parts(full2, k, l, message):
    def fn(spec):
        return (CylinderFunction.from_values(full2, spec) if type(spec) is dict
                else CylinderFunction.constant(full2, spec))
    with pytest.raises(ValueError) as exc:
        CocyclePair(fn(k), fn(l))
    assert str(exc.value) == message


def _certify_pool(seed=7):
    """The maps of perfbench's certify workload at this seed: the standard
    exchange, then prefix exchanges on the full 4-shift (50) and 3-shift
    (10), compositions of two full-2-shift exchanges (10) and split
    conjugacies on the full 3-shift and the golden mean (10 each),
    interleaved by kind."""
    rng = random.Random(seed)
    std = OrbitEquivalence(prefix_exchange(full_shift(2), {
        word("0"): word("10"), word("10"): word("0"),
        word("11"): word("11")}))
    make = {
        "exchange-full4": lambda: random_prefix_exchange(rng, full_shift(4),
                                                         2),
        "exchange-full3": lambda: random_prefix_exchange(rng, full_shift(3),
                                                         3),
        "composed-full2": lambda: random_prefix_exchange(
            rng, full_shift(2), 2).compose(
                random_prefix_exchange(rng, full_shift(2), 2)),
        "split-full3": lambda: random_split_conjugacy(rng, full_shift(3), 3),
        "split-golden": lambda: random_split_conjugacy(rng, golden_mean(), 3),
    }
    counts = {"exchange-full4": 50, "exchange-full3": 10,
              "composed-full2": 10, "split-full3": 10, "split-golden": 10}
    return [std] + [make[kind]() for i in range(max(counts.values()))
                    for kind, count in counts.items() if i < count]


@pytest.mark.parametrize("pool, digest", [
    (_certify_pool,
     "40ce0228bfec4110b1bf3409240c55b034efd274ecf73959776bfff6586d55cb"),
    (lambda: _general_maps(60, seed=6),
     "c21bff05995719240b45cb8bce2f41ceb4fd0e85919cd33a6821a05d6802d032"),
    (lambda: _general_maps(60, seed=8),
     "a9f7033f469355b603be2f88f53327d8bff25de4a360350c0429e4d870f41f71"),
    (lambda: _general_maps(120, seed=11),
     "cbd5674cc77599b1574b677e254188c27b98cbdf63b0641e3a06854a3aecdece"),
    (lambda: _mixed_compositions(60),
     "752cbe8fe51fa960574d9036fc45602e20873916fc3861d60596b20741eda466"),
], ids=["certify-7", "general-6", "general-8", "general-11", "mixed-11"])
def test_derived_tables_are_pinned(pool, digest):
    """The (k, l) tables of both directions of every map, depth and word
    order included, are those the derivation gave when it computed every
    image afresh and searched every word's governing prefix."""
    h = hashlib.sha256()
    for m in pool():
        for g in (m, m.inverse()):
            pair = derive_cocycle_pair(g)
            h.update(repr((pair.depth, list(pair.k.table.items()),
                           list(pair.l.table.items()))).encode())
    assert h.hexdigest() == digest


def test_each_image_is_computed_once_per_derivation(monkeypatch):
    """A derivation computes the image over each cylinder it needs once:
    over every cylinder w it tries, and over w[1:] where w's own image
    resolves.  Nothing is kept from one derivation to the next, the two
    directions of a map included."""
    import sftkit.maps as maps_mod
    import sftkit.orbit as orbit_mod
    from sftkit.errors import NeedDepth
    image_form = maps_mod.image_form
    minimal = orbit_mod.minimal_cocycle_on_cylinder
    computed, tried = [], []

    def image_spy(stages, base):
        computed.append(base)
        return image_form(stages, base)

    def minimal_spy(images, base):
        tried.append(base)
        return minimal(images, base)

    monkeypatch.setattr(maps_mod, "image_form", image_spy)
    monkeypatch.setattr(orbit_mod, "minimal_cocycle_on_cylinder", minimal_spy)
    afresh = once = 0
    for m in [*_certify_pool()[:21], *_mixed_compositions(20)]:
        for g in (m, m.inverse()):
            computed.clear()
            tried.clear()
            derive_cocycle_pair(g)
            resolving = []
            for w in tried:
                try:
                    image_form(g.forward.stages, w)
                    resolving.append(w)
                except NeedDepth:
                    pass
            want = set(tried) | {w[1:] for w in resolving}
            assert len(computed) == len(set(computed)), g.forward
            assert set(computed) == want, g.forward
            afresh += len(tried) + len(resolving)
            once += len(computed)
    # computing each image at every call, these derivations made 22 716
    assert (afresh, once) == (22716, 11965)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_the_code_fill_equals_the_prefix_search(seed):
    """_on_code gives each word of P.words(d) the value of its prefix in
    the code, in P.words order, on label orders that are not sorted."""
    rng = random.Random(seed)
    Q = random_presentation(rng, 4)
    labels = list(Q.labels)
    rng.shuffle(labels)
    P = Presentation(labels, Q.edges)
    code, work = {}, P.words(1)
    while work:
        w = work.pop(rng.randrange(len(work)))
        if len(w) < 5 and rng.random() < 0.5:
            work += P.extensions(w)
        else:
            code[w] = len(code)
    depth = max(map(len, code))
    want = [code[next(w[:i] for i in range(1, depth + 1) if w[:i] in code)]
            for w in P.words(depth)]
    assert _on_code(P, code) == want
