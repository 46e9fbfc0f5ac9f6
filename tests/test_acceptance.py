"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  All checks are exact (integers and rationals, zero tolerance); the
asserted runtime budgets are part of the criteria.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import random
import time

import pytest

from sftkit import (
    BiPoint,
    CylinderFunction,
    EvPerPoint,
    OrbitEquivalence,
    bold_varphi,
    bowen_franks,
    class_is_positive,
    coe_to_flow_pipeline,
    compose,
    derive_cocycle_pair,
    find_potential,
    invert,
    make_element,
    make_tower_element,
    orbit_sum,
    prefix_exchange,
    tower_iso,
    full_shift,
    golden_mean,
    transition_graph,
    verify_coe,
    verify_flow_claims,
    word,
    Tower,
    TowerSpec,
)
from sftkit.cohomology import Arc, NegativeCycleWitness, Potential, \
    PositivityCertificate, WeightedTransitionGraph
from sftkit.errors import NotPositiveClass
from sftkit.groupoid import tower_compose, tower_invert
from sftkit.orbit import CocyclePair
from sftkit.samples import (
    random_bipoint,
    random_cylinder_function,
    random_digraph,
    random_prefix_exchange,
    random_presentation,
    random_split_conjugacy,
)
from sftkit.suspension import quarter_grid
from tests.test_cohomology import enumerate_simple_cycle_sums


def report(num, label, budget, start):
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.1f}s < {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_potential_correctness():
    start = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    for _ in range(10_000):
        nodes, raw = random_digraph(rng, max_nodes=4, max_arcs=8,
                                    weight_range=(-2, 2))
        W = WeightedTransitionGraph(nodes, [Arc(*a) for a in raw])
        res = find_potential(W)
        negative = any(s < 0 for s in
                       enumerate_simple_cycle_sums(nodes, W.arcs))
        if isinstance(res, Potential):
            assert not negative, (nodes, raw)
            assert res.is_valid_for(W), (nodes, raw)
        else:
            assert negative and res.verify(), (nodes, raw)
        checked += 1
    assert checked >= 10_000
    report(1, f"find_potential vs cycle oracle on {checked} digraphs",
           30, start)


def test_criterion_2_positivity():
    start = time.monotonic()
    rng = random.Random(512)
    agree = 0
    for _ in range(1000):
        P = random_presentation(rng, max_vertices=4)
        f = random_cylinder_function(rng, P, max_depth=2)
        res = class_is_positive(P, f)
        W = transition_graph(P, f)
        negative = any(s < 0 for s in
                       enumerate_simple_cycle_sums(W.nodes, W.arcs))
        if isinstance(res, PositivityCertificate):
            assert not negative
            assert res.nonneg.is_nonnegative()
            assert (res.nonneg + res.witness_b.coboundary()) == \
                f.refine(res.nonneg.depth)
        else:
            assert negative and res.verify()
        agree += 1
    cob = 0
    for _ in range(100):
        P = random_presentation(rng, max_vertices=4)
        f = random_cylinder_function(rng, P, max_depth=2)
        g = random_cylinder_function(rng, P, max_depth=3)
        a = class_is_positive(P, f)
        b = class_is_positive(P, f + g.coboundary())
        assert isinstance(a, type(b)) or isinstance(b, type(a))
        cob += 1
    report(2, f"positivity oracle on {agree} classes, "
              f"coboundary invariance on {cob}", 30, start)


def test_criterion_3_tower_invariance():
    start = time.monotonic()
    rng = random.Random(99)
    for _ in range(50):
        P = random_presentation(rng, max_vertices=5)
        f = CylinderFunction(P, 1, {w: rng.randint(1, 3)
                                    for w in P.language(1)})
        tower = Tower(TowerSpec(P, f))
        assert bowen_franks(tower.presentation) == bowen_franks(P)
    # the trivial tower is the same graph up to the (v, 0) relabeling
    for _ in range(10):
        P = random_presentation(rng, max_vertices=5)
        tower = Tower(TowerSpec(P, CylinderFunction.constant(P, 1)))
        relabel = {v: (v, 0) for v in P.labels}
        assert set(tower.presentation.labels) == set(relabel.values())
        assert tower.presentation.edges == \
            frozenset((relabel[a], relabel[b]) for a, b in P.edges)
    report(3, "Bowen-Franks data equal across 50 random towers", 10, start)


def test_criterion_4_tower_groupoid_iso():
    start = time.monotonic()
    rng = random.Random(7)
    P = golden_mean()
    f = CylinderFunction.from_values(P, {"0": 2, "1": 1})
    tower = Tower(TowerSpec(P, f))
    count = 0
    image_of = {}
    preimage_of = {}
    while count < 1000:
        x = EvPerPoint.make(P, *_bounded_walk(rng, P, 4, 4))
        s, t = rng.randint(0, 3), rng.randint(0, 3)
        eta = make_element(x.shift(s), t - s, x.shift(t))
        i = rng.randrange(f(eta.range_pt))
        j = rng.randrange(f(eta.source_pt))
        theta = make_tower_element(eta, i, j, f)
        img = tower_iso(theta, tower)
        assert img.verify()
        if theta in image_of:
            assert image_of[theta] == img  # well-defined
        image_of[theta] = img
        if img in preimage_of:
            assert preimage_of[img] == theta  # injective on the sample
        preimage_of[img] = theta
        # homomorphism on a composable continuation
        u = rng.randint(0, 2)
        eta2 = make_element(eta.source_pt, u - t, x.shift(u))
        theta2 = make_tower_element(eta2, j, rng.randrange(f(eta2.source_pt)), f)
        lhs = tower_iso(tower_compose(theta, theta2, f), tower)
        rhs = compose(img, tower_iso(theta2, tower))
        assert lhs == rhs
        assert tower_iso(tower_invert(theta, f), tower) == invert(img)
        count += 1
    # sampled surjectivity: bounded elements of the tower groupoid all have
    # preimages found by bounded witness search
    hits = 0
    for _ in range(200):
        xi = _random_tower_point(rng, tower)
        s, t = rng.randint(0, 2), rng.randint(0, 2)
        target = make_element(xi.shift(s), t - s, xi.shift(t))
        assert _has_preimage(target, tower, f), str(target)
        hits += 1
    report(4, f"tower groupoid iso on {count} elements, "
              f"{hits} surjectivity probes", 20, start)


def _bounded_walk(rng, P, max_prefix, max_cycle):
    cycles = [c for c in P.cycles(max_cycle)]
    c = rng.choice(cycles)
    k = rng.randint(0, max_prefix)
    if k == 0:
        return (), c
    # walk backwards into the graph to build an admissible prefix
    pre = []
    v = c[0]
    for _ in range(k):
        v = rng.choice(P.in_neighbors(v))
        pre.append(v)
    pre.reverse()
    return tuple(pre), c


def _random_tower_point(rng, tower):
    P = tower.base
    pre, cyc = _bounded_walk(rng, P, 2, 3)
    x = EvPerPoint.make(P, pre, cyc)
    return tower.iota(x, rng.randrange(tower.floors(x)))


def _has_preimage(target, tower, f):
    x, i = tower.decode(target.range_pt)
    y, j = tower.decode(target.source_pt)
    for l in range(8):
        for k in range(8):
            if x.shift(l) != y.shift(k):
                continue
            try:
                eta = make_element(x, l - k, y)
            except Exception:
                continue
            theta = make_tower_element(eta, i, j, f)
            if tower_iso(theta, tower) == target:
                return True
    return False


def test_criterion_5_strong_equivalence_conjugacy():
    start = time.monotonic()
    rng = random.Random(41)
    bases = [full_shift(2), golden_mean(), full_shift(3)]
    points = 0
    for t in range(20):
        h = random_split_conjugacy(rng, bases[t % len(bases)],
                                   moves=rng.randint(1, 3))
        D = coe_to_flow_pipeline(h, scoe=True)
        assert set(D.n.table.values()) == {1}
        for _ in range(6):
            bx = random_bipoint(rng, h.domain)
            assert bold_varphi(D, bx.shift(1)) == bold_varphi(D, bx).shift(1)
            points += 1
    assert points >= 100
    report(5, f"20 split conjugacies, two-sided map commutes with the "
              f"shift on {points} points", 20, start)


def _all_periodic_points(P, max_len):
    return [BiPoint.periodic(P, c) for c in P.cycles(max_len)]


def test_criterion_6_flow_claims():
    start = time.monotonic()
    rng = random.Random(4096)
    f2, f3 = full_shift(2), full_shift(3)
    runs = [OrbitEquivalence(prefix_exchange(
        f2, {word("0"): word("10"), word("10"): word("0"),
             word("11"): word("11")}))]
    for _ in range(5):
        runs.append(random_prefix_exchange(rng, f2))
    for _ in range(5):
        runs.append(random_prefix_exchange(rng, f3, expansions=1))
    total = 0
    inconclusive = 0
    for h in runs:
        D = coe_to_flow_pipeline(h)
        sample = _all_periodic_points(h.domain, 6)
        sample += [random_bipoint(rng, h.domain, periodic_bias=0)
                   for _ in range(3)]
        rep = verify_flow_claims(D, sample, j_range=(-4, 4),
                                 t_grid=quarter_grid(-2, 2), p_range=(-3, 3))
        assert rep.all_pass(), rep.failures[:3]
        inconclusive += len(rep.inconclusive)
        total += len(rep.results)
    assert inconclusive == 0
    report(6, f"{len(runs)} exchanges, {total} exact claim checks", 60, start)


def test_criterion_7_coe_verification():
    start = time.monotonic()
    rng = random.Random(333)
    f2, f3 = full_shift(2), full_shift(3)
    std = OrbitEquivalence(prefix_exchange(
        f2, {word("0"): word("10"), word("10"): word("0"),
             word("11"): word("11")}))
    hs = [std]
    for _ in range(4):
        hs.append(random_prefix_exchange(rng, f2))
        hs.append(random_prefix_exchange(rng, f3, expansions=1))
    for _ in range(3):
        hs.append(random_split_conjugacy(rng, f2, moves=2))
    for h in hs:
        pair = derive_cocycle_pair(h)
        pair_p = derive_cocycle_pair(h.inverse())
        rep = verify_coe(h, pair, pair_p)
        assert rep.verified, rep.failures[:3]
        assert rep.least_period_preserving, rep.lp_witnesses[:3]
    pair = derive_cocycle_pair(std)
    assert (pair.k.value_on(word("000")), pair.l.value_on(word("000"))) == (1, 2)
    assert (pair.k.value_on(word("010")), pair.l.value_on(word("010"))) == (0, 3)
    diff = pair.difference()
    assert orbit_sum(diff, word("0")) == 1
    assert orbit_sum(diff, word("1")) == 1
    assert orbit_sum(diff, word("01")) == 2
    report(7, f"{len(hs)} equivalences verified exhaustively with period "
              f"bookkeeping", 10, start)


def test_criterion_8_fault_injection():
    start = time.monotonic()
    f2 = full_shift(2)
    std = OrbitEquivalence(prefix_exchange(
        f2, {word("0"): word("10"), word("10"): word("0"),
             word("11"): word("11")}))
    D = coe_to_flow_pipeline(std)

    # corrupted n: off by one on a single word
    from sftkit import FlowMapData
    bad_table = dict(D.n.table)
    key = sorted(bad_table)[0]
    bad_table[key] += 1
    bad_n = CylinderFunction(f2, D.n.depth, bad_table)
    Dbad = FlowMapData(D.h, D.k, D.l, D.k_prime, D.l_prime, D.b, D.b_prime,
                       bad_n, D.n_prime, validate=False)
    sample = _all_periodic_points(f2, 3)
    rep = verify_flow_claims(Dbad, sample, j_range=(-2, 2),
                             t_grid=quarter_grid(-1, 1), p_range=(-1, 1))
    assert rep.failures
    f = rep.failures[0]
    again = verify_flow_claims(Dbad,
                               [b for b in sample if str(b) == f.point],
                               j_range=(-2, 2), t_grid=quarter_grid(-1, 1),
                               p_range=(-1, 1))
    assert any(r.claim == f.claim and not r.passed for r in again.results)

    # corrupted l: one cylinder off by one
    pair = derive_cocycle_pair(std)
    bad_l = dict(pair.l.table)
    bad_l[word("010")] += 1
    corrupted = CocyclePair(pair.k, CylinderFunction(f2, pair.depth, bad_l))
    rep2 = verify_coe(std, corrupted, derive_cocycle_pair(std.inverse()))
    assert not rep2.verified
    concrete = [(w, ce) for w, _, ce in rep2.failures if ce is not None]
    assert concrete
    for w, ce in concrete:
        lhs = std(ce.shift(1)).shift(corrupted.k.value_on(w))
        rhs = std(ce).shift(corrupted.l.value_on(w))
        assert lhs != rhs

    # non-positive class
    f_neg = CylinderFunction.from_values(f2, {"0": -1, "1": 3})
    with pytest.raises(NotPositiveClass) as e:
        from sftkit import decompose_positive
        decompose_positive(f2, f_neg)
    w = e.value.witness
    assert isinstance(w, NegativeCycleWitness)
    assert w.verify() and sum(a.weight for a in w.cycle) < 0
    report(8, "corrupted n, corrupted l, and a negative class each produce "
              "re-verifiable failures", 10, start)
