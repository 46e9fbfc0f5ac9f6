import random

import pytest

from sftkit import (
    CylinderFunction,
    EvPerPoint,
    Tower,
    TowerSpec,
    compose,
    full_shift,
    invert,
    make_element,
    make_tower_element,
    phi_from_oe_data,
    tower_iso,
    unit,
    word,
)
from sftkit.errors import (
    CocycleInconsistent,
    DegreeImpossible,
    NotComposable,
    NotInSource,
    NotTailEquivalent,
)
from sftkit.groupoid import CylinderBisection
from sftkit.orbit import OrbitEquivalence, derive_cocycle_pair
from sftkit.presentation import Presentation
from sftkit.samples import random_point


def test_make_element_examples(full2):
    x0 = EvPerPoint.make(full2, (), (0,))
    x10 = EvPerPoint.make(full2, (1,), (0,))
    eta = make_element(x0, -1, x10)
    assert eta.witnesses == (0, 1) and eta.verify()
    assert make_element(x0, 0, x0).witnesses == (0, 0)
    with pytest.raises(NotTailEquivalent):
        make_element(x0, 1, EvPerPoint.make(full2, (), (1,)))


def test_make_element_degree_impossible(full2):
    x = EvPerPoint.make(full2, (), (0, 1))
    with pytest.raises(DegreeImpossible):
        make_element(x, 1, x)  # degrees must be even on a 2-cycle
    assert make_element(x, 2, x).witnesses == (2, 0)
    assert make_element(x, 1, x.shift(1)).witnesses == (1, 0)


def test_compose_and_invert(full2):
    x = EvPerPoint.make(full2, (1, 1), (0,))
    y = x.shift(1)
    a = make_element(x, -1, y)
    b = make_element(y, 1, x)
    assert compose(a, b) == make_element(x, 0, x)
    assert invert(invert(a)) == a
    with pytest.raises(NotComposable):
        compose(a, a)


def test_compose_two_cycle(full2):
    p01 = EvPerPoint.make(full2, (), (0, 1))
    p10 = EvPerPoint.make(full2, (), (1, 0))
    e1 = make_element(p01, 1, p10)
    e2 = make_element(p10, 1, p01)
    prod = compose(e1, e2)
    assert prod == make_element(p01, 2, p01)
    assert prod.witnesses == (2, 0)


def test_groupoid_axioms_random(full2):
    rng = random.Random(11)
    for _ in range(40):
        x = random_point(rng, full2)
        a = make_element(x, 1, x.shift(1))
        b = make_element(x.shift(1), 2, x.shift(3))
        c = make_element(x.shift(3), -3, x)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, invert(a)) == unit(x)
        assert compose(unit(x), a) == a == compose(a, unit(x.shift(1)))
        assert compose(a, b).degree == a.degree + b.degree
        assert invert(a).degree == -a.degree


def test_bisection_examples(full2):
    ident = CylinderBisection.make(full2, (), ())
    x = EvPerPoint.make(full2, (1,), (0, 1))
    assert ident.apply(x) == (x, 0)

    A = CylinderBisection.make(full2, word("10"), word("0"))
    x0 = EvPerPoint.make(full2, (), (0,))
    img, c = A.apply(x0)
    assert img == EvPerPoint.make(full2, (1,), (0,)) and c == 1
    with pytest.raises(NotInSource):
        A.apply(EvPerPoint.make(full2, (), (1,)))


def test_bisection_element(full2):
    A = CylinderBisection.make(full2, word("10"), word("0"))
    x0 = EvPerPoint.make(full2, (), (0,))
    eta = A.element_at(x0)
    assert eta.degree == 1
    assert eta.source_pt == x0


def test_bisection_follower_mismatch(gm):
    with pytest.raises(Exception):
        CylinderBisection.make(gm, word("1"), word("0"))


def test_phi_from_oe_identity(full2):
    from sftkit import identity_map
    h = OrbitEquivalence(identity_map(full2))
    pair = derive_cocycle_pair(h)
    x = EvPerPoint.make(full2, (1,), (0, 1))
    eta = make_element(x, 2, x.shift(2))
    out = phi_from_oe_data(h.forward, pair.k, pair.l, eta)
    assert out == eta


def test_phi_from_oe_prefix_exchange(full2, std_exchange):
    h = OrbitEquivalence(std_exchange)
    pair = derive_cocycle_pair(h)
    x0 = EvPerPoint.make(full2, (), (0,))
    eta = make_element(x0, 0, x0)
    out = phi_from_oe_data(h.forward, pair.k, pair.l, eta)
    x10 = EvPerPoint.make(full2, (1,), (0,))
    assert out == make_element(x10, 0, x10)

    p01 = EvPerPoint.make(full2, (), (0, 1))
    eta2 = make_element(p01, 2, p01)
    out2 = phi_from_oe_data(h.forward, pair.k, pair.l, eta2)
    p10 = EvPerPoint.make(full2, (), (1, 0))
    assert out2 == make_element(p10, 2, p10)


def test_phi_from_oe_is_homomorphism(full2, std_exchange):
    h = OrbitEquivalence(std_exchange)
    pair = derive_cocycle_pair(h)
    rng = random.Random(3)
    for _ in range(25):
        x = random_point(rng, full2)
        e1 = make_element(x, 1, x.shift(1))
        e2 = make_element(x.shift(1), -1, x)
        f1 = phi_from_oe_data(h.forward, pair.k, pair.l, e1)
        f2 = phi_from_oe_data(h.forward, pair.k, pair.l, e2)
        prod = phi_from_oe_data(h.forward, pair.k, pair.l, compose(e1, e2))
        assert compose(f1, f2) == prod
        u = phi_from_oe_data(h.forward, pair.k, pair.l, unit(x))
        assert u == unit(h(x))


def test_phi_detects_fake_cocycle(full2):
    # an odd (l - k)-sum around the 2-cycle cannot be a degree from the
    # cycle to itself, which exposes the fake pair
    from sftkit import identity_map
    h = identity_map(full2)
    k = CylinderFunction.constant(full2, 0)
    l = CylinderFunction.from_values(full2, {"0": 1, "1": 2})
    x = EvPerPoint.make(full2, (), (0, 1))
    with pytest.raises(CocycleInconsistent):
        phi_from_oe_data(h, k, l, make_element(x, 2, x))


def test_phi_preserves_least_period_degree(full2, std_exchange):
    h = OrbitEquivalence(std_exchange)
    pair = derive_cocycle_pair(h)
    for c in full2.cycles(5):
        x = EvPerPoint.make(full2, (), c)
        eta = make_element(x, x.least_period(), x)
        out = phi_from_oe_data(h.forward, pair.k, pair.l, eta)
        assert out.degree == h(x).least_period()


# -- tower groupoid ---------------------------------------------------------

def _loop_tower(floors):
    loop = Presentation(["a"], [("a", "a")])
    f = CylinderFunction.constant(loop, floors)
    return loop, f, Tower(TowerSpec(loop, f))


def test_tower_iso_trivial_floor():
    loop, f, tower = _loop_tower(1)
    x = EvPerPoint.make(loop, (), ("a",))
    theta = make_tower_element(make_element(x, 1, x), 0, 0, f)
    out = tower_iso(theta, tower)
    assert out.degree == 1
    assert out.range_pt == tower.iota(x, 0)


def test_tower_iso_floor_difference():
    loop, f, tower = _loop_tower(2)
    x = EvPerPoint.make(loop, (), ("a",))
    theta = make_tower_element(make_element(x, 0, x), 1, 0, f)
    out = tower_iso(theta, tower)
    assert out == make_element(tower.iota(x, 1), 1, tower.iota(x, 0))


def test_tower_iso_degree_sum():
    loop, f, tower = _loop_tower(2)
    x = EvPerPoint.make(loop, (), ("a",))
    eta = make_element(x, 1, x)
    assert eta.witnesses == (1, 0)
    theta = make_tower_element(eta, 0, 0, f)
    out = tower_iso(theta, tower)
    assert out == make_element(tower.iota(x, 0), 2, tower.iota(x, 0))


def test_tower_element_floor_bounds():
    from sftkit.errors import FloorOutOfRange
    loop, f, tower = _loop_tower(2)
    x = EvPerPoint.make(loop, (), ("a",))
    eta = make_element(x, 0, x)
    with pytest.raises(FloorOutOfRange):
        make_tower_element(eta, 2, 0, f)
    with pytest.raises(FloorOutOfRange):
        make_tower_element(eta, 0, -1, f)


def test_tower_iso_homomorphism(gm):
    f = CylinderFunction.from_values(gm, {"0": 1, "1": 2})
    tower = Tower(TowerSpec(gm, f))
    rng = random.Random(9)
    from sftkit.groupoid import tower_compose, tower_invert
    for _ in range(30):
        x = random_point(rng, gm)
        e1 = make_element(x, 1, x.shift(1))
        e2 = make_element(x.shift(1), 1, x.shift(2))
        i = rng.randrange(f(x))
        j = rng.randrange(f(x.shift(1)))
        k2 = rng.randrange(f(x.shift(2)))
        t1 = make_tower_element(e1, i, j, f)
        t2 = make_tower_element(e2, j, k2, f)
        lhs = tower_iso(tower_compose(t1, t2, f), tower)
        rhs = compose(tower_iso(t1, tower), tower_iso(t2, tower))
        assert lhs == rhs
        assert tower_iso(tower_invert(t1, f), tower) == \
            invert(tower_iso(t1, tower))


def test_tower_iso_degree_is_the_floor_sum():
    """With least witnesses (l, k) of the base element the degree is
    i - j + sum_{1<=h<=l} f(sigma^h x) - sum_{1<=h<=k} f(sigma^h y)."""
    from sftkit.samples import random_presentation
    rng = random.Random(12)
    witnesses = set()
    for _ in range(60):
        P = random_presentation(rng, 4)
        f = CylinderFunction(P, 1, {w: rng.randint(1, 3)
                                    for w in P.language(1)})
        tower = Tower(TowerSpec(P, f))
        z = random_point(rng, P)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        x, y = z.shift(a), z.shift(b)
        eta = make_element(x, b - a + rng.randint(-2, 2) * z.least_period(),
                           y)
        i, j = rng.randrange(f(x)), rng.randrange(f(y))
        lw, kw = eta.witnesses
        want = (i - j + sum(f(x.shift(h)) for h in range(1, lw + 1))
                - sum(f(y.shift(h)) for h in range(1, kw + 1)))
        out = tower_iso(make_tower_element(eta, i, j, f), tower)
        assert out.degree == want
        assert out.range_pt == tower.iota(x, i)
        assert out.source_pt == tower.iota(y, j)
        witnesses.add((lw > 0, kw > 0))
    assert witnesses == {(True, False), (False, True), (True, True),
                         (False, False)}


def test_bisections_print_apart_on_twelve_vertices():
    """Words of labels of two digits join with a dot, as points print them,
    so (1, 11) and (11, 1) give different strings."""
    P = full_shift(12)
    a = CylinderBisection.make(P, (1, 11), (11,))
    b = CylinderBisection.make(P, (11, 1), (11,))
    assert (str(a), str(b)) == ("1.11~11", "11.1~11")
    gm = CylinderBisection.make(
        Presentation([0, 1], [(0, 0), (0, 1), (1, 0)]), (1, 0), (0,))
    assert str(gm) == "10~0"
