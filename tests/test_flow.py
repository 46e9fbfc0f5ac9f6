import random

import pytest

from sftkit import (
    CylinderFunction,
    EvPerPoint,
    Tower,
    TowerSpec,
    bowen_franks,
    graph_move,
    in_split,
    out_split,
    out_split_conjugacy,
)
from sftkit.errors import (
    InvalidPartition,
    NotInCrossSection,
    ZeroFloorValue,
)
from sftkit.flow import determinant, smith_normal_form
from sftkit.presentation import Presentation
from sftkit.samples import random_presentation


def test_tower_trivial_floor(single_loop):
    f = CylinderFunction.constant(single_loop, 1)
    tower = Tower(TowerSpec(single_loop, f))
    assert len(tower.presentation.labels) == 1
    assert len(tower.presentation.edges) == 1


def test_tower_double_floor(single_loop):
    f = CylinderFunction.constant(single_loop, 2)
    tower = Tower(TowerSpec(single_loop, f))
    assert sorted(tower.presentation.edges) == \
        [(("a", 0), ("a", 1)), (("a", 1), ("a", 0))]


def test_tower_golden_mean_example(gm):
    f = CylinderFunction.from_values(gm, {"0": 1, "1": 2})
    tower = Tower(TowerSpec(gm, f))
    assert set(tower.presentation.labels) == {(0, 0), (1, 0), (1, 1)}
    assert tower.presentation.edges == frozenset({
        ((0, 0), (0, 0)), ((0, 0), (1, 1)),
        ((1, 1), (1, 0)), ((1, 0), (0, 0))})
    assert bowen_franks(tower.presentation).det == -1
    assert bowen_franks(gm).det == -1


def test_tower_rejects_zero_floor(gm):
    with pytest.raises(ZeroFloorValue):
        TowerSpec(gm, CylinderFunction.from_values(gm, {"0": 0, "1": 2}))


def test_tower_deep_floor_function_recoded(gm):
    f = CylinderFunction.from_values(gm, {"00": 1, "01": 2, "10": 3})
    tower = Tower(TowerSpec(gm, f))
    assert bowen_franks(tower.presentation) == bowen_franks(gm)


def test_first_return(single_loop, gm):
    f = CylinderFunction.constant(single_loop, 2)
    tower = Tower(TowerSpec(single_loop, f))
    p = tower.iota(EvPerPoint.make(single_loop, (), ("a",)), 0)
    assert tower.first_return(p) == (p, 2)

    g = CylinderFunction.from_values(gm, {"0": 1, "1": 2})
    tw = Tower(TowerSpec(gm, g))
    x = EvPerPoint.make(gm, (), (0, 1))
    p = tw.iota(x, 0)
    q, rt = tw.first_return(p)
    assert rt == g(x.shift(1))
    assert q == tw.iota(x.shift(1), 0)
    with pytest.raises(NotInCrossSection):
        tw.first_return(tw.iota(x.shift(1), 1))


def test_first_return_generates_orbit(gm):
    g = CylinderFunction.from_values(gm, {"0": 2, "1": 3})
    tw = Tower(TowerSpec(gm, g))
    x = EvPerPoint.make(gm, (1,), (0, 0, 1))
    p = tw.iota(x, 0)
    for step in range(1, 5):
        p, rt = tw.first_return(p)
        assert rt == g(x.shift(step))
        assert p == tw.iota(x.shift(step), 0)


def test_decode_follows_the_tower_walk():
    """decode reads the base point off the floor-0 symbols: along a walk
    from iota(x, top), each step goes down a floor or, from floor 0, to
    the top of the next block, and decode tracks (base point, floor)."""
    from sftkit.samples import random_point
    rng = random.Random(4)
    floors_seen = set()
    for _ in range(40):
        P = random_presentation(rng, 4)
        f = CylinderFunction(P, 1, {w: rng.randint(1, 4)
                                    for w in P.language(1)})
        tw = Tower(TowerSpec(P, f))
        x = random_point(rng, P)
        floor = f(x) - 1
        p = tw.iota(x, floor)
        for _ in range(12):
            assert tw.decode(p) == (x, floor)
            floors_seen.add(floor)
            p = p.shift(1)
            if floor:
                floor -= 1
            else:
                x = x.shift(1)
                floor = f(x) - 1
    assert floors_seen == {0, 1, 2, 3}


def test_iota_intertwines_shift(gm):
    # iota at floor 0 then one tower step per floor recovers sigma
    g = CylinderFunction.from_values(gm, {"0": 1, "1": 2})
    tw = Tower(TowerSpec(gm, g))
    x = EvPerPoint.make(gm, (0,), (0, 1))
    p = tw.iota(x, 0)
    assert p.shift(g(x.shift(1))) == tw.iota(x.shift(1), 0)
    assert tw.decode(p) == (x, 0)
    assert tw.decode(tw.iota(x, 0).shift(1)) == (x.shift(1), g(x.shift(1)) - 1)


def test_smith_normal_form_cases():
    assert smith_normal_form([[0, -1], [-1, 0]]) == [1, 1]
    assert smith_normal_form([[0, -1], [-1, 1]]) == [1, 1]
    assert smith_normal_form([[0]]) == [0]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    d = smith_normal_form([[6, 4, 2], [2, 8, 4], [2, 2, 2]])
    for a, b in zip(d, d[1:]):
        assert b % a == 0 if a else b == 0


def test_determinant_exact():
    assert determinant([[0, -1], [-1, 0]]) == -1
    assert determinant([[0]]) == 0
    assert determinant([[2, 1], [1, 1]]) == 1
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = determinant(m)
        diag = smith_normal_form(m)
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(d)


def test_bowen_franks_examples(full2, gm, single_loop):
    assert bowen_franks(full2).snf_diagonal == (1, 1)
    assert bowen_franks(full2).det == -1
    assert bowen_franks(gm).snf_diagonal == (1, 1)
    assert bowen_franks(gm).det == -1
    rep = bowen_franks(single_loop)
    assert rep.snf_diagonal == (0,) and rep.det == 0


def test_tower_preserves_bowen_franks_randomly():
    rng = random.Random(31)
    for _ in range(40):
        P = random_presentation(rng, max_vertices=5)
        f = CylinderFunction(P, 1, {w: rng.randint(1, 3)
                                    for w in P.language(1)})
        tower = Tower(TowerSpec(P, f))
        assert bowen_franks(tower.presentation) == bowen_franks(P)


def test_out_split_preserves_invariants(full2):
    Q = out_split(full2, 0, [[0], [1]])
    assert len(Q.labels) == 3
    assert bowen_franks(Q) == bowen_franks(full2)


def test_in_split_preserves_det(full2, gm):
    Q = in_split(full2, 1, [[0], [1]])
    assert bowen_franks(Q).det == bowen_franks(full2).det
    Q2 = graph_move(gm, "in_split", 0, [[0], [1]])
    assert bowen_franks(Q2).det == bowen_franks(gm).det


def test_split_partition_validation(full2, gm):
    with pytest.raises(InvalidPartition):
        out_split(full2, 0, [[0], [0, 1]])
    with pytest.raises(InvalidPartition):
        out_split(full2, 0, [[0], []])
    with pytest.raises(InvalidPartition):
        in_split(gm, 0, [[0]])  # misses in-neighbor 1


def _in_split_reference(P, vertex, parts):
    """The in-split built directly: each copy keeps one class of in-edges,
    and every out-edge of the vertex is duplicated onto all copies."""
    copies = [(vertex, t) for t in range(len(parts))]
    labels = [v for v in P.labels if v != vertex] + copies

    def sources(a):
        return copies if a == vertex else [a]

    edges = [(aa, b) for a, b in P.edges if b != vertex for aa in sources(a)]
    edges += [(aa, (vertex, t)) for t, part in enumerate(parts)
              for a in part for aa in sources(a)]
    return Presentation(labels, edges)


def test_in_split_is_the_transposed_out_split():
    rng = random.Random(8)
    split_self = 0
    for _ in range(1000):
        P = random_presentation(rng, 5)
        v = rng.choice(P.labels)
        nbrs = list(P.in_neighbors(v))
        rng.shuffle(nbrs)
        k = rng.randint(1, len(nbrs))
        parts = [nbrs[i::k] for i in range(k)]
        Q, R = in_split(P, v, parts), _in_split_reference(P, v, parts)
        assert (Q.labels, Q.edges) == (R.labels, R.edges)
        split_self += v in nbrs and k > 1
    assert split_self >= 100


def test_in_split_checks_in_neighbors(loop_into_loop):
    # b's in-neighbors are {a, b}, its out-neighbors {b}: the parts are
    # checked against the in-neighbors, whatever the transposed out-split
    # reads them as
    with pytest.raises(InvalidPartition, match="in-neighbors of 'b'"):
        in_split(loop_into_loop, "b", [["b"]])
    Q = in_split(loop_into_loop, "b", [["a"], ["b"]])
    assert Q.labels == ("a", ("b", 0), ("b", 1))
    assert Q.in_neighbors(("b", 0)) == ("a",)


def test_out_split_conjugacy_roundtrip(full2):
    Q, h = out_split_conjugacy(full2, 0, [[0], [1]])
    for pre, cyc in [((), (0,)), ((), (1,)), ((0, 1), (1, 0)), ((1,), (0,))]:
        x = EvPerPoint.make(full2, pre, cyc)
        y = h(x)
        assert y.presentation == Q
        assert h.inverse()(y) == x
        assert h(x.shift(1)) == y.shift(1)


def test_random_split_chains_preserve_invariants():
    rng = random.Random(77)
    from sftkit.samples import random_split_conjugacy
    for _ in range(10):
        h = random_split_conjugacy(rng, random_presentation(rng, 3), moves=2)
        assert bowen_franks(h.domain) == bowen_franks(h.codomain)
