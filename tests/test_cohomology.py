import hashlib
import json
import random

import pytest
from conftest import simple_cycles
from hypothesis import given, settings, strategies as st

from sftkit import (
    CylinderFunction,
    EvPerPoint,
    class_is_positive,
    decompose_positive,
    find_potential,
    groupoid_cocycle_eval,
    make_element,
    orbit_sum,
    positive_on_cycles,
    solve_coboundary,
    transition_graph,
)
from sftkit import cohomology, cylinders
from sftkit.cohomology import (
    Arc,
    NegativeCycleWitness,
    Potential,
    PositivityCertificate,
    WeightedTransitionGraph,
)
from sftkit.errors import NotPositiveClass
from sftkit.presentation import Presentation
from sftkit.samples import random_cylinder_function, random_presentation


def enumerate_simple_cycle_sums(nodes, arcs):
    """Brute-force oracle: weights of every simple cycle, each counted once
    by rooting it at its least node."""
    sums = []
    order = {v: i for i, v in enumerate(nodes)}

    def extend(by_source, path_nodes, path_arcs, start):
        v = path_arcs[-1].target if path_arcs else start
        for a in by_source.get(v, []):
            if a.target == start:
                sums.append(sum(x.weight for x in path_arcs) + a.weight)
            elif a.target not in path_nodes:
                extend(by_source, path_nodes | {a.target},
                       path_arcs + [a], start)

    for s in nodes:
        by_source = {}
        for a in arcs:
            if order[a.source] >= order[s] and order[a.target] >= order[s]:
                by_source.setdefault(a.source, []).append(a)
        extend(by_source, {s}, [], s)
    return sums


def test_transition_graph_examples(full2, gm):
    f = CylinderFunction.from_values(full2, {"0": 2, "1": 0})
    W = transition_graph(full2, f)
    assert set(W.nodes) == {(0,), (1,)}
    weights = {a.tag: a.weight for a in W.arcs}
    assert weights == {(0, 0): 2, (0, 1): 2, (1, 0): 0, (1, 1): 0}
    c = CylinderFunction.constant(gm, 7)
    assert {a.weight for a in transition_graph(gm, c).arcs} == {7}
    g = CylinderFunction.from_values(gm, {"00": 1, "01": -1, "10": 2})
    W2 = transition_graph(gm, g)
    assert {a.tag: a.weight for a in W2.arcs} == \
        {(0, 0): 1, (0, 1): -1, (1, 0): 2}


def test_public_graph_rejects_an_arc_to_an_unknown_node():
    with pytest.raises(ValueError, match="unknown node"):
        WeightedTransitionGraph(["u", "v"], [("u", "v", 1), ("v", "w", 2)])
    with pytest.raises(ValueError, match="unknown node"):
        WeightedTransitionGraph(["u"], [Arc("x", "u", 0)])


def test_public_graph_accepts_plain_tuples_as_arcs():
    W = WeightedTransitionGraph(["u", "v"], [("u", "v", -1),
                                             ("v", "u", 2, "back")])
    assert all(isinstance(a, Arc) for a in W.arcs)
    assert W.arcs == [Arc("u", "v", -1), Arc("v", "u", 2, "back")]
    assert W.arcs == [("u", "v", -1, None), ("v", "u", 2, "back")]
    assert W.arcs[0].tag is None and W.arcs[1].tag == "back"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5))
def test_transition_graph_is_what_the_public_constructor_accepts(seed, d):
    """The arcs transition_graph builds without the endpoint scan are the
    (m+1)-blocks w from w[:m] to w[1:] weighted by f(w), pass that scan,
    end in nodes of the graph, and give the public constructor's index
    lists."""
    rng = random.Random(seed)
    P = random_presentation(rng)
    f = CylinderFunction(P, d, {w: rng.randint(-2, 2) for w in P.words(d)})
    W = transition_graph(P, f)
    m = max(d - 1, 1)
    assert W.nodes == P.words(m)
    assert W.arcs == [(w[:m], w[1:], f.value_on(w), w)
                      for w in P.words(m + 1)]
    public = WeightedTransitionGraph(W.nodes, [tuple(a) for a in W.arcs])
    assert public.arcs == W.arcs
    assert (public.src, public.dst, public.weight, public.tags) == \
        (W.src, W.dst, W.weight, W.tags)
    nodes = set(W.nodes)
    assert all(a.source in nodes and a.target in nodes for a in W.arcs)


def test_find_potential_two_node_example():
    W = WeightedTransitionGraph(
        ["u", "v"], [Arc("u", "v", -1), Arc("v", "u", 2)])
    res = find_potential(W)
    assert isinstance(res, Potential)
    assert res.is_valid_for(W)


def test_find_potential_negative_loop():
    W = WeightedTransitionGraph(["u"], [Arc("u", "u", -1)])
    res = find_potential(W)
    assert isinstance(res, NegativeCycleWitness)
    assert res.total == -1 and res.verify()


def test_find_potential_nonnegative_weights(gm):
    f = CylinderFunction.from_values(gm, {"0": 0, "1": 3})
    res = find_potential(transition_graph(gm, f))
    assert isinstance(res, Potential)


def source_distances(nodes, arcs):
    """Floyd-Warshall oracle: shortest distances from a virtual source with
    a zero arc to every node, for a graph without negative cycles."""
    inf = float("inf")
    d = {u: {v: 0 if u == v else inf for v in nodes} for u in nodes}
    for a in arcs:
        d[a.source][a.target] = min(d[a.source][a.target], a.weight)
    for k in nodes:
        for u in nodes:
            for v in nodes:
                d[u][v] = min(d[u][v], d[u][k] + d[k][v])
    return {v: min(d[u][v] for u in nodes) for v in nodes}


def test_find_potential_agrees_with_cycle_oracle():
    rng = random.Random(7)
    from sftkit.samples import random_digraph
    for _ in range(300):
        nodes, arcs = random_digraph(rng, strongly_connected=False)
        W = WeightedTransitionGraph(nodes, [Arc(*a) for a in arcs])
        res = find_potential(W)
        has_negative = any(s < 0 for s in
                           enumerate_simple_cycle_sums(nodes, W.arcs))
        if isinstance(res, Potential):
            assert not has_negative
            assert res.is_valid_for(W)
            assert res.kappa == source_distances(nodes, W.arcs)
        else:
            assert has_negative and res.verify()


def test_find_potential_finds_the_one_long_negative_cycle():
    """200 nodes; the only negative cycle runs through nodes 0..49 and sums
    to -1.  Every other simple cycle uses an extra arc of weight >= 1 and at
    most the one -1 arc of the long cycle, so it sums to >= 0."""
    rng = random.Random(11)
    nodes = list(range(200))
    ring = [Arc(i, (i + 1) % 50, -1 if i == 17 else 0) for i in range(50)]
    extra = [Arc(rng.choice(nodes), rng.choice(nodes), rng.randint(1, 5))
             for _ in range(600)]
    # ring arcs last and against the walk order: the cycle needs many rounds
    W = WeightedTransitionGraph(nodes, extra + ring[::-1])
    res = find_potential(W)
    assert isinstance(res, NegativeCycleWitness) and res.verify()
    assert res.total == -1 and len(res.cycle) == 50
    i = res.cycle.index(ring[0])
    assert res.cycle[i:] + res.cycle[:i] == tuple(ring)


def test_class_is_positive_nonnegative_f(gm):
    f = CylinderFunction.from_values(gm, {"0": 0, "1": 2})
    cert = class_is_positive(gm, f)
    assert isinstance(cert, PositivityCertificate)
    assert set(cert.witness_b.table.values()) == {0}
    assert cert.nonneg == f


def test_class_is_positive_spec_table(full2):
    f = CylinderFunction.from_values(
        full2, {"00": 1, "01": -1, "10": 2, "11": 0})
    cert = class_is_positive(full2, f)
    assert cert.witness_b.table == {(0,): 0, (1,): 1}
    assert cert.nonneg.table == {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    assert cert.verify(f)


def test_class_is_positive_negative_fixed_point(full2):
    f = CylinderFunction.from_values(full2, {"0": -1, "1": 3})
    w = class_is_positive(full2, f)
    assert isinstance(w, NegativeCycleWitness)
    assert w.total == -1
    assert [a.tag for a in w.cycle] == [(0, 0)]


def test_decompose_positive_constant(full2):
    n, b = decompose_positive(full2, CylinderFunction.constant(full2, 1))
    assert set(n.table.values()) == {1}
    assert len(set(b.table.values())) == 1


def test_decompose_positive_lower_bound(full2):
    f = CylinderFunction.from_values(
        full2, {"00": 1, "01": -1, "10": 2, "11": 0})
    n, b = decompose_positive(full2, f, lower=0)
    assert b.table == {(0,): 0, (1,): 1}
    n2, b2 = decompose_positive(full2, f, lower=5)
    assert b2.min_value() >= 5
    assert (n2 + b2.coboundary()) == f.refine(2)


def test_decompose_positive_of_coboundary_has_null_cycles(full2):
    g = CylinderFunction.from_values(full2, {"0": 4, "1": 1})
    df = g.coboundary()
    n, b = decompose_positive(full2, df)
    for c in full2.cycles(3):
        assert orbit_sum(n, c) == 0


def test_decompose_rejects_negative_class(full2):
    f = CylinderFunction.from_values(full2, {"0": -1, "1": 3})
    with pytest.raises(NotPositiveClass) as e:
        decompose_positive(full2, f)
    assert e.value.witness.verify()


def test_positivity_random_oracle_and_coboundary_invariance():
    rng = random.Random(23)
    for _ in range(150):
        P = random_presentation(rng)
        f = random_cylinder_function(rng, P)
        res = class_is_positive(P, f)
        W = transition_graph(P, f)
        negative = any(s < 0 for s in
                       enumerate_simple_cycle_sums(W.nodes, W.arcs))
        if isinstance(res, PositivityCertificate):
            assert not negative and res.verify(f)
        else:
            assert negative and res.verify()
        g = random_cylinder_function(rng, P, max_depth=3)
        res2 = class_is_positive(P, f + g.coboundary())
        assert isinstance(res2, type(res))


def test_positive_decomposition_preserves_orbit_sums():
    rng = random.Random(63)
    for _ in range(40):
        P = random_presentation(rng)
        f = random_cylinder_function(rng, P, max_depth=2, lo=0, hi=3)
        n, b = decompose_positive(P, f)
        for c in P.cycles(4):
            s = orbit_sum(f, c)
            assert orbit_sum(n, c) == s
            assert s >= 0


def test_orbit_sum_invariant_under_coboundaries(full2):
    rng = random.Random(5)
    for _ in range(30):
        f = random_cylinder_function(rng, full2, max_depth=2)
        g = random_cylinder_function(rng, full2, max_depth=2)
        for c in full2.cycles(4):
            assert orbit_sum(f + g.coboundary(), c) == orbit_sum(f, c)


def test_groupoid_cocycle_eval_examples(full2):
    x0 = EvPerPoint.make(full2, (), (0,))
    x10 = EvPerPoint.make(full2, (1,), (0,))
    eta = make_element(x0, -1, x10)
    assert eta.witnesses == (0, 1)
    one = CylinderFunction.constant(full2, 1)
    assert groupoid_cocycle_eval(one, eta) == -1
    g = CylinderFunction.from_values(full2, {"0": 2, "1": 5})
    assert groupoid_cocycle_eval(g, eta) == -5
    ident = make_element(x0, 0, x0)
    assert groupoid_cocycle_eval(g, ident) == 0


def test_groupoid_cocycle_witness_independence(full2):
    g = CylinderFunction.from_values(full2, {"00": 2, "01": -1,
                                             "10": 0, "11": 3})
    x = EvPerPoint.make(full2, (1, 1), (0, 1))
    eta = make_element(x, 3, x.shift(3))
    r, s = eta.witnesses
    base = groupoid_cocycle_eval(g, eta)
    for c in (1, 2, 5):
        shifted = (sum(g(eta.range_pt.shift(i)) for i in range(r + c))
                   - sum(g(eta.source_pt.shift(j)) for j in range(s + c)))
        assert shifted == base


def test_groupoid_cocycle_is_homomorphism(full2):
    from sftkit import compose, invert
    g = CylinderFunction.from_values(full2, {"0": 2, "1": -3})
    x = EvPerPoint.make(full2, (0, 0), (1, 0))
    e1 = make_element(x, 1, x.shift(1))
    e2 = make_element(x.shift(1), 2, x.shift(3))
    assert groupoid_cocycle_eval(g, compose(e1, e2)) == \
        groupoid_cocycle_eval(g, e1) + groupoid_cocycle_eval(g, e2)
    assert groupoid_cocycle_eval(g, invert(e1)) == \
        -groupoid_cocycle_eval(g, e1)


def test_groupoid_coboundary_formula(full2):
    g = CylinderFunction.from_values(full2, {"00": 1, "01": 0,
                                             "10": -2, "11": 4})
    db = g - g.pullback()
    x = EvPerPoint.make(full2, (0, 1, 1), (0, 1))
    for eta in [make_element(x, 2, x.shift(2)),
                make_element(x.shift(1), -1, x),
                make_element(x, 0, x)]:
        assert groupoid_cocycle_eval(db, eta) == \
            g(eta.range_pt) - g(eta.source_pt)


def test_solve_coboundary_planted(full2):
    g = CylinderFunction.from_values(
        full2, {"00": 3, "01": -1, "10": 0, "11": 2})
    df = g.coboundary()
    h = solve_coboundary(full2, df, 4)
    assert h is not None
    assert h.coboundary() == df.refine(h.depth + 1)


def test_solve_coboundary_obstruction(full2):
    one = CylinderFunction.constant(full2, 1)
    assert solve_coboundary(full2, one, 5) is None


def _ladder_solve_coboundary(P, f, max_depth):
    """Reference: the cycle-sum obstruction over every simple cycle, then a
    ladder of difference systems from max(depth(f) - 1, 0) to max_depth."""
    for c in simple_cycles(P):
        if orbit_sum(f, c) != 0:
            return None
    for D in range(max(f.depth - 1, 0), max_depth + 1):
        g = _ladder_difference_system(P, f, D)
        if g is not None:
            return g
    return None


def _ladder_difference_system(P, f, D):
    if f.depth > D + 1:
        return None  # the equations at this depth cannot express f
    width = max(D, 1)
    nodes = P.words(width)
    # keyed by the arcs, the (width + 1)-words w from w[:width] to w[1:]
    arcs = f.refine(width + 1).table
    neighbors = {v: [] for v in nodes}
    for w, val in arcs.items():
        src, dst = w[:width], w[1:]
        neighbors[src].append((dst, -val))   # g(dst) = g(src) - f(w)
        neighbors[dst].append((src, val))    # g(src) = g(dst) + f(w)

    g = {}
    for root in nodes:
        if root in g:
            continue
        g[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u, delta in neighbors[v]:
                val = g[v] + delta
                if u in g:
                    if g[u] != val:
                        return None
                else:
                    g[u] = val
                    stack.append(u)
    for w, val in arcs.items():
        if g[w[:width]] - g[w[1:]] != val:
            return None
    table = {v: g[v] for v in nodes}
    if D == 0 and len(set(table.values())) > 1:
        return None  # a depth-0 solution must be constant
    return CylinderFunction(P, D, table)


def _depth_one_coboundary(rng, P):
    """A depth-1 f = g - g o sigma with g of depth 1.  That needs g constant
    on the successors of each vertex, so g takes one random value on each
    class of the relation "shares a predecessor"."""
    rep = {v: v for v in P.labels}

    def root(v):
        while rep[v] != v:
            v = rep[v]
        return v

    for a, b in P.words(2):
        for a2, c in P.words(2):
            if a2 == a:
                rep[root(b)] = root(c)
    value = {v: rng.randint(-2, 2) for v in P.labels}
    g = {v: value[root(v)] for v in P.labels}
    return CylinderFunction(P, 1, {(a,): g[a] - g[b] for a, b in P.words(2)})


def _coboundary_pool(n):
    """n seeded classes on 1-5 vertex shifts, many of them reducible:
    random classes, coboundaries, constants, coboundaries perturbed on one
    word and depth-1 coboundaries."""
    rng = random.Random(2018)
    for i in range(n):
        P = random_presentation(rng, 5, 1)
        kind = i % 5
        if kind == 0:
            f = random_cylinder_function(rng, P, max_depth=3)
        elif kind == 1:
            f = random_cylinder_function(rng, P, max_depth=3).coboundary()
        elif kind == 2:
            f = CylinderFunction.constant(P, rng.randint(-1, 1))
        elif kind == 3:
            f = random_cylinder_function(rng, P, max_depth=2).coboundary()
            table = dict(f.table)
            table[rng.choice(sorted(table))] += rng.choice((-1, 1))
            f = CylinderFunction(P, f.depth, table)
        else:
            f = _depth_one_coboundary(rng, P)
        yield P, f


def test_solve_coboundary_matches_the_ladder_oracle():
    """One difference system at depth max(depth(f) - 1, 0) gives exactly the
    result of the obstruction and the whole ladder of depths."""
    seen = set()
    for P, f in _coboundary_pool(2000):
        zero_sums = all(orbit_sum(f, c) == 0 for c in simple_cycles(P))
        for max_depth in (0, 1, 2, 3, 5):
            want = _ladder_solve_coboundary(P, f, max_depth)
            assert _table_body(solve_coboundary(P, f, max_depth)) == \
                _table_body(want)
            if want is None:
                seen.add("zero cycle sums, no coboundary" if zero_sums
                         else "obstructed")
            else:
                seen.add(f"depth {want.depth} from depth {f.depth}")
    assert {"zero cycle sums, no coboundary", "obstructed",
            "depth 0 from depth 0", "depth 1 from depth 1",
            "depth 3 from depth 4"} <= seen


def test_zero_cycle_sums_need_not_make_a_coboundary():
    """a -> a, a -> b, a -> c, b -> c, c -> c: the block ab lies on no
    cycle, so f = 1 on it has every periodic orbit sum 0, yet
    g(a) - g(b) = 1 contradicts g(a) = g(c) = g(b) at every depth."""
    P = Presentation(["a", "b", "c"], [("a", "a"), ("a", "b"), ("a", "c"),
                                       ("b", "c"), ("c", "c")])
    f = CylinderFunction(P, 2, {w: int(w == ("a", "b"))
                                for w in P.words(2)})
    assert all(orbit_sum(f, c) == 0 for c in simple_cycles(P))
    for max_depth in range(7):
        assert solve_coboundary(P, f, max_depth) is None


def test_solve_coboundary_enumerates_no_cycles(full2, monkeypatch):
    def boom(*args):
        raise AssertionError("cycle enumeration called")

    monkeypatch.setattr(Presentation, "cycles", boom)
    monkeypatch.setattr(cohomology, "orbit_sum", boom, raising=False)
    monkeypatch.setattr(cylinders, "orbit_sum", boom)
    g = CylinderFunction.from_values(
        full2, {"00": 3, "01": -1, "10": 0, "11": 2})
    h = solve_coboundary(full2, g.coboundary(), 4)
    assert h is not None and h.depth == 2
    assert h.coboundary() == g.coboundary()


def test_functions_on_another_presentation_are_rejected(full2, gm):
    g = CylinderFunction.from_values(
        full2, {"00": 1, "01": 1, "10": 1, "11": 0})
    h_gm = CylinderFunction.constant(gm, 1)
    assert positive_on_cycles(full2, g) is False
    calls = [lambda: positive_on_cycles(gm, g),
             lambda: positive_on_cycles(full2, h_gm),
             lambda: class_is_positive(gm, g),
             lambda: class_is_positive(full2, h_gm),
             lambda: decompose_positive(gm, g),
             lambda: transition_graph(full2, h_gm),
             lambda: solve_coboundary(gm, g, 3),
             lambda: solve_coboundary(full2, h_gm, 3)]
    for call in calls:
        with pytest.raises(ValueError, match="different presentations"):
            call()


def _language_function(rng, P, max_depth, lo=-2, hi=2):
    """A random function drawn word by word over the set P.language(d), as
    random_cylinder_function drew before it iterated P.words(d).  On these
    int-labelled shifts the set's order does not depend on the hash seed,
    and the pinned pool below is drawn this way."""
    d = rng.randint(0, max_depth)
    if d == 0:
        return CylinderFunction.constant(P, rng.randint(lo, hi))
    return CylinderFunction(P, d, {w: rng.randint(lo, hi)
                                   for w in P.language(d)})


def _positivity_pool():
    """A fixed pool of 40 classes on 2-5 vertex shifts: planted positive
    classes n + db, coboundaries db and random classes, depth 1-4."""
    rng = random.Random(2016)
    pool = []
    for i in range(40):
        P = random_presentation(rng, 5, 2)
        f = _language_function(rng, P, max_depth=4)
        if i % 4 == 0:
            n = _language_function(rng, P, max_depth=3, lo=0, hi=2)
            f = n + _language_function(rng, P, max_depth=3).coboundary()
        elif i % 4 == 1:
            f = _language_function(rng, P, max_depth=3).coboundary()
        pool.append((P, f))
    return pool


def _table_body(f):
    return None if f is None else \
        [f.depth, sorted((repr(w), v) for w, v in f.table.items())]


def test_positivity_results_are_pinned():
    """Verdicts, witnesses (arc by arc), certificates and coboundary
    solutions on a fixed pool hash to a committed digest, so a change to
    the graph or the solvers must leave every result byte-identical."""
    body, verdicts = [], set()
    for P, f in _positivity_pool():
        res = class_is_positive(P, f)
        if isinstance(res, NegativeCycleWitness):
            item = ["negative", res.total,
                    [[repr(a.source), repr(a.target), a.weight, repr(a.tag)]
                     for a in res.cycle]]
        else:
            item = ["positive", _table_body(res.witness_b),
                    _table_body(res.nonneg)]
        verdicts.add(item[0])
        body.append(item + [_table_body(solve_coboundary(P, f, 4))])
    assert verdicts == {"negative", "positive"}
    assert sum(b[-1] is not None for b in body) >= 10
    digest = hashlib.sha256(json.dumps(body).encode()).hexdigest()
    assert digest == \
        "48b5fe9a9d14088bac43f70e9bb4caae26b439e6c24e08c753588c7dd11a216d"


def _pool_function(rng, P, depth, lo, hi):
    if depth == 0:
        return CylinderFunction.constant(P, rng.randint(lo, hi))
    return CylinderFunction(P, depth, {w: rng.randint(lo, hi)
                                       for w in P.words(depth)})


def _graph_pool(count):
    """count seeded classes drawn as perfbench's positivity pool draws
    them: a random_presentation(rng, 6, 4) and a depth 2-5 redrawn until
    the graph has 150-600 arcs; positive classes n + b - b o sigma with
    n >= 0, random classes and coboundaries, in turn.  Each comes with a
    g of depth d - 1 whose coboundary solve_coboundary must solve."""
    rng = random.Random(2028)
    for i in range(count):
        while True:
            P = random_presentation(rng, 6, 4)
            d = rng.randint(2, 5)
            if 150 <= len(P.words(d)) <= 600:
                break
        kind = ("positive", "random", "coboundary")[i % 3]
        g = _pool_function(rng, P, d - 1, -2, 2)
        if kind == "positive":
            b = _pool_function(rng, P, rng.randint(0, d - 1), -2, 2)
            f = _pool_function(rng, P, d, 0, 2) + b.coboundary()
        elif kind == "random":
            f = _pool_function(rng, P, d, -2, 2)
        else:
            f = g.coboundary()
        yield kind, P, f, g


def test_verdicts_on_the_benchmark_shaped_pool_are_pinned():
    """On 300 classes shaped like the benchmark's: a certificate's n is
    f - b + b o sigma at depth m + 1 and verifies, a witness verifies, and
    solve_coboundary solves every g - g o sigma.  Every verdict, witness
    and solution hashes to a committed digest."""
    body, seen = [], set()
    for kind, P, f, g in _graph_pool(300):
        m = max(f.depth - 1, 1)
        res = class_is_positive(P, f)
        if isinstance(res, PositivityCertificate):
            b, n = res.witness_b, res.nonneg
            assert (b.depth, n.depth) == (m, m + 1)
            assert n.table == (f.refine(m + 1) - b + b.pullback()).table
            assert res.verify(f)
            item = [kind, "positive", _table_body(b), _table_body(n)]
        else:
            assert kind == "random" and res.verify()
            item = [kind, "negative", res.total,
                    [[repr(a.source), repr(a.target), a.weight, repr(a.tag)]
                     for a in res.cycle]]
        seen.add(item[1])
        dg = g.coboundary()
        solution = solve_coboundary(P, dg, 5)
        assert solution is not None and solution.coboundary() == dg
        body.append(item + [_table_body(solution)])
    assert seen == {"negative", "positive"}
    digest = hashlib.sha256(json.dumps(body).encode()).hexdigest()
    assert digest == \
        "483fb8cc0f3ccce4b687dec78748b6073076313530cd5be625a2b9a8977a9072"


def test_public_graph_rejects_duplicate_nodes():
    with pytest.raises(ValueError, match="duplicate node"):
        WeightedTransitionGraph(["u", "u"], [])
    with pytest.raises(ValueError, match="duplicate node"):
        WeightedTransitionGraph([(0,), (1,), (0,)], [((0,), (1,), 1)])


def test_solve_coboundary_checks_the_presentation_before_the_depth_cap(
        full2, gm):
    f = CylinderFunction(full2, 4, {w: 0 for w in full2.words(4)})
    assert solve_coboundary(full2, f, 1) is None   # the cap alone
    with pytest.raises(ValueError, match="different presentations"):
        solve_coboundary(gm, f, 1)


def test_positive_on_cycles_agrees_with_orbit_sums():
    """Every periodic orbit sums to at least 1 exactly when every orbit of
    least period at most N does, N the size of the block graph: a simple
    cycle of the block graph has at most N arcs.  Draws with N > 10 are
    skipped, because the oracle lists every orbit up to period N."""
    rng = random.Random(33)
    verdicts = []
    while len(verdicts) < 1000:
        P = random_presentation(rng, 4)
        f = random_cylinder_function(rng, P, 3, -2, 3)
        N = len(transition_graph(P, f).nodes)
        if N > 10:
            continue
        want = all(orbit_sum(f, c) >= 1 for c in P.cycles(N))
        assert positive_on_cycles(P, f) is want, (P, f)
        verdicts.append((want, N))
    assert {True, False} <= {want for want, _ in verdicts}
    assert any(want and N > 4 for want, N in verdicts)


def test_positive_on_cycles_counts_a_sum_of_one_around_every_block():
    """The one cycle 0 -> 1 -> 2 -> 0 visits all N = 3 blocks and sums to
    exactly 1.  Its rescaled sum 3*1 - 3 is 0, so it is positive; scaling
    by N - 1 would make it 2*1 - 3 < 0."""
    P = Presentation(range(3), [(0, 1), (1, 2), (2, 0)])
    f = CylinderFunction.from_values(P, {"0": 1, "1": 0, "2": 0})
    assert len(transition_graph(P, f).nodes) == 3
    assert positive_on_cycles(P, f) is True
    assert positive_on_cycles(P, CylinderFunction.constant(P, 0)) is False


def test_arcs_are_built_only_for_a_witness(full2, monkeypatch):
    """Certificates, True cycle verdicts and coboundary solutions read the
    index lists; only a negative-cycle witness builds Arcs, one per cycle
    arc.  A False cycle verdict is such a witness, on rescaled weights."""
    built = []

    class CountedArc(Arc):
        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(cohomology, "Arc", CountedArc)
    f = CylinderFunction.from_values(
        full2, {"00": 1, "01": -1, "10": 2, "11": 0})
    assert isinstance(class_is_positive(full2, f), PositivityCertificate)
    assert positive_on_cycles(full2, CylinderFunction.from_values(
        full2, {"00": 2, "01": 0, "10": 3, "11": 1})) is True
    assert solve_coboundary(full2, f.coboundary(), 4) is not None
    assert decompose_positive(full2, f)[0].is_nonnegative()
    assert built == []
    # f sums to 0 on the loop at 1: its arc, rescaled to 2*0 - 1, is the
    # witness
    assert positive_on_cycles(full2, f) is False
    assert built == [((1,), (1,), -1, (1, 1))]
    built.clear()
    w = class_is_positive(full2, CylinderFunction.from_values(
        full2, {"00": 2, "01": -2, "10": 1, "11": 3}))
    assert isinstance(w, NegativeCycleWitness) and w.verify()
    assert len(built) == len(w.cycle) == 2
