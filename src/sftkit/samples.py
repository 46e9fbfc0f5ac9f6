"""Seeded generators for presentations, functions, points, and maps.

Everything takes a random.Random so runs are reproducible from a seed; the
CLI and the test-suite both build their samples here.
"""

from __future__ import annotations

import random

from .cylinders import CylinderFunction
from .errors import InvalidCode, ZeroRowOrColumn
from .flow import out_split_conjugacy
from .maps import prefix_exchange
from .orbit import OrbitEquivalence
from .points import BiPoint, EvPerPoint
from .presentation import Presentation


def random_presentation(rng: random.Random, max_vertices=4,
                        min_vertices=1) -> Presentation:
    """A presentation with no sinks or sources, by rejection sampling."""
    while True:
        n = rng.randint(min_vertices, max_vertices)
        density = rng.uniform(0.3, 0.9)
        mat = [[1 if rng.random() < density else 0 for _ in range(n)]
               for _ in range(n)]
        try:
            return Presentation(range(n),
                                [(i, j) for i in range(n) for j in range(n)
                                 if mat[i][j]])
        except ZeroRowOrColumn:
            continue


def random_cylinder_function(rng: random.Random, P: Presentation,
                             max_depth=2, lo=-2, hi=2) -> CylinderFunction:
    d = rng.randint(0, max_depth)
    if d == 0:
        return CylinderFunction.constant(P, rng.randint(lo, hi))
    return CylinderFunction(P, d, {w: rng.randint(lo, hi)
                                   for w in P.words(d)})


def random_point(rng: random.Random, P: Presentation,
                 max_prefix=3) -> EvPerPoint:
    """Random eventually periodic point via a random admissible walk,
    closed off at the first vertex repetition past a random prefix."""
    drop = rng.randint(0, max_prefix)
    walk = [rng.choice(P.labels)]
    for _ in range(drop):
        walk.append(rng.choice(P.out_neighbors(walk[-1])))
    seen = {walk[-1]: len(walk) - 1}
    while True:
        walk.append(rng.choice(P.out_neighbors(walk[-1])))
        v = walk[-1]
        if v in seen:
            i = seen[v]
            return EvPerPoint.make(P, tuple(walk[:i]), tuple(walk[i:-1]))
        seen[v] = len(walk) - 1


def _path_to(P, a, b, rng):
    """Vertices after `a` on some walk a -> ... -> b (BFS, random tie order)."""
    queue = [(a, ())]
    seen = set()
    while queue:
        v, path = queue.pop(0)
        nbrs = list(P.out_neighbors(v))
        rng.shuffle(nbrs)
        for u in nbrs:
            if u == b:
                return path + (u,)
            if u not in seen:
                seen.add(u)
                queue.append((u, path + (u,)))
    raise ValueError(f"no path {a!r} -> {b!r}")


def random_bipoint(rng: random.Random, P: Presentation, max_cycle=4,
                   periodic_bias=0.4) -> BiPoint:
    """A random two-sided point lc^inf . mid . rc^inf (see random_bipoints)."""
    return random_bipoints(rng, P, 1, max_cycle, periodic_bias)[0]


def random_bipoints(rng: random.Random, P: Presentation, count, max_cycle=4,
                    periodic_bias=0.4) -> list:
    """`count` random two-sided points, drawn one after another exactly as
    random_bipoint draws them; P's cycles are listed once for all of them.

    The right cycle is drawn among the cycles reachable from the left one
    and the detour only through vertices that reach back to it, so the draw
    works on reducible presentations too; on irreducible ones every
    candidate qualifies and the draws are the unfiltered ones.
    """
    cycles = P.cycles(max_cycle)
    out = []
    for _ in range(count):
        lc = rng.choice(cycles)
        if rng.random() < periodic_bias:
            out.append(BiPoint.periodic(P, lc, rng.randint(-2, 2)))
            continue
        ahead = P.reachable(lc[-1])
        rc = rng.choice([c for c in cycles if c[0] in ahead])
        # connect lc's end to rc's start, optionally detouring once
        mid = _path_to(P, lc[-1], rc[0], rng)[:-1]
        if rng.random() < 0.5:
            last = mid[-1] if mid else lc[-1]
            ext = rng.choice([u for u in P.out_neighbors(last)
                              if rc[0] in P.reachable(u)])
            mid = mid + (ext,) + _path_to(P, ext, rc[0], rng)[:-1]
        out.append(BiPoint.make(P, lc, mid, rc, rng.randint(-3, 3)))
    return out


def random_complete_prefix_code(rng: random.Random, P: Presentation,
                                expansions=2):
    """A complete prefix code: start from the length-one words and
    repeatedly expand a random leaf into its extensions."""
    code = [(v,) for v in P.labels]
    for _ in range(expansions):
        leaf = code.pop(rng.randrange(len(code)))
        code.extend(P.extensions(leaf))
    return code


def random_prefix_exchange(rng: random.Random, P: Presentation,
                           expansions=2) -> OrbitEquivalence:
    """A random prefix exchange that is not the identity.

    Code words are permuted within groups of equal terminal vertex, which
    keeps the follower data matched.  A draw that pairs every word with
    itself is redrawn, up to 100 times before InvalidCode: on the 2-cycle
    0 -> 1 -> 0, two expansions leave no two code words ending alike.
    """
    for _ in range(100):
        code = random_complete_prefix_code(rng, P, expansions)
        groups = {}
        for u in code:
            groups.setdefault(u[-1], []).append(u)
        pairing = {}
        for g in groups.values():
            img = g[:]
            rng.shuffle(img)
            pairing.update(dict(zip(g, img)))
        if any(u != v for u, v in pairing.items()):
            return OrbitEquivalence(prefix_exchange(P, pairing))
    raise InvalidCode("no non-identity prefix exchange in 100 draws")


def random_split_conjugacy(rng: random.Random, P: Presentation,
                           moves=3) -> OrbitEquivalence:
    """A one-sided conjugacy from composed random out-splits.

    Each step splits a branching vertex into two out-classes; directions
    alternate at random by inverting the accumulated map.
    """
    fwd = None
    cur = P
    done = 0
    attempts = 0
    while done < moves and attempts < 20 * moves:
        attempts += 1
        candidates = [v for v in cur.labels if len(cur.out_neighbors(v)) >= 2]
        if not candidates:
            break
        v = rng.choice(candidates)
        nbrs = list(cur.out_neighbors(v))
        rng.shuffle(nbrs)
        cut = rng.randint(1, len(nbrs) - 1)
        parts = [nbrs[:cut], nbrs[cut:]]
        Q, conj = out_split_conjugacy(cur, v, parts)
        fwd = conj if fwd is None else fwd.then(conj)
        cur = Q
        done += 1
        if rng.random() < 0.5 and fwd is not None:
            fwd = fwd.inverse()
            cur = fwd.codomain
    if fwd is None:
        from .maps import identity_map
        fwd = identity_map(P)
    return OrbitEquivalence(fwd)


def random_digraph(rng: random.Random, max_nodes=4, max_arcs=8,
                   weight_range=(-2, 2), strongly_connected=True):
    """(nodes, arcs) with integer weights, optionally strongly connected;
    arcs are (source, target, weight) triples and may repeat pairs."""
    while True:
        n = rng.randint(1, max_nodes)
        nodes = list(range(n))
        arcs = []
        if strongly_connected and n > 1:
            order = nodes[:]
            rng.shuffle(order)
            for i, v in enumerate(order):
                arcs.append((v, order[(i + 1) % n],
                             rng.randint(*weight_range)))
        while len(arcs) < rng.randint(min(n, max_arcs), max_arcs):
            arcs.append((rng.choice(nodes), rng.choice(nodes),
                         rng.randint(*weight_range)))
        if strongly_connected and not _is_strongly_connected(nodes, arcs):
            continue
        return nodes, arcs[:max_arcs]


def _is_strongly_connected(nodes, arcs):
    if not nodes:
        return False
    fwd = {v: set() for v in nodes}
    bwd = {v: set() for v in nodes}
    for a, b, _ in arcs:
        fwd[a].add(b)
        bwd[b].add(a)
    for adj in (fwd, bwd):
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(nodes):
            return False
    return True
