import itertools
import random

import pytest
from conftest import simple_cycles

from sftkit import build_presentation, from_forbidden_words, full_shift, word
from sftkit import golden_mean
from sftkit.errors import EmptyShift, SinkOrSourceAfterPruning, ZeroRowOrColumn
from sftkit.presentation import (
    Presentation,
    higher_block,
    primitive_root,
    rotations,
)
from sftkit.samples import random_presentation


def test_full_shift_accepted():
    P = build_presentation([[1, 1], [1, 1]])
    assert len(P.labels) == 2
    assert len(P.edges) == 4


def test_golden_mean_accepted():
    P = build_presentation([[1, 1], [1, 0]])
    assert (1, 1) not in P.edges


def test_no_zero_row_or_column():
    # rows (1,0),(1,1) and columns (1,1),(0,1) are all nonzero: accepted
    P = build_presentation([[1, 0], [1, 1]])
    assert len(P.labels) == 2
    with pytest.raises(ZeroRowOrColumn) as e:
        build_presentation([[0, 0], [1, 1]])
    assert e.value.kind == "row" and e.value.index == 0
    with pytest.raises(ZeroRowOrColumn) as e:
        build_presentation([[1, 0], [1, 0]])
    assert e.value.kind == "column"


def test_rejects_non_binary():
    with pytest.raises(ValueError):
        build_presentation([[2, 0], [1, 1]])


def test_language_examples(full2, gm):
    assert {" ".join(map(str, w)) for w in full2.language(2)} == \
        {"0 0", "0 1", "1 0", "1 1"}
    assert gm.language(2) == {(0, 0), (0, 1), (1, 0)}
    assert gm.language(3) == {(0, 0, 0), (0, 0, 1), (0, 1, 0),
                              (1, 0, 0), (1, 0, 1)}


def test_language_is_factorial(gm, full3):
    for P in (gm, full3):
        for m in (2, 3, 4):
            shorter = P.language(m - 1)
            for w in P.language(m):
                assert w[:-1] in shorter and w[1:] in shorter


def test_words_are_the_language_in_label_order():
    named = [full_shift(3, labels="cab"), golden_mean(),
             Presentation("xyz", [("x", "y"), ("y", "z"), ("z", "x"),
                                  ("y", "y"), ("z", "z")])]
    seeded = [random_presentation(random.Random(seed), 5)
              for seed in range(100)]
    assert sum(not _strongly_connected(P) for P in seeded) >= 10
    for P in named + seeded:
        for m in range(1, 6):
            assert P.words(m) == P.sorted_words(P.language(m)), \
                (P.labels, sorted(P.edges), m)
            assert set(P.words(m)) == P.language(m)


def test_forbidden_words_golden_mean():
    P, rec = from_forbidden_words((0, 1), [word("11")])
    assert set(P.labels) == {0, 1}
    assert P.edges == frozenset({(0, 0), (0, 1), (1, 0)})
    assert rec.block_length == 1


def test_forbidden_words_trivial():
    P, _ = from_forbidden_words(("a",), [])
    assert P.labels == ("a",)
    assert P.edges == frozenset({("a", "a")})


def test_forbidden_words_empty_shift():
    with pytest.raises(EmptyShift):
        from_forbidden_words((0, 1), [word("0"), word("1")])


def test_forbidden_words_source_detected():
    # forbidding 00 and 10 leaves points 01^inf and 1^inf: not shift-invariant
    with pytest.raises(SinkOrSourceAfterPruning):
        from_forbidden_words((0, 1), [word("00"), word("10")])


def _encode(rec, w):
    """The L-block recoding of an original word of length >= L."""
    L = rec.block_length
    inv = {b: v for v, b in rec.blocks.items()}
    return tuple(inv[w[i:i + L]] for i in range(len(w) - L + 1))


def _decode(rec, w):
    """The original word a non-empty word of L-blocks stands for."""
    return rec.blocks[w[0]] + tuple(rec.blocks[v][-1] for v in w[1:])


def test_forbidden_longer_words():
    # 11 can never continue, so pruning must remove it entirely
    P, rec = from_forbidden_words((0, 1), [word("110"), word("111")])
    assert rec.block_length == 2
    decoded = {_decode(rec, w) for w in P.language(2)}
    assert word("110") not in decoded and word("111") not in decoded
    assert word("11") not in set(P.labels)


def test_higher_block_recoding(gm):
    Q, rec = higher_block(gm, 2)
    assert set(Q.labels) == gm.language(2)
    # edges overlap correctly
    for a, b in Q.edges:
        assert a[1:] == b[:-1]
    w = word("00101")
    assert _decode(rec, _encode(rec, w)) == w


def test_cycles_are_rotation_free(gm):
    cyc = gm.cycles(4)
    as_sets = {min(c[i:] + c[:i] for i in range(len(c))) for c in cyc}
    assert len(as_sets) == len(cyc)
    for c in cyc:
        assert gm.has_edge(c[-1], c[0])


def _cycles_by_sorting(P, max_len):
    """The reference enumeration: every closed admissible word of each
    length in label order, kept when it is the first of its rotation class
    and primitive."""
    def key(w):
        return tuple(P.index(s) for s in w)

    found, seen = [], set()
    for length in range(1, max_len + 1):
        for w in sorted(P.language(length), key=key):
            if not P.has_edge(w[-1], w[0]):
                continue
            rot = min(rotations(w), key=key)
            if rot in seen:
                continue
            seen.add(rot)
            if primitive_root(w) == w:
                found.append(w)
    return found


def _strongly_connected(P):
    def reach(step):
        seen, stack = {P.labels[0]}, [P.labels[0]]
        while stack:
            for u in step(stack.pop()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(P.labels)
    return reach(P.out_neighbors) and reach(P.in_neighbors)


def test_cycles_equal_the_sorted_rotation_enumeration():
    """cycles() lists the same words in the same order as sorting every
    closed word and keeping the least primitive rotation of each class."""
    named = [full_shift(2), full_shift(3), full_shift(4), golden_mean(),
             full_shift(3, labels="cab"),
             Presentation("xyz", [("x", "y"), ("y", "z"), ("z", "x"),
                                  ("y", "y"), ("z", "z")])]
    seeded = [random_presentation(random.Random(seed)) for seed in range(200)]
    assert sum(not _strongly_connected(P) for P in seeded) >= 20
    for P in named + seeded:
        for max_len in range(0, 7):
            assert P.cycles(max_len) == _cycles_by_sorting(P, max_len), \
                (P.labels, sorted(P.edges), max_len)


def test_poor_cycles_of_general_presentations(loop_into_loop,
                                              rich_into_permutation,
                                              two_rich_components, full2, gm):
    assert loop_into_loop.poor_cycles() == [("a",), ("b",)]
    assert rich_into_permutation.poor_cycles() == [(2, 3, 4)]
    assert two_rich_components.poor_cycles() == []
    assert full2.poor_cycles() == gm.poor_cycles() == []
    # only one walk leaves a vertex exactly when no branching lies ahead
    assert [v for v in loop_into_loop.labels
            if loop_into_loop.is_forced(v)] == ["b"]
    assert [v for v in rich_into_permutation.labels
            if rich_into_permutation.is_forced(v)] == [2, 3, 4]
    assert not any(map(two_rich_components.is_forced,
                       two_rich_components.labels))
    assert not any(map(gm.is_forced, gm.labels))
    # a permutation component that leads into a rich one is not poor
    exits = Presentation(range(5), [(0, 1), (1, 2), (2, 0), (2, 3),
                                    (3, 3), (3, 4), (4, 3)])
    assert exits.poor_cycles() == []
    # 0 has one successor, but the walk from it reaches the branching 2
    assert not any(map(exits.is_forced, exits.labels))
    # each cycle starts at its least vertex in label order; shorter first
    perm = Presentation("cabd", [("c", "a"), ("a", "b"), ("b", "c"),
                                 ("d", "d")])
    assert perm.poor_cycles() == [("d",), ("c", "a", "b")]


def _poor_by_simple_cycles(P):
    """Simple cycles whose reachable simple cycles are pairwise disjoint:
    two simple cycles through one vertex make a component that is not a
    single cycle."""
    simple = simple_cycles(P)
    poor = set()
    for c in simple:
        ahead = P.reachable(c[0])
        near = [set(d) for d in simple if ahead & set(d)]
        if all(not d & e for d, e in itertools.combinations(near, 2)):
            poor.add(min(rotations(c), key=lambda w: [P.index(s) for s in w]))
    return poor


def test_poor_cycles_equal_the_disjoint_simple_cycle_definition(
        loop_into_loop, rich_into_permutation, two_rich_components):
    rng = random.Random(31)
    presentations = [loop_into_loop, rich_into_permutation,
                     two_rich_components, full_shift(3), golden_mean()]
    presentations += [random_presentation(rng, 5) for _ in range(300)]
    with_poor = 0
    for P in presentations:
        poor = _poor_by_simple_cycles(P)
        assert P.poor_cycles() == [c for c in P.cycles(len(P.labels))
                                   if c in poor]
        with_poor += bool(poor)
    assert with_poor >= 50
