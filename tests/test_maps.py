import random
from dataclasses import dataclass
from functools import cache, partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from sftkit import (
    EvPerPoint,
    full_shift,
    golden_mean,
    prefix_exchange,
    relabel_map,
    sliding_block_conjugacy,
    word,
)
from sftkit.errors import InadmissibleWord, InvalidCode, NeedDepth
from sftkit.maps import (
    BlockStage,
    PointMap,
    PrefixExchangeStage,
    image_form,
    minimal_cocycle_on_cylinder,
    verify_cocycle_on_cylinder,
)
from sftkit.presentation import Presentation, Word
from sftkit.samples import (
    random_prefix_exchange,
    random_presentation,
    random_split_conjugacy,
)
from tests.test_orbit import _there_and_back
from tests.test_points import tail_words


def test_prefix_exchange_point_examples(full2, std_exchange):
    h = std_exchange
    assert h(EvPerPoint.make(full2, (), (0,))) == \
        EvPerPoint.make(full2, (1,), (0,))
    assert h(EvPerPoint.make(full2, (), (1, 0))) == \
        EvPerPoint.make(full2, (), (0, 1))
    assert h(EvPerPoint.make(full2, (), (1,))) == \
        EvPerPoint.make(full2, (), (1,))
    # with a vertex map pi, h(u t) = v pi(t): 0.01000... -> 10.10111...
    g = prefix_exchange(full2, h.stages[0].pairing, full2, {0: 1, 1: 0})
    assert g(EvPerPoint.make(full2, (0, 0, 1), (0,))) == \
        EvPerPoint.make(full2, (1, 0, 1, 0), (1,))


def test_prefix_exchange_is_bijective_on_samples(full2, std_exchange):
    h, hinv = std_exchange, std_exchange.inverse()
    pts = []
    for w in full2.language(4):
        pts.append(EvPerPoint.make(full2, w, (0,)))
        pts.append(EvPerPoint.make(full2, w, (0, 1)))
    images = set()
    for x in pts:
        y = h(x)
        assert hinv(y) == x
        images.add(y)
    assert len(images) == len(set(pts))


def test_prefix_exchange_rejects_bad_codes(full2, gm):
    with pytest.raises(InvalidCode):
        prefix_exchange(full2, {word("0"): word("0")})  # incomplete
    with pytest.raises(InvalidCode):
        prefix_exchange(full2, {word("0"): word("10"),
                                word("1"): word("0"),
                                word("11"): word("11")})  # 1 prefixes 11
    with pytest.raises(InvalidCode):
        # follower data broken on the golden mean: 1 has followers {0},
        # 0 has followers {0,1}
        prefix_exchange(gm, {word("0"): word("1"), word("1"): word("0")})
    # vertex maps: not a graph isomorphism, not a bijection, a code word
    # with a symbol outside the domain, and none between distinct shifts
    pairing = {word("0"): word("10"), word("10"): word("0"),
               word("11"): word("11")}
    for codomain, pi, code in [(gm, {0: 0, 1: 1}, pairing),
                               (full2, {0: 0}, pairing),
                               (full2, {0: 1, 1: 0},
                                {**pairing, word("2"): word("11")}),
                               (gm, None, pairing)]:
        with pytest.raises(InvalidCode):
            prefix_exchange(full2, code, codomain, pi)


def test_golden_mean_prefix_exchange():
    # {00, 01, 10} is a complete prefix code; 00 and 10 share terminals
    gm = golden_mean()
    h = prefix_exchange(gm, {word("00"): word("10"),
                             word("01"): word("01"),
                             word("10"): word("00")})
    for pre, cyc in [((), (0,)), ((), (0, 1)), ((1,), (0,)), ((0, 0, 1), (0,))]:
        x = EvPerPoint.make(gm, pre, cyc)
        assert h.inverse()(h(x)) == x


def test_relabel_map(full2):
    Q = full_shift(2, labels=("a", "b"))
    h = relabel_map(full2, Q, {0: "a", 1: "b"})
    x = EvPerPoint.make(full2, (0,), (1, 0))
    assert h(x) == EvPerPoint.make(Q, ("a",), ("b", "a"))
    assert h.inverse()(h(x)) == x


def test_sliding_block_conjugacy_roundtrip(gm):
    # golden mean to its 2-block presentation
    from sftkit.presentation import higher_block
    Q, rec = higher_block(gm, 2)
    fwd = {w: w for w in gm.language(2)}
    bwd = {(q,): q[0] for q in Q.labels}
    h = sliding_block_conjugacy(gm, Q, fwd, bwd)
    x = EvPerPoint.make(gm, (1,), (0, 0, 1))
    y = h(x)
    assert y.presentation == Q
    assert h.inverse()(y) == x
    # conjugacy: h commutes with the shift
    assert h(x.shift(1)) == y.shift(1)


def test_sliding_block_rejects_non_inverse(full2):
    # the xor block map is two-to-one, so no inverse can verify
    fwd = {w: w[0] ^ w[1] for w in full2.language(2)}
    bwd = {(q,): q for q in full2.labels}
    with pytest.raises(InvalidCode):
        sliding_block_conjugacy(full2, full2, fwd, bwd)


def test_composition_acts_like_both(full2, std_exchange):
    h = std_exchange.then(std_exchange)
    for pre, cyc in [((), (0,)), ((1, 0), (0, 1)), ((), (1,))]:
        x = EvPerPoint.make(full2, pre, cyc)
        assert h(x) == std_exchange(std_exchange(x))
        assert h.inverse()(h(x)) == x


@pytest.mark.parametrize("seed", [0, 1])
def test_a_point_of_another_presentation_is_inadmissible(full2, seed):
    # both maps are drawn on full2, yet their domain is a split presentation;
    # seed 1 used to end in a bare KeyError, seed 0 returned a point
    h = random_split_conjugacy(random.Random(seed), full2, 2)
    assert h.domain != full2
    with pytest.raises(InadmissibleWord):
        h(EvPerPoint.make(full2, (), (0,)))
    for cyc in h.domain.cycles(3):
        x = EvPerPoint.make(h.domain, (), cyc)
        assert h(x).presentation == h.codomain
        assert h.inverse()(h(x)) == x


def test_a_stage_without_a_proven_inverse_is_rejected(full2):
    raw = BlockStage(full2, full2, {(a,): a for a in full2.labels})
    with pytest.raises(InvalidCode):
        PointMap(full2, full2, (raw,))


def test_double_inverse_holds_the_same_stages(full2, gm, std_exchange):
    # h and its double inverse must share the stage objects, not equal
    # copies: a stage's constructor proves the inverse it holds, and a pair
    # proven for a PointMap is recognised by identity
    from sftkit.presentation import higher_block
    Q, _ = higher_block(gm, 2)
    conj = sliding_block_conjugacy(gm, Q, {w: w for w in gm.language(2)},
                                   {(q,): q[0] for q in Q.labels})
    relabel = relabel_map(full2, full_shift(2, labels=("a", "b")),
                          {0: "a", 1: "b"})
    for h in (std_exchange, conj, relabel, std_exchange.then(relabel)):
        back = h.inverse().inverse()
        assert len(back.stages) == len(h.stages)
        assert all(a is b for a, b in zip(back.stages, h.stages))
        assert all(a.inverse.inverse is a for a in h.stages)


def test_minimal_cocycles_match_hand_values(full2, std_exchange):
    stages = std_exchange.stages
    assert minimal_cocycle_on_cylinder(stages, word("00")) == (1, 2)
    assert minimal_cocycle_on_cylinder(stages, word("010")) == (0, 3)
    assert minimal_cocycle_on_cylinder(stages, word("10")) == (1, 0)
    assert minimal_cocycle_on_cylinder(stages, word("111")) == (0, 1)


def test_verify_cocycle_detects_wrong_pair(full2, std_exchange):
    stages = std_exchange.stages
    ok, _ = verify_cocycle_on_cylinder(stages, word("111"), 0, 1)
    assert ok
    bad, reason = verify_cocycle_on_cylinder(stages, word("111"), 0, 2)
    assert not bad and reason


def test_identity_image_form():
    S = image_form((), word("01"))
    assert (S.prefix, S.tail, S.shift) == ((), word("01"), 0)


def _lookup_by_scan(st, sym):
    """The reference lookup: compare the code words, shortest first, symbol
    by symbol."""
    for u in sorted(st.pairing, key=len):
        if all(sym(i) == u[i] for i in range(len(u))):
            return u
    raise InvalidCode("no code word matches; code is not complete")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NeedDepth:
        return ("NeedDepth",)


def _random_maps():
    rng = random.Random(20)
    maps = [random_prefix_exchange(rng, P, expansions).forward
            for P, expansions in [(full_shift(2), 2), (full_shift(3), 3),
                                  (full_shift(4), 2), (golden_mean(), 2)]
            for _ in range(3)]
    for _ in range(2):
        split = random_split_conjugacy(rng, full_shift(3), 2)
        pe = random_prefix_exchange(rng, split.codomain, 2)
        maps.append(split.compose(pe).forward)
    return maps


def test_lookup_matches_the_linear_scan():
    """lookup finds the code word the scan finds and, when the accessor
    runs out of symbols, needs the same one more symbol as the scan."""
    for h in _random_maps():
        for st in h.stages:
            if not isinstance(st, PrefixExchangeStage):
                continue
            P = st.domain
            for w in P.language(st.needs(1)):
                for known in range(len(w) + 1):
                    def sym(i):
                        if i >= known:
                            raise NeedDepth
                        return w[i]
                    assert _outcome(st.lookup, sym) == \
                        _outcome(_lookup_by_scan, st, sym)


def test_image_form_needs_the_same_depth_as_the_linear_scan(monkeypatch):
    """image_form over every cylinder of length 1-3 gives the same symbolic
    image, or asks for the same longer cylinder, with either lookup."""
    cases = []
    for h in _random_maps():
        for n in (1, 2, 3):
            for base in sorted(h.domain.language(n), key=str):
                cases.append((h.stages, base))
    got = [_outcome(image_form, *case) for case in cases]
    monkeypatch.setattr(PrefixExchangeStage, "lookup", _lookup_by_scan)
    want = [_outcome(image_form, *case) for case in cases]
    assert got == want
    assert any(isinstance(g, tuple) for g in got)


# -- the chain-based calculus, kept as the reference ------------------------
#
# The symbolic images as they were first written: the tail is a tuple of
# block stages, re-applied to the whole base word for every symbol read.

@dataclass(frozen=True)
class ChainImage:
    """For all x in Z(base): the represented point is  W . chain(sigma^m x).

    `chain` is a tuple of BlockStage; block maps commute with the shift, so
    shifting and symbol lookup stay exact.
    """

    prefix: Word
    chain: tuple
    shift: int

    @property
    def offset(self) -> int:
        return len(self.prefix) - self.shift

    def shifted(self, k: int) -> "ChainImage":
        if k <= len(self.prefix):
            return ChainImage(self.prefix[k:], self.chain, self.shift)
        return ChainImage((), self.chain, self.shift + k - len(self.prefix))

    def rebased(self, extra: int) -> "ChainImage":
        """Reinterpret an image of sigma^extra(x) as an image over x."""
        return ChainImage(self.prefix, self.chain, self.shift + extra)

    def symbol(self, base: Word, i: int):
        """Symbol i of the represented point, for all x in Z(base)."""
        if i < len(self.prefix):
            return self.prefix[i]
        return _chain_symbol(self.chain, base,
                             self.shift + i - len(self.prefix))


def _chain_ant(chain) -> int:
    return sum(st.window - 1 for st in chain)


def _chain_symbol(chain, base: Word, idx: int):
    """chain(x)[idx] for x in Z(base), or NeedDepth."""
    need = idx + 1 + _chain_ant(chain)
    if len(base) < need:
        raise NeedDepth
    w = base
    for st in chain:
        w = st.apply_word(w)
    return w[idx]


def chain_image_form(stages, base: Word, P: Presentation) -> ChainImage:
    """Symbolic image of every x in Z(base) under the stage pipeline.

    Raises NeedDepth when Z(base) does not determine the image shape.
    """
    W, chain, m = (), (), 0
    for st in stages:
        if isinstance(st, BlockStage):
            a = st.window - 1
            ext = W + tuple(_chain_symbol(chain, base, m + t) for t in range(a))
            W = tuple(st.table[ext[i:i + st.window]] for i in range(len(W)))
            chain = chain + (st,)
        else:
            u = st.lookup(partial(ChainImage(W, chain, m).symbol, base))
            v = st.pairing[u]
            if len(u) <= len(W):
                W = v + W[len(u):]
            else:
                m += len(u) - len(W)
                W = v
    return ChainImage(W, chain, m)


def _chains_match(c1, c2) -> bool:
    return len(c1) == len(c2) and all(a is b for a, b in zip(c1, c2))


def sides_agree(S1: ChainImage, S2: ChainImage, base: Word):
    """Exact comparison of two symbolic tails over a common cylinder.

    Returns (True, None) when the represented points coincide for every
    x in Z(base); otherwise (False, reason).  Conservative: tails carried
    by different chains or at different alignments are reported unequal.
    """
    if not _chains_match(S1.chain, S2.chain):
        return False, "different tail transforms"
    if S1.offset != S2.offset:
        return False, f"misaligned tails ({S1.offset} vs {S2.offset})"
    for p in range(max(len(S1.prefix), len(S2.prefix))):
        a = S1.symbol(base, p)
        b = S2.symbol(base, p)
        if a != b:
            return False, f"symbols differ at position {p}: {a!r} vs {b!r}"
    return True, None


def _chain_cocycle_sides(stages, base: Word, P: Presentation):
    """The symbolic images of x and of sigma(x), both over x in Z(base)."""
    S_x = chain_image_form(stages, base, P)
    S_sx = chain_image_form(stages, base[1:], P).rebased(1)
    return S_x, S_sx


def chain_minimal_cocycle(stages, base: Word, P: Presentation):
    """Least (k, l) with sigma^k(h(sigma x)) = sigma^l(h(x)) on Z(base).

    The alignment of the two symbolic tails forces l - k; the least shift
    that clears every symbol mismatch gives minimality.  NeedDepth
    propagates when Z(base) is too coarse.
    """
    if len(base) < 1:
        raise NeedDepth
    S_x, S_sx = _chain_cocycle_sides(stages, base, P)
    delta = S_x.offset - S_sx.offset
    k0 = max(0, -delta)
    l0 = k0 + delta
    A = S_sx.shifted(k0)
    B = S_x.shifted(l0)
    if not _chains_match(A.chain, B.chain):
        raise InvalidCode("stage pipeline produced mismatched tail transforms")
    last_bad = -1
    for p in range(max(len(A.prefix), len(B.prefix))):
        if A.symbol(base, p) != B.symbol(base, p):
            last_bad = p
    c = last_bad + 1
    return k0 + c, l0 + c


def chain_verify_cocycle(stages, base: Word, P: Presentation, k: int, l: int):
    """Check sigma^k(h(sigma x)) = sigma^l(h(x)) for all x in Z(base)."""
    S_x, S_sx = _chain_cocycle_sides(stages, base, P)
    return sides_agree(S_sx.shifted(k), S_x.shifted(l), base)


def _oracle_maps():
    """Seeded prefix exchanges with and without a vertex map, split
    conjugacies and composites of both, each with its inverse."""
    rng = random.Random(19)
    maps = []
    for P in (full_shift(2), full_shift(3), golden_mean()):
        for _ in range(3):
            h = random_prefix_exchange(rng, P, 2)
            maps += [h.forward, _relabelled(h)]
    for P in (full_shift(2), full_shift(3), golden_mean()):
        split = random_split_conjugacy(rng, P, 3)
        pe = random_prefix_exchange(rng, split.codomain, 2)
        relabelled = _relabelled(random_prefix_exchange(rng, P, 2))
        out = random_split_conjugacy(rng, relabelled.codomain, 1)
        if out.domain != relabelled.codomain:
            out = out.inverse()
        maps += [split.forward, split.compose(pe).forward,
                 pe.forward.then(split.inverse().forward),
                 relabelled.then(out.forward)]
    return maps + [pm.inverse() for pm in maps]


def test_tail_words_match_the_chain_reference():
    """minimal and verify give the chain-based calculus's results and
    reasons, and need a longer cylinder where it does, on every cylinder
    of length 1-3."""
    seen = set()
    for pm in _oracle_maps():
        for n in (1, 2, 3):
            for base in pm.domain.words(n):
                got = _outcome(minimal_cocycle_on_cylinder, pm.stages, base)
                assert got == _outcome(chain_minimal_cocycle, pm.stages,
                                       base, pm.domain)
                seen.add(("minimal", got[0] == "NeedDepth"))
                for k in range(4):
                    for l in range(4):
                        got = _outcome(verify_cocycle_on_cylinder,
                                       pm.stages, base, k, l)
                        assert got == _outcome(chain_verify_cocycle,
                                               pm.stages, base, pm.domain,
                                               k, l)
                        seen.add(got[0] if got[0] in (True, "NeedDepth")
                                 else got[1].split(" ")[0])
    assert seen == {("minimal", False), ("minimal", True), True, "NeedDepth",
                    "misaligned", "symbols"}


# -- stage outputs are canonical without make -----------------------------

SEEDS = st.integers(0, 2 ** 16)


def _relabelled(h):
    """h's single prefix exchange onto a copy of its domain with every
    label moved up by 10, so that it is built with a vertex map."""
    (stage,) = h.forward.stages
    P = stage.domain
    Q = Presentation([a + 10 for a in P.labels],
                     [(a + 10, b + 10) for a, b in P.edges])
    pairing = {u: tuple(s + 10 for s in v) for u, v in stage.pairing.items()}
    return prefix_exchange(P, pairing, Q, {a: a + 10 for a in P.labels})


def _raw_image(stage, p):
    """A raw (prefix, cycle) of stage's image of p, read off the stage's
    word-level definition: the prefix runs at least one period past where
    the image turns periodic, and the cycle is that period written twice."""
    nc = len(p.cycle)
    if isinstance(stage, BlockStage):
        k = len(p.prefix) + nc
        img = stage.apply_word(p.symbols(k + 2 * nc + stage.window - 1))
    else:
        (u,) = [u for u in stage.pairing if p.starts_with(u)]
        v = stage.pairing[u]
        k = len(v) + len(p.prefix) + nc
        img = v + p.word_range(len(u), len(u) + k + 2 * nc)
    return img[:k], img[k:k + 2 * nc]


def _check_stages(stages, data):
    for stage in stages:
        p = EvPerPoint.make(stage.domain, *data.draw(tail_words(stage.domain)))
        got = PointMap(stage.domain, stage.codomain, (stage,)).apply(p)
        assert got == EvPerPoint.make(stage.codomain, *_raw_image(stage, p))


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.booleans(), st.data())
def test_prefix_exchange_output_equals_make_of_its_raw_words(seed, vmap,
                                                            data):
    rng = random.Random(seed)
    try:
        h = random_prefix_exchange(rng, random_presentation(rng), 2)
    except InvalidCode:
        assume(False)
    pm = _relabelled(h) if vmap else h.forward
    assert isinstance(pm.stages[0], BlockStage) == vmap
    _check_stages(pm.stages + pm.inverse().stages, data)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.data())
def test_block_stage_output_equals_make_of_its_raw_words(seed, data):
    rng = random.Random(seed)
    h = random_split_conjugacy(rng, random_presentation(rng), 2).forward
    assume(h.stages)
    assert all(isinstance(s, BlockStage) for s in h.stages)
    _check_stages(h.stages + h.inverse().stages, data)


# -- a map's point image is read off its symbolic image ------------------

@cache
def _composed_maps():
    """The oracle maps (composed, relabelled and inverted) and both
    directions of the there-and-back identities for L = 2..13."""
    backs = [_there_and_back(full_shift(2), L) for L in range(2, 14)]
    return _oracle_maps() + [pm for h in backs
                             for pm in (h.forward, h.backward)]


def _image_stage_by_stage(pm, p):
    for stage in pm.stages:
        p = EvPerPoint.make(stage.codomain, *_raw_image(stage, p))
    return p


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_map_image_equals_its_stages_raw_words_made_in_turn(data):
    for pm in _composed_maps():
        p = EvPerPoint.make(pm.domain, *data.draw(tail_words(pm.domain)))
        assert pm.apply(p) == _image_stage_by_stage(pm, p)


def test_map_image_needs_the_whole_base_its_proof_counts(monkeypatch):
    """One symbol fewer than c + prefix_needed(0) leaves a block chain's
    tail one symbol short of c: apply raises NeedDepth there, and gives
    the true image wherever it still answers."""
    cases = [(pm, EvPerPoint.make(pm.domain, (), c))
             for pm in _composed_maps() for c in pm.domain.cycles(3)]
    want = [pm.apply(p) for pm, p in cases]
    needed = PointMap.prefix_needed
    monkeypatch.setattr(PointMap, "prefix_needed",
                        lambda self, m: needed(self, m) - 1)
    outcomes = set()
    for (pm, p), image in zip(cases, want):
        try:
            outcomes.add(pm.apply(p) == image)
        except NeedDepth:
            outcomes.add("NeedDepth")
    assert outcomes == {True, "NeedDepth"}
