"""Concrete homeomorphisms between vertex shifts.

Three generators are supported and freely composed:

* prefix exchanges: a complete prefix code (u_i) of a vertex shift is
  mapped onto a complete prefix code (v_i) of the same shift,
  h(u_i t) = v_i t.
* SlidingBlockConjugacy: a block map with no memory, whose window reads
  forward, and whose inverse is again a block map; these are exactly the
  one-sided conjugacies between vertex shifts.  relabel_map is the
  1-block case, a graph isomorphism.
* compositions of the above.

prefix_exchange with a vertex map pi (a graph isomorphism from the domain
onto the codomain, or an automorphism when the two are equal) gives
h(u_i t) = v_i pi(t), with u_i words of the domain and v_i words of the
codomain: the relabelling pi followed by the exchange pi(u_i) -> v_i on
the codomain.  This is what the `vmap` lines of an `.oe` file mean.

Each stage keeps, as `inverse`, the inverse stage its constructor proved;
a PointMap reads its inverse off its stages and nothing re-checks it.

Maps act /symbolically/ on cylinders, and a map's action on points is read
off its symbolic image: for every point x in Z(w) the image h(x) has the
shape  W . T(sigma^m(x))  where W is an explicit word and T is a chain of
block maps (block maps commute with the shift, which is what keeps this
calculus closed).  Over Z(w) the chain is held as the one word T(w),
computed stage by stage, so a symbol of the image is read off W or T(w),
or is known to need a longer cylinder.  The symbolic form is what makes
cocycle derivation and verification exact.  Each stage kind defines its
action once, by its `step` on a symbolic image and its `needs`, which
image_form and PointMap.prefix_needed fold without asking for the kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InadmissibleWord, InvalidCode, InvalidVertexMap, NeedDepth
from .points import EvPerPoint
from .presentation import Presentation, Word, word


class BlockStage:
    """Sliding block map with window size `window` and no memory."""

    inverse = None  # set by the constructor that proves an inverse

    def __init__(self, domain: Presentation, codomain: Presentation, table):
        self.domain = domain
        self.codomain = codomain
        table = {word(w): s for w, s in table.items()}
        widths = {len(w) for w in table}
        if len(widths) != 1:
            raise InvalidCode("block table keys must share one length")
        self.window = widths.pop()
        if set(table) != domain.language(self.window):
            raise InvalidCode("block table must cover the window language")
        self.table = table
        # local consistency: sliding the window along an admissible word
        # must produce admissible image words
        for w in domain.language(self.window + 1):
            a, b = table[w[:-1]], table[w[1:]]
            if not codomain.has_edge(a, b):
                raise InvalidCode(
                    f"image of {w!r} breaks admissibility: {a!r}->{b!r}")

    def apply_word(self, w: Word) -> Word:
        if len(w) < self.window:
            return ()
        return tuple(self.table[w[i:i + self.window]]
                     for i in range(len(w) - self.window + 1))

    def step(self, S: "SymImage") -> "SymImage":
        """S's image: the prefix and the window - 1 symbols after it, and
        the tail, each through the window."""
        W = S.prefix
        ext = W + tuple(S.symbol(len(W) + t) for t in range(self.window - 1))
        return SymImage(self.apply_word(ext), self.apply_word(S.tail), S.shift)

    def needs(self, m: int) -> int:
        """Input symbols that determine m output symbols."""
        return m + self.window - 1

    def __repr__(self):
        return f"BlockStage(window={self.window})"


def relabel_stage(domain: Presentation, codomain: Presentation, mapping) -> BlockStage:
    """1-block stage from a vertex bijection (must be a graph isomorphism)."""
    mapping = dict(mapping)
    for a in domain.labels:
        if a not in mapping:
            raise InvalidVertexMap(f"vertex map gives vertex {a!r} no image")
    if set(mapping) != set(domain.labels) or \
            set(mapping.values()) != set(codomain.labels):
        raise InvalidVertexMap("vertex map must biject the vertex sets")
    if len(domain.edges) != len(codomain.edges) or not all(
            codomain.has_edge(mapping[a], mapping[b]) for a, b in domain.edges):
        raise InvalidVertexMap("vertex map is not a graph isomorphism")
    return BlockStage(domain, codomain, {(a,): mapping[a] for a in domain.labels})


class PrefixExchangeStage:
    """h(u_i t) = v_i t for a paired pair of complete prefix codes of P."""

    inverse = None  # set by prefix_exchange

    def __init__(self, P: Presentation, pairing):
        self.domain = self.codomain = P
        self.pairing = {word(u): word(v) for u, v in pairing.items()}
        _check_complete_prefix_code(P, set(self.pairing))
        _check_complete_prefix_code(P, set(self.pairing.values()))
        if len(set(self.pairing.values())) != len(self.pairing):
            raise InvalidCode("pairing must be a bijection")
        for u, v in self.pairing.items():
            if bool(u) != bool(v):
                raise InvalidCode("empty word can only pair with empty word")
            if u and P.follower_set(u[-1]) != P.follower_set(v[-1]):
                raise InvalidCode(f"follower mismatch on {u!r} -> {v!r}")
        self._lengths = sorted({len(u) for u in self.pairing})

    def lookup(self, sym):
        """Code word matching a point given by a symbol accessor.

        Symbols are read in order and only up to the length of the matching
        code word, so an accessor that cannot supply symbol i is asked for
        it only when the match needs it.
        """
        w = ()
        for n in self._lengths:
            while len(w) < n:
                w += (sym(len(w)),)
            if w in self.pairing:
                return w
        raise InvalidCode("no code word matches; code is not complete")

    def step(self, S: "SymImage") -> "SymImage":
        """S's image: its code word u becomes u's partner, and a u longer
        than the prefix shifts the tail."""
        u = self.lookup(S.symbol)
        W = S.prefix
        return SymImage(self.pairing[u] + W[len(u):], S.tail,
                        S.shift + max(len(u) - len(W), 0))

    def needs(self, m: int) -> int:
        """Input symbols that determine m output symbols."""
        return m + self._lengths[-1]

    def __repr__(self):
        pairs = ",".join(f"{''.join(map(str, u))}~{''.join(map(str, v))}"
                         for u, v in sorted(self.pairing.items()))
        return f"PrefixExchange({pairs})"


def _check_complete_prefix_code(P: Presentation, code):
    if not code:
        raise InvalidCode("empty code")
    if () in code:
        if len(code) > 1:
            raise InvalidCode("the empty word must be the only code word")
        return
    for u in code:
        if not P.is_admissible(u):
            raise InvalidCode(f"code word {u!r} not admissible")
    L = max(map(len, code))
    for w in P.language(L):
        hits = [u for u in code if w[:len(u)] == u]
        if len(hits) != 1:
            raise InvalidCode(
                f"cylinders do not partition the shift at {w!r} ({len(hits)} hits)")


class PointMap:
    """A homeomorphism given as a pipeline of stages.  Its inverse is the
    pipeline of the inverses that the stages' constructors proved
    (prefix_exchange, sliding_block_conjugacy, relabel_map); a stage
    without one is refused."""

    def __init__(self, domain, codomain, stages):
        self.domain = domain
        self.codomain = codomain
        self.stages = tuple(stages)
        self.inverse_stages = tuple(st.inverse for st in reversed(self.stages))
        if None in self.inverse_stages:
            raise InvalidCode("a stage has no inverse proven by its constructor")

    def apply(self, p: EvPerPoint) -> EvPerPoint:
        """h(p) for p = prefix . cycle^inf, n = |prefix| and c = n + |cycle|.
        By part (i) of derive_cocycle_pair's proof the symbolic image S over
        p's first c + prefix_needed(0) symbols is determined: h(p) is S.prefix
        then T(p)[S.shift:].  The block chain T has no memory, so T(p) is
        periodic from n with period |cycle|, and S.tail[:c] holds its first c
        symbols (prefix_needed(0) covers T's windows).  A tail that is not a
        block-map image needs sync points in place of n and c."""
        if p.presentation is not self.domain and p.presentation != self.domain:
            raise InadmissibleWord(
                f"{p} lives on {p.presentation!r}, "
                f"not on the map's domain {self.domain!r}")
        n, c = len(p.prefix), len(p.prefix) + len(p.cycle)
        S = image_form(self.stages, p.symbols(c + self.prefix_needed(0)))
        if len(S.tail) < c:
            raise NeedDepth
        pre, cyc = S.prefix + S.tail[min(S.shift, n):n], S.tail[n:c]
        r = max(S.shift - n, 0) % (c - n)
        return EvPerPoint._canonical(self.codomain, pre, cyc[r:] + cyc[:r])

    def __call__(self, p):
        return self.apply(p)

    def inverse(self) -> "PointMap":
        return PointMap(self.codomain, self.domain, self.inverse_stages)

    def then(self, other: "PointMap") -> "PointMap":
        if self.codomain != other.domain:
            raise InvalidCode("composition endpoints do not match")
        return PointMap(self.domain, other.codomain, self.stages + other.stages)

    def prefix_needed(self, m: int) -> int:
        """Input symbols sufficient to determine m output symbols."""
        for st in reversed(self.stages):
            m = st.needs(m)
        return m

    def __repr__(self):
        return " . ".join(repr(s) for s in reversed(self.stages)) or "id"


def identity_map(P: Presentation) -> PointMap:
    return PointMap(P, P, ())


def prefix_exchange(P, pairing, codomain=None, vertex_map=None) -> PointMap:
    """h(u t) = v pi(t).  With a vertex map pi this is relabel_map(P, Q, pi)
    followed by the exchange pi(u) -> v on Q; without one, Q must be P.
    The exchange's inverse swaps the pairing; it passes the same checks."""
    Q = P if codomain is None else codomain
    if vertex_map is None:
        if P != Q:
            raise InvalidCode("vertex map required between distinct shifts")
        relabel = identity_map(P)
    else:
        relabel = relabel_map(P, Q, vertex_map)
        pi = dict(vertex_map)
        pairing = {word(u): v for u, v in pairing.items()}
        if any(s not in pi for u in pairing for s in u):
            raise InvalidCode("code words must be words of the domain")
        pairing = {tuple(pi[s] for s in u): v for u, v in pairing.items()}
    fwd = PrefixExchangeStage(Q, pairing)
    bwd = PrefixExchangeStage(Q, {v: u for u, v in fwd.pairing.items()})
    fwd.inverse, bwd.inverse = bwd, fwd
    return relabel.then(PointMap(Q, Q, (fwd,)))


def sliding_block_conjugacy(domain, codomain, table, inverse_table) -> PointMap:
    """A block-map conjugacy; the inverse block map is part of the data and
    the round trips are verified exhaustively on windows."""
    fwd = BlockStage(domain, codomain, table)
    bwd = BlockStage(codomain, domain, inverse_table)
    for w in domain.language(fwd.window + bwd.window - 1):
        if bwd.apply_word(fwd.apply_word(w)) != (w[0],):
            raise InvalidCode(f"inverse fails on {w!r}")
    for w in codomain.language(fwd.window + bwd.window - 1):
        if fwd.apply_word(bwd.apply_word(w)) != (w[0],):
            raise InvalidCode(f"forward fails on inverse at {w!r}")
    fwd.inverse, bwd.inverse = bwd, fwd
    return PointMap(domain, codomain, (fwd,))


def relabel_map(domain, codomain, mapping) -> PointMap:
    """relabel_stage proves a bijection, so the reversed one is inverse."""
    fwd = relabel_stage(domain, codomain, mapping)
    bwd = relabel_stage(codomain, domain, {b: a for a, b in dict(mapping).items()})
    fwd.inverse, bwd.inverse = bwd, fwd
    return PointMap(domain, codomain, (fwd,))


# ---------------------------------------------------------------------------
# symbolic images over a cylinder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymImage:
    """For all x in Z(base): the represented point is  W . T(sigma^m x).

    T is the chain of block maps image_form met (block maps commute with
    the shift) and `tail` is the word T(base), so T(x)[j] is tail[j] for
    every x in Z(base) when j < len(tail), and needs a longer cylinder
    otherwise.
    """

    prefix: Word
    tail: Word
    shift: int

    @property
    def offset(self) -> int:
        return len(self.prefix) - self.shift

    def shifted(self, k: int) -> "SymImage":
        cut = min(k, len(self.prefix))
        return SymImage(self.prefix[cut:], self.tail, self.shift + k - cut)

    def symbol(self, i: int):
        """Symbol i of the represented point, for all x in Z(base), or
        NeedDepth."""
        if i < len(self.prefix):
            return self.prefix[i]
        j = self.shift + i - len(self.prefix)
        if j < len(self.tail):
            return self.tail[j]
        raise NeedDepth


def image_form(stages, base: Word) -> SymImage:
    """Symbolic image of every x in Z(base) under the stage pipeline: each
    stage's step in turn.  Raises NeedDepth when Z(base) does not determine
    the image shape."""
    S = SymImage((), base, 0)
    for st in stages:
        S = st.step(S)
    return S


def _cocycle_sides(stages, base: Word):
    """The symbolic images of x and of sigma(x), both over x in Z(base).

    T does not depend on the cylinder and T(sigma x) is T(x) shifted by
    one, so the image of sigma(x) reads x's tail one symbol further on.
    """
    S_x = image_form(stages, base)
    S = image_form(stages, base[1:])
    return S_x, SymImage(S.prefix, S_x.tail, S.shift + 1)


def _mismatches(A: SymImage, B: SymImage):
    """(p, a, b) for each position p of the longer prefix where A reads a
    and B reads b != a; positions past both prefixes read equal tails when
    the offsets agree."""
    for p in range(max(len(A.prefix), len(B.prefix))):
        a, b = A.symbol(p), B.symbol(p)
        if a != b:
            yield p, a, b


def minimal_cocycle_on_cylinder(stages, base: Word):
    """Least (k, l) with sigma^k(h(sigma x)) = sigma^l(h(x)) on Z(base).

    The alignment of the two symbolic tails forces l - k; the least shift
    that clears every symbol mismatch gives minimality.  NeedDepth
    propagates when Z(base) is too coarse.
    """
    if len(base) < 1:
        raise NeedDepth
    S_x, S_sx = _cocycle_sides(stages, base)
    delta = S_x.offset - S_sx.offset
    k0 = max(0, -delta)
    l0 = k0 + delta
    mismatches = _mismatches(S_sx.shifted(k0), S_x.shifted(l0))
    c = 1 + max((p for p, _, _ in mismatches), default=-1)
    return k0 + c, l0 + c


def verify_cocycle_on_cylinder(stages, base: Word, k: int, l: int):
    """Check sigma^k(h(sigma x)) = sigma^l(h(x)) for all x in Z(base).

    Returns (True, None) when the two sides coincide on Z(base), otherwise
    (False, reason).
    """
    S_x, S_sx = _cocycle_sides(stages, base)
    A, B = S_sx.shifted(k), S_x.shifted(l)
    if A.offset != B.offset:
        return False, f"misaligned tails ({A.offset} vs {B.offset})"
    for p, a, b in _mismatches(A, B):
        return False, f"symbols differ at position {p}: {a!r} vs {b!r}"
    return True, None
