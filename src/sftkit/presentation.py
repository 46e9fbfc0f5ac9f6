"""Finite presentations of shifts of finite type as vertex shifts.

A presentation is a finite directed graph with no sinks and no sources,
equivalently a square {0,1} matrix with no zero row or column.  Points of
the shift are infinite vertex walks; a word is admissible when consecutive
symbols are edges.
"""

from __future__ import annotations

from .errors import (
    EmptyShift,
    InadmissibleWord,
    SinkOrSourceAfterPruning,
    ZeroRowOrColumn,
)

Word = tuple  # finite sequence of vertex labels; () is the empty word


def word(symbols) -> Word:
    """Coerce an iterable (e.g. the string "010") into a Word tuple.

    Strings of digits become tuples of ints, which is the convention used
    by the file formats and most tests.
    """
    if isinstance(symbols, tuple):
        return symbols
    if isinstance(symbols, str):
        return tuple(int(c) if c.isdigit() else c for c in symbols)
    return tuple(symbols)


class Presentation:
    """Vertex shift of a finite graph with all rows and columns nonzero."""

    def __init__(self, labels, edges):
        self.labels = tuple(labels)
        if not self.labels:
            raise EmptyShift("a presentation needs at least one vertex")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        self.edges = frozenset((a, b) for a, b in edges)
        label_set = set(self.labels)
        for a, b in self.edges:
            if a not in label_set or b not in label_set:
                raise ValueError(f"edge ({a!r},{b!r}) uses unknown vertex")
        self._index = {v: i for i, v in enumerate(self.labels)}
        self._out = {v: tuple(sorted((b for a, b in self.edges if a == v),
                                     key=self._index.__getitem__))
                     for v in self.labels}
        self._in = {v: tuple(sorted((a for a, b in self.edges if b == v),
                                    key=self._index.__getitem__))
                    for v in self.labels}
        for v in self.labels:
            if not self._out[v]:
                raise ZeroRowOrColumn("row", self._index[v])
        for v in self.labels:
            if not self._in[v]:
                raise ZeroRowOrColumn("column", self._index[v])
        # points hash their presentation on every memo lookup
        self._hash = hash((self.labels, self.edges))
        # points print a word's labels joined by this: "." once an int or
        # str label prints as more than one character, so that (1, 11) and
        # (11, 1) print apart
        self.label_separator = "." if any(
            isinstance(v, (int, str)) and len(str(v)) > 1
            for v in self.labels) else ""

    # -- basic structure ---------------------------------------------------

    def index(self, label):
        return self._index[label]

    def out_neighbors(self, v):
        return self._out[v]

    def in_neighbors(self, v):
        return self._in[v]

    def has_edge(self, a, b):
        return (a, b) in self.edges

    def adjacency(self):
        """Adjacency matrix as a list of lists of 0/1 ints (label order)."""
        n = len(self.labels)
        mat = [[0] * n for _ in range(n)]
        for a, b in self.edges:
            mat[self._index[a]][self._index[b]] = 1
        return mat

    def follower_set(self, v):
        return frozenset(self._out[v])

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.labels == other.labels
                and self.edges == other.edges)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Presentation({len(self.labels)} vertices, {len(self.edges)} edges)"

    # -- words -------------------------------------------------------------

    def is_admissible(self, w: Word) -> bool:
        w = word(w)
        if any(s not in self._index for s in w):
            return False
        return all((w[i], w[i + 1]) in self.edges for i in range(len(w) - 1))

    def check_admissible(self, w: Word) -> Word:
        w = word(w)
        if not self.is_admissible(w):
            raise InadmissibleWord(f"word {w!r} is not admissible")
        return w

    def words(self, m: int):
        """All admissible words of length m (paths of length m-1) as a list
        in label order, the order of sorted_words.

        Extending each word of the sorted list by its successors, which are
        kept in label order, keeps the list sorted."""
        if m < 1:
            raise ValueError("m must be >= 1")
        words = [(v,) for v in self.labels]
        for _ in range(m - 1):
            words = [w + (b,) for w in words for b in self._out[w[-1]]]
        return words

    def language(self, m: int):
        """All admissible words of length m, as a set."""
        return set(self.words(m))

    def extensions(self, w: Word):
        """One-symbol right extensions of an admissible word."""
        w = word(w)
        if not w:
            return [(v,) for v in self.labels]
        return [w + (b,) for b in self._out[w[-1]]]

    def cycles(self, max_len: int):
        """One representative per periodic orbit of least period <= max_len.

        The representative is the least rotation of the orbit's primitive
        closed word in label order, i.e. the closed walks that are Lyndon
        words.  They are listed by length, and within a length in label
        order.

        The Lyndon walks are generated directly (Fredricksen-Kessler-
        Maiorana / Duval): a depth-first search over walks whose every
        prefix is a prenecklace.  A prenecklace w of period p extends by b
        only when b >= w[len(w) - p]; equality keeps the period and a larger
        b makes it len(w) + 1.  w is Lyndon exactly when p == len(w).
        """
        if max_len < 1:
            return []
        idx = self._index
        # successors in descending index order: popped from the stack, they
        # come out ascending, so each length is found in label order
        down = [[idx[b] for b in reversed(self._out[v])] for v in self.labels]
        closing = {(idx[a], idx[b]) for a, b in self.edges}
        by_len = [[] for _ in range(max_len + 1)]
        stack = [((s,), 1) for s in reversed(range(len(self.labels)))]
        while stack:
            w, p = stack.pop()
            t = len(w)
            if p == t and (w[-1], w[0]) in closing:
                by_len[t].append(w)
            if t < max_len:
                floor = w[t - p]
                for b in down[w[-1]]:
                    if b >= floor:
                        stack.append((w + (b,), p if b == floor else t + 1))
        return [tuple(self.labels[i] for i in c)
                for found in by_len for c in found]

    def reachable(self, v):
        """Vertices at the end of some walk of length >= 1 from `v`."""
        seen = set()
        stack = [v]
        while stack:
            for b in self._out[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    def is_forced(self, v):
        """Whether only one walk leaves `v`: `v` and every vertex it reaches
        have a single successor."""
        return all(len(self._out[u]) == 1 for u in self.reachable(v) | {v})

    def poor_cycles(self):
        """The cycle of each strongly connected component that is a single
        cycle and reaches only such components, as cycles() lists them.

        These are the periodic orbits that no non-eventually-periodic point
        comes arbitrarily close to: a walk ends in one component, and only
        one that is not a single cycle lets it avoid periodicity."""
        reach = {v: self.reachable(v) for v in self.labels}
        # for a vertex on a cycle: its successors within its own component,
        # exactly one for every vertex of a single-cycle component
        inner = {v: [b for b in self._out[v] if v in reach[b]]
                 for v in self.labels if v in reach[v]}
        found = []
        for v in inner:
            if any(len(inner[u]) != 1 for u in reach[v] if u in inner):
                continue
            c = [v]
            while inner[c[-1]][0] != v:
                c.append(inner[c[-1]][0])
            # a cycle through distinct vertices is least from its least one
            if min(c, key=self._index.__getitem__) == v:
                found.append(tuple(c))
        return sorted(found, key=len)

    def complete_to_cycle_word(self, w: Word):
        """Extend an admissible word with a closing cycle, yielding
        (prefix, cycle) for an eventually periodic point in Z(w).

        Prefers a cycle of least period >= 2 when one is reachable, which
        makes the completion usable as a non-degenerate counterexample.
        """
        w = self.check_admissible(word(w))
        start = w[-1] if w else self.labels[0]
        best = None
        queue = [(start, (start,))]  # BFS over paths until a vertex repeats
        while queue:
            v, path = queue.pop(0)
            for b in self._out[v]:
                if b in path:
                    i = path.index(b)
                    if i == 0:
                        # the cycle re-enters the walk's start, which is
                        # already the last symbol of w
                        prefix, cycle = w, path[1:] + path[:1]
                    else:
                        prefix, cycle = w + path[1:i], path[i:]
                    if len(cycle) >= 2:
                        return prefix, cycle
                    if best is None:
                        best = (prefix, cycle)
                elif len(path) <= len(self.labels):
                    queue.append((b, path + (b,)))
        if best is not None:
            return best
        raise InadmissibleWord(f"no cycle reachable from {w!r}")

    def _sort_key(self, w):
        return tuple(self._index[s] for s in w)

    def sorted_words(self, ws):
        return sorted(ws, key=self._sort_key)


def rotations(w: Word) -> list:
    """The rotations w[i:] + w[:i] of a word, for i = 0 .. len(w) - 1."""
    return [w[i:] + w[:i] for i in range(len(w))]


def primitive_root(w: Word) -> Word:
    """The shortest u with w = u^k; w itself when w is primitive."""
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d]
    return w


def build_presentation(adjacency) -> Presentation:
    """Validated presentation from a square {0,1} matrix.

    Rejects matrices with a zero row (sink) or zero column (source).
    """
    n = len(adjacency)
    for row in adjacency:
        if len(row) != n:
            raise ValueError("adjacency matrix must be square")
        if any(x not in (0, 1) for x in row):
            raise ValueError("adjacency entries must be 0 or 1")
    edges = [(i, j) for i in range(n) for j in range(n) if adjacency[i][j]]
    return Presentation(range(n), edges)


def full_shift(n: int, labels=None) -> Presentation:
    labels = tuple(labels) if labels is not None else tuple(range(n))
    return Presentation(labels, [(a, b) for a in labels for b in labels])


def golden_mean() -> Presentation:
    return build_presentation([[1, 1], [1, 0]])


class HigherBlockRecoding:
    """Recoding data for a higher-block presentation.

    New vertices are the admissible L-blocks of the original shift;
    ``blocks[v]`` is the original word a new vertex stands for.  The induced
    point map x |-> (x_[i, i+L-1])_i is a one-sided conjugacy.
    """

    def __init__(self, block_length, blocks):
        self.block_length = block_length
        self.blocks = dict(blocks)  # new label -> original Word


def higher_block(P: Presentation, L: int):
    """The L-block presentation of P with its recoding.

    Vertices are admissible L-words; u -> w when u[1:] == w[:-1]; this is
    conjugate to P via the L-block sliding map.
    """
    if L < 1:
        raise ValueError("block length must be >= 1")
    if L == 1:
        rec = HigherBlockRecoding(1, {v: (v,) for v in P.labels})
        return P, rec
    vertices = P.words(L)
    edges = [(u, w) for u in vertices for w in vertices if u[1:] == w[:-1]]
    Q = Presentation(vertices, edges)
    rec = HigherBlockRecoding(L, {v: v for v in vertices})
    return Q, rec


def from_forbidden_words(alphabet, forbidden):
    """Presentation of the SFT over `alphabet` avoiding `forbidden` factors.

    Realized as the vertex shift on allowed (M-1)-blocks where M is the
    longest forbidden length; sinks are pruned iteratively (they carry no
    infinite walks).  A surviving source would mean the avoiding point set
    is not shift-surjective and has no sink/source-free presentation, which
    is reported rather than silently pruned.

    Returns (Presentation, HigherBlockRecoding).
    """
    alphabet = tuple(alphabet)
    forbidden = {word(f) for f in forbidden}
    if any(len(f) == 0 for f in forbidden):
        raise ValueError("forbidden words must be non-empty")
    M = max((len(f) for f in forbidden), default=1)
    L = max(M - 1, 1)

    def allowed(w):
        return not any(w[i:i + len(f)] == f
                       for f in forbidden
                       for i in range(len(w) - len(f) + 1))

    blocks = [w for w in _all_words(alphabet, L) if allowed(w)]
    edges = {(u, w) for u in blocks for w in blocks
             if u[1:] == w[:-1] and allowed(u + (w[-1],))}

    # prune sinks: vertices with no outgoing edge support no point at all
    alive = set(blocks)
    changed = True
    while changed:
        changed = False
        outdeg = {v: 0 for v in alive}
        for a, b in edges:
            if a in alive and b in alive:
                outdeg[a] += 1
        dead = {v for v in alive if outdeg[v] == 0}
        if dead:
            alive -= dead
            changed = True
    edges = {(a, b) for a, b in edges if a in alive and b in alive}
    if not alive:
        raise EmptyShift("no point avoids the forbidden words")
    indeg = {v: 0 for v in alive}
    for a, b in edges:
        indeg[b] += 1
    if any(indeg[v] == 0 for v in alive):
        raise SinkOrSourceAfterPruning(
            "avoiding shift is not shift-surjective; no vertex presentation")

    ordered = [w for w in _all_words(alphabet, L) if w in alive]
    if L == 1:
        labels = {w: w[0] for w in ordered}
    else:
        labels = {w: w for w in ordered}
    P = Presentation([labels[w] for w in ordered],
                     [(labels[a], labels[b]) for a, b in edges])
    rec = HigherBlockRecoding(L, {labels[w]: w for w in ordered})
    return P, rec


def _all_words(alphabet, L):
    words = [()]
    for _ in range(L):
        words = [w + (a,) for w in words for a in alphabet]
    return words
