"""Locally constant integer-valued functions stored as tables on words.

A CylinderFunction of depth d takes its value from the first d symbols of a
point; the table is kept on admissible words of length max(d, 1) so that
depth 0 (constants) still has concrete entries.  f + g and f - g refine
both operands to the larger depth.  An int operand c applies to each entry
of f's own table, so f + c and f - c keep f's depth and words; an operand
that is neither an int nor a CylinderFunction is a TypeError.

The word set is proven once, at the public constructor.  Arithmetic results
(refine, pullback, +, -, negation, constant) take their keys from P.words or
from a validated operand's table, so they are right by construction.  So is
on_words, which pairs a list of values with the words of P.words.
"""

from __future__ import annotations

import operator

from .errors import NotClosed, WordTooShort
from .points import EvPerPoint
from .presentation import Presentation, Word, word


class CylinderFunction:
    def __init__(self, presentation: Presentation, depth: int, table):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.presentation = presentation
        self.depth = depth
        width = max(depth, 1)
        want = presentation.language(width)
        table = {word(w): int(v) for w, v in table.items()}
        if set(table) != want:
            missing = want - set(table)
            extra = set(table) - want
            raise ValueError(
                f"table must cover exactly the admissible {width}-words "
                f"(missing {sorted(missing)[:3]!r}, extra {sorted(extra)[:3]!r})")
        if depth == 0 and len(set(table.values())) > 1:
            raise ValueError("depth-0 function must be constant")
        self.table = table

    # -- constructors -----------------------------------------------------

    @classmethod
    def _of(cls, P: Presentation, depth: int, table) -> "CylinderFunction":
        """A table keyed by the admissible max(depth, 1)-words by construction."""
        f = object.__new__(cls)
        f.presentation, f.depth, f.table = P, depth, table
        return f

    @staticmethod
    def constant(P: Presentation, value: int) -> "CylinderFunction":
        return CylinderFunction._of(P, 0, dict.fromkeys(P.words(1), int(value)))

    @staticmethod
    def on_words(P: Presentation, depth: int, values) -> "CylinderFunction":
        """The function whose value on the i-th word of
        P.words(max(depth, 1)) is values[i].  The keys come from P.words, so
        only the count of values and, at depth 0, constancy are checked."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        words = P.words(max(depth, 1))
        values = [int(v) for v in values]
        if len(values) != len(words):
            raise ValueError(f"need {len(words)} values, one per admissible "
                             f"{max(depth, 1)}-word, got {len(values)}")
        if depth == 0 and len(set(values)) > 1:
            raise ValueError("depth-0 function must be constant")
        return CylinderFunction._of(P, depth, dict(zip(words, values)))

    @staticmethod
    def from_values(P: Presentation, table) -> "CylinderFunction":
        """Depth inferred from the key length."""
        table = {word(w): v for w, v in table.items()}
        depth = len(next(iter(table)))
        return CylinderFunction(P, depth, table)

    # -- evaluation ----------------------------------------------------------

    def width(self) -> int:
        return max(self.depth, 1)

    def value_on(self, w: Word) -> int:
        """Value on the cylinder of w; w must carry at least depth symbols."""
        w = word(w)
        if len(w) < self.depth:
            raise WordTooShort(
                f"need {self.depth} symbols, got {len(w)} in {w!r}")
        if self.depth == 0:
            return next(iter(self.table.values()))
        return self.table[w[: self.width()]]

    def __call__(self, x) -> int:
        if isinstance(x, EvPerPoint):
            return self.value_on(x.symbols(self.width()))
        return self.value_on(x)

    # -- structure -----------------------------------------------------------

    def refine(self, depth: int) -> "CylinderFunction":
        if depth < self.depth:
            raise ValueError("can only refine to a larger depth")
        return self if depth == self.depth else self._read(depth, 0)

    def pullback(self) -> "CylinderFunction":
        """f o sigma, of depth d+1."""
        if self.depth == 0:
            return self.refine(1)
        return self._read(self.depth + 1, 1)

    def _read(self, depth: int, start: int) -> "CylinderFunction":
        """w -> f(w[start:]) at a depth >= 1: each admissible word's slice of
        this table's width is an admissible word, hence a key."""
        P, t, width = self.presentation, self.table, self.width()
        return CylinderFunction._of(P, depth, {
            w: t[w[start:start + width]] for w in P.words(depth)})

    def coboundary(self) -> "CylinderFunction":
        """f - f o sigma, of depth d+1."""
        return self - self.pullback()

    def _binary(self, other, op):
        """op entry by entry: an int applies to each entry as it stands;
        a CylinderFunction on the same presentation is refined with self
        to the larger depth; any other operand is not handled."""
        P = self.presentation
        if isinstance(other, int):
            return CylinderFunction._of(P, self.depth, {
                w: op(v, other) for w, v in self.table.items()})
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        if other.presentation != P:
            raise ValueError("operands live on different presentations")
        d = max(self.depth, other.depth)
        a, b = self.refine(d).table, other.refine(d).table
        return CylinderFunction._of(P, d, {w: op(v, b[w])
                                           for w, v in a.items()})

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __neg__(self):
        return CylinderFunction._of(self.presentation, self.depth,
                                    {w: -v for w, v in self.table.items()})

    def __eq__(self, other):
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        if self.presentation != other.presentation:
            return False
        d = max(self.depth, other.depth)
        return self.refine(d).table == other.refine(d).table

    def __hash__(self):
        raise TypeError("CylinderFunction is not hashable")

    def min_value(self) -> int:
        return min(self.table.values())

    def max_value(self) -> int:
        return max(self.table.values())

    def is_nonnegative(self) -> bool:
        return self.min_value() >= 0

    def __repr__(self):
        return f"CylinderFunction(depth={self.depth}, {len(self.table)} words)"


def orbit_sum(f: CylinderFunction, cycle: Word) -> int:
    """Sum of f over the periodic orbit of cycle^infinity."""
    P = f.presentation
    cycle = word(cycle)
    if not cycle or not P.is_admissible(cycle) or not P.has_edge(cycle[-1], cycle[0]):
        raise NotClosed(f"{cycle!r} is not a closed admissible word")
    n = len(cycle)
    if f.depth == 0:
        return n * next(iter(f.table.values()))
    k = f.depth
    ext = cycle * (k // n + 2)
    return sum(f.table[ext[i:i + k]] for i in range(n))
