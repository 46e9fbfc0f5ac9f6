"""Finitely represented points: eventually periodic one-sided points and
two-sided points with periodic tails.

Canonical forms make equality of represented sequences a structural
equality:

* EvPerPoint: the cycle is primitive and the prefix is as short as
  possible; the cycle's rotation is then forced by the point.
* BiPoint: both periodic tails are maximal (so the middle is minimal) and
  fully periodic points carry phase 0 with the cycle rotated accordingly.

Admissibility is proven once, where words enter from outside: make checks
the words it is given.  A point derived from a canonical point (a shift, a
tail, or its image under a map, read off the map's symbolic image) is built
canonical directly and is not scanned again: the words it reads are proven,
and each stage's constructor proved that it keeps points admissible.
BiPoint.joined builds a two-sided point from a cycle word read off an
admissible point and an admissible one-sided tail: only the cycle's closing
edge and its join to the tail are new, so it checks those two edges and
nothing else.

word_range, symbols and tail read slices of the prefix, middle and cycle
words rather than one symbol at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    InadmissibleWord,
    NegativeShiftOneSided,
    NotPeriodic,
    VerificationFailed,
)
from .presentation import Presentation, Word, primitive_root, word


def _periodic_slice(c: Word, start: int, stop: int) -> Word:
    """Positions [start, stop) of the bi-infinite word c^Z, where position
    k holds c[k mod |c|]."""
    if start >= stop:
        return ()
    r = start % len(c)
    stop += r - start
    return (c * -(-stop // len(c)))[r:stop]


@dataclass(frozen=True)
class EvPerPoint:
    """The one-sided point prefix . cycle^infinity, in canonical form."""

    presentation: Presentation
    prefix: Word
    cycle: Word

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be non-empty")

    # -- construction --------------------------------------------------

    @staticmethod
    def make(P: Presentation, prefix, cycle) -> "EvPerPoint":
        """Normalize an arbitrary (prefix, cycle) representation, proving
        it admissible first."""
        prefix, cycle = word(prefix), word(cycle)
        if not cycle:
            raise InadmissibleWord("cycle must be non-empty")
        if not P.is_admissible(prefix + cycle + cycle[:1]):
            raise InadmissibleWord(
                f"{prefix!r}.{cycle!r}^inf is not admissible")
        return EvPerPoint._canonical(P, prefix, cycle)

    @staticmethod
    def _canonical(P: Presentation, prefix: Word, cycle: Word) -> "EvPerPoint":
        """The canonical form of prefix . cycle^inf, without the scan.

        Only code whose words come from an admissible point, through a map
        whose constructor proved that it keeps points admissible, may call
        this; everything else goes through make.
        """
        cycle = primitive_root(cycle)
        while prefix and prefix[-1] == cycle[-1]:
            prefix = prefix[:-1]
            cycle = cycle[-1:] + cycle[:-1]
        return EvPerPoint(P, prefix, cycle)

    # -- sequence access ------------------------------------------------

    def symbol(self, i: int):
        if i < 0:
            raise IndexError("one-sided points have no negative coordinates")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def symbols(self, n: int) -> Word:
        return self.word_range(0, n)

    def word_range(self, a: int, b: int) -> Word:
        if a >= b:
            return ()
        if a < 0:
            raise IndexError("one-sided points have no negative coordinates")
        m = len(self.prefix)
        return self.prefix[a:b] + _periodic_slice(self.cycle, max(a, m) - m,
                                                  b - m)

    def starts_with(self, w: Word) -> bool:
        return self.symbols(len(w)) == tuple(w)

    # -- dynamics ---------------------------------------------------------

    def shift(self, j: int = 1) -> "EvPerPoint":
        """sigma^j, built directly from this already-canonical point.

        A suffix of a minimal prefix is still minimal and a rotation of a
        primitive cycle is still primitive, so the result equals
        EvPerPoint.make of the shifted words without re-checking them.
        """
        if j < 0:
            raise NegativeShiftOneSided("one-sided shift needs j >= 0")
        if j <= len(self.prefix):
            return EvPerPoint(self.presentation, self.prefix[j:], self.cycle)
        r = (j - len(self.prefix)) % len(self.cycle)
        return EvPerPoint(self.presentation, (), self.cycle[r:] + self.cycle[:r])

    def least_period(self) -> int:
        return len(self.cycle)

    def is_periodic(self) -> bool:
        return not self.prefix

    def __str__(self):
        join = self.presentation.label_separator.join
        pre = join(map(str, self.prefix))
        cyc = join(map(str, self.cycle))
        return f"{pre}/{cyc}"


def is_isolated(P: Presentation, p: EvPerPoint) -> bool:
    """Whether some cylinder around p is a singleton.

    For a long enough prefix the terminal vertex sits on the cycle, so p is
    isolated exactly when every vertex reachable from the cycle has
    out-degree one (the continuation is then forced).
    """
    return P.is_forced(p.cycle[-1])


@dataclass(frozen=True)
class BiPoint:
    """Two-sided point left_cycle^inf . middle . right_cycle^inf.

    Coordinate 0 of the point is the symbol at anchor position `phase`,
    where anchor position 0 is the first symbol of the middle (equivalently
    the start of the right-periodic tail when the middle is empty).

    make scans the words it is given; joined trusts its parts and checks
    only the two edges that join them (see there).  Both end in _canonical.
    """

    presentation: Presentation
    left_cycle: Word
    middle: Word
    right_cycle: Word
    phase: int = 0

    @staticmethod
    def make(P: Presentation, left_cycle, middle, right_cycle, phase=0) -> "BiPoint":
        lc, mid, rc = word(left_cycle), word(middle), word(right_cycle)
        if not lc or not rc:
            raise InadmissibleWord("both cycles must be non-empty")
        if not P.is_admissible(lc + lc + mid + rc + rc):
            raise InadmissibleWord("bi-infinite representation not admissible")
        return BiPoint._canonical(P, lc, mid, rc, int(phase))

    @staticmethod
    def joined(P: Presentation, cycle: Word, tail: EvPerPoint,
               phase: int) -> "BiPoint":
        """cycle^inf . tail, with coordinate 0 at anchor position phase.

        The parts are proven: cycle is a word read off an admissible point
        of P and tail is an admissible point of P.  So cycle^inf . tail is
        admissible exactly when cycle closes (cycle[-1] -> cycle[0]) and
        joins the tail (cycle[-1] -> tail's first symbol), and those two
        edges are all that is checked.
        """
        if not cycle:
            raise InadmissibleWord("both cycles must be non-empty")
        if not (P.has_edge(cycle[-1], cycle[0])
                and P.has_edge(cycle[-1], tail.symbol(0))):
            raise InadmissibleWord("bi-infinite representation not admissible")
        return BiPoint._canonical(P, cycle, tail.prefix, tail.cycle, phase)

    @staticmethod
    def _canonical(P: Presentation, lc: Word, mid: Word, rc: Word,
                   phase: int) -> "BiPoint":
        """The canonical form of lc^inf . mid . rc^inf, without the scan.

        Only make and joined, which prove the words admissible, call this.
        """
        lc, rc = primitive_root(lc), primitive_root(rc)
        # grow the right tail leftward through the middle
        while mid and mid[-1] == rc[-1]:
            mid = mid[:-1]
            rc = rc[-1:] + rc[:-1]
        # grow the left tail rightward through the middle
        while mid and mid[0] == lc[0]:
            mid = mid[1:]
            lc = lc[1:] + lc[:1]
            phase -= 1
        if not mid:
            if lc == rc:
                # fully periodic: fold the phase into the cycle rotation
                p = len(rc)
                r = phase % p
                c = rc[r:] + rc[:r]
                return BiPoint(P, c, (), c, 0)
            # push the boundary left while the right tail extends.  By
            # Fine-Wilf the distinct primitive lc and rc cannot agree on
            # |lc| + |rc| - gcd symbols, so fewer steps than that suffice.
            steps = len(lc) + len(rc) - gcd(len(lc), len(rc)) - 1
            while lc[-1] == rc[-1]:
                if steps == 0:
                    raise VerificationFailed(
                        f"tails {lc!r} and {rc!r} agree past the Fine-Wilf "
                        f"bound")
                rc = rc[-1:] + rc[:-1]
                lc = lc[-1:] + lc[:-1]
                phase += 1
                steps -= 1
        return BiPoint(P, lc, mid, rc, phase)

    @staticmethod
    def periodic(P: Presentation, cycle, phase=0) -> "BiPoint":
        c = word(cycle)
        return BiPoint.make(P, c, (), c, phase)

    # -- sequence access ----------------------------------------------------

    def symbol(self, j: int):
        """Coordinate j of the point, at anchor position a = j + phase."""
        a = j + self.phase
        if a < 0:
            return self.left_cycle[a % len(self.left_cycle)]
        if a < len(self.middle):
            return self.middle[a]
        return self.right_cycle[(a - len(self.middle)) % len(self.right_cycle)]

    def word_range(self, a: int, b: int) -> Word:
        """Coordinates [a, b): slices of the left cycle, the middle and the
        right cycle."""
        a += self.phase
        b += self.phase
        m = len(self.middle)
        return (_periodic_slice(self.left_cycle, a, min(b, 0))
                + self.middle[max(a, 0):max(b, 0)]
                + _periodic_slice(self.right_cycle, max(a, m) - m, b - m))

    def tail(self, i: int) -> EvPerPoint:
        """The one-sided point x_[i, infinity), built canonical without make.

        This point is canonical, so right_cycle is primitive and each of
        its rotations is a canonical periodic tail: that covers the tails
        that start in the right tail and every tail of a periodic point.
        Any other tail has a prefix that ends in the middle's last symbol,
        or, with an empty middle, in left_cycle[-1].  Either differs from
        right_cycle[-1] (the right tail is maximal; the Fine-Wilf push in
        make), so the prefix is already minimal.
        """
        a = i + self.phase
        m = len(self.middle)
        rc = self.right_cycle
        if a >= m or self.is_periodic():
            r = (a - m) % len(rc)
            return EvPerPoint(self.presentation, (), rc[r:] + rc[:r])
        left = _periodic_slice(self.left_cycle, a, 0)
        return EvPerPoint(self.presentation, left + self.middle[max(a, 0):], rc)

    # -- dynamics -------------------------------------------------------------

    def shift(self, j: int = 1) -> "BiPoint":
        """sigma^j, built directly from this already-canonical point.

        The result equals BiPoint.make(..., phase + j): a non-periodic
        point keeps its words and moves its phase, a periodic one rotates
        its cycle and keeps phase 0.  Admissibility was checked when this
        point was made, so it is not checked again.
        """
        if not self.is_periodic():
            return BiPoint(self.presentation, self.left_cycle, self.middle,
                           self.right_cycle, self.phase + j)
        c = self.right_cycle
        r = j % len(c)
        c = c[r:] + c[:r]
        return BiPoint(self.presentation, c, (), c, 0)

    def is_periodic(self) -> bool:
        return not self.middle and self.left_cycle == self.right_cycle

    def least_period(self) -> int:
        if not self.is_periodic():
            raise NotPeriodic("two-sided least period needs a periodic point")
        return len(self.right_cycle)

    def __str__(self):
        join = self.presentation.label_separator.join
        lc = join(map(str, self.left_cycle))
        mid = join(map(str, self.middle))
        rc = join(map(str, self.right_cycle))
        return f"{lc}|{mid}|{rc}@{self.phase}"
