"""The constructive flow equivalence induced by orbit-equivalence data.

Given a homeomorphism h with cocycle data (k, l), a decomposition
l - k = n + b - b o sigma with n >= 0, and the primed analogues for the
inverse, the one-sided map  phi = sigma^b o h  extends to a two-sided map
and further to a suspension map

    psi([x, t]) = [Phi(x), r_x(t)]

with the weight n driving the exact integer reparametrization m_x and its
piecewise-linear rational extension r_x.  Everything here is exact: integer
sums for m, numerator/denominator pairs for times (Fractions at the
interface), canonical point forms for comparisons.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .cohomology import positive_on_cycles
from .cylinders import CylinderFunction
from .errors import DegenerateN, InadmissibleWord, SftError, VerificationFailed
from .points import BiPoint, EvPerPoint
from .maps import PointMap
from .presentation import Word


class WeightProfile:
    """The weight n read along one two-sided point, coordinate by coordinate.

    It is built from the point's own symbols: the window values
    value(i) = n(x_[i, i+w)) over one left period, the middle band and one
    right period, and their prefix sums.  Below that range the values repeat
    with the left period, above it with the right period, so m_x(j) has a
    closed form for every j, and the weighted indices come from the stored
    non-zero positions.  A window missing from n's table raises
    InadmissibleWord.

    r_over keeps what it reads at each integer floor i <= t < i + 1 (see
    there), so a profile evaluates each floor once however many times and
    denominators read it.
    """

    def __init__(self, n: CylinderFunction, bx: BiPoint):
        w = n.width()
        self.p, self.q = len(bx.left_cycle), len(bx.right_cycle)
        # coordinates below lo + p read the left cycle only, coordinates from
        # right on read the right cycle only; [lo, end) is what is stored
        self.lo = 1 - w - self.p - bx.phase
        self.right = len(bx.middle) - bx.phase
        self.end = self.right + self.q
        syms = bx.word_range(self.lo, self.end + w - 1)
        vals = [n.table.get(syms[k:k + w]) for k in range(self.end - self.lo)]
        if None in vals:
            k = vals.index(None)
            raise InadmissibleWord(
                f"{syms[k:k + w]!r} is not in the table of n")
        self.vals = vals
        self.pre = list(accumulate(vals, initial=0))
        self.nonzero = [self.lo + k for k, v in enumerate(vals) if v]
        r = self.right - self.lo
        self.left_nonzero = [k for k in range(self.p) if vals[k]]
        self.right_nonzero = [k for k in range(self.q) if vals[r + k]]
        self.m0 = self._cumulative(0)
        self._floors = {}

    def value(self, i: int) -> int:
        """n(x_[i, inf))."""
        if i < self.lo:
            return self.vals[(i - self.lo) % self.p]
        if i >= self.end:
            return self.vals[self.right - self.lo + (i - self.right) % self.q]
        return self.vals[i - self.lo]

    def _cumulative(self, i: int) -> int:
        """The sum of value over [lo, i), negated for i < lo."""
        if i < self.lo:
            c, r = divmod(i - self.lo, self.p)
            return c * self.pre[self.p] + self.pre[r]
        if i > self.end:
            c, r = divmod(i - self.right, self.q)
            base = self.right - self.lo
            period = self.pre[base + self.q] - self.pre[base]
            return c * period + self.pre[base + r]
        return self.pre[i - self.lo]

    def m(self, j: int) -> int:
        """m_x(j): the sum of value over [0, j), negated for j < 0."""
        return self._cumulative(j) - self.m0

    def i_index(self, t) -> int:
        """max{i <= t : n(x_[i,inf)) != 0}."""
        return self._last_nonzero(math.floor(Fraction(t)))

    def j_index(self, t) -> int:
        """min{j > t : n(x_[j,inf)) != 0}."""
        return self._first_nonzero(math.floor(Fraction(t)) + 1)

    def r(self, t) -> Fraction:
        """r_x(t) = m_x(i) + (t - i) n(x_[i,inf)) / (j - i), one Fraction.

        The claims in verify_flow_claims compare r_over pairs as integer
        cross-products instead, and build this Fraction only to report a
        failure.
        """
        t = Fraction(t)
        return Fraction(*self.r_over(t.numerator, t.denominator))

    def r_over(self, a: int, d: int) -> tuple[int, int]:
        """r_x(a/d) for d > 0 as an unreduced pair (numerator, denominator).

        The denominator d (j - i) is positive, so numerator // denominator
        is the floor of r_x(a/d).  Every t with the same floor has the same
        i, j - i, m(i) and value(i); they are kept per floor, and a floor
        whose indices raise DegenerateN is not stored.
        """
        f = a // d
        floor = self._floors.get(f)
        if floor is None:
            i = self._last_nonzero(f)
            floor = self._floors[f] = (i, self._first_nonzero(f + 1) - i,
                                       self.m(i), self.value(i))
        i, gap, mi, vi = floor
        return mi * d * gap + (a - i * d) * vi, d * gap

    def _last_nonzero(self, i: int) -> int:
        """The largest k <= i with value(k) != 0."""
        if i >= self.end:
            if self.right_nonzero:
                return _last_in_period(self.right_nonzero, self.right,
                                       self.q, i)
            i = self.end - 1
        if i >= self.lo:
            k = bisect_right(self.nonzero, i)
            if k:
                return self.nonzero[k - 1]
            i = self.lo - 1
        if not self.left_nonzero:
            raise DegenerateN("no weighted index below t; "
                              "n vanishes on a cycle")
        return _last_in_period(self.left_nonzero, self.lo, self.p, i)

    def _first_nonzero(self, j: int) -> int:
        """The least k >= j with value(k) != 0."""
        if j < self.lo:
            if self.left_nonzero:
                return _first_in_period(self.left_nonzero, self.lo,
                                        self.p, j)
            j = self.lo
        if j < self.end:
            k = bisect_left(self.nonzero, j)
            if k < len(self.nonzero):
                return self.nonzero[k]
            j = self.end
        if not self.right_nonzero:
            raise DegenerateN("no weighted index above t; "
                              "n vanishes on a cycle")
        return _first_in_period(self.right_nonzero, self.right, self.q, j)


def _last_in_period(offsets, start, period, i):
    """The largest k <= i with (k - start) mod period in offsets."""
    r = (i - start) % period
    k = bisect_right(offsets, r)
    if k:
        return i - r + offsets[k - 1]
    return i - r - period + offsets[-1]


def _first_in_period(offsets, start, period, j):
    """The least k >= j with (k - start) mod period in offsets."""
    r = (j - start) % period
    k = bisect_left(offsets, r)
    if k < len(offsets):
        return j - r + offsets[k]
    return j - r + period + offsets[0]


def m_eval(n: CylinderFunction, bx: BiPoint, j: int) -> int:
    """The weight-n cumulative shift count m_x(j).

    Positive j sums n over the tails at 0..j-1, negative j over -1..j, and
    m_x(0) = 0; weak monotonicity is immediate from n >= 0.
    """
    return WeightProfile(n, bx).m(j)


class FlowMapData:
    """The verified data bundle a flow equivalence is evaluated from.

    The bundle memoises three reads: phi's image of each one-sided point,
    the WeightProfile of n along each two-sided point, and bold_varphi's cut
    for each left cycle (cut).  The first two are keyed by a whole
    (canonical, hence structural) point, the cut by the pair (presentation,
    left cycle) that determines z*, so each returns only a value computed
    from an equal input, and a failed computation is never stored; the
    memos live and die with the bundle, and primed() starts the mirror with
    empty memos.
    """

    def __init__(self, h: PointMap, k, l, k_prime, l_prime,
                 b, b_prime, n, n_prime, shift_constants=(0, 0),
                 validate=True):
        X, Y = h.domain, h.codomain
        self.h = h
        self.k, self.l, self.n, self.b = k, l, n, b
        self.k_prime, self.l_prime = k_prime, l_prime
        self.n_prime, self.b_prime = n_prime, b_prime
        self.shift_constants = shift_constants
        self.validated = validate
        self._images = {}
        self._profiles = {}
        self._cuts = {}
        if validate:
            for name, fn, P in [("k", k, X), ("l", l, X), ("n", n, X),
                                ("k'", k_prime, Y), ("l'", l_prime, Y),
                                ("n'", n_prime, Y), ("b", b, X),
                                ("b'", b_prime, Y)]:
                if fn.presentation != P:
                    raise ValueError(f"{name} lives on the wrong presentation")
            for name, fn in [("k", k), ("l", l), ("n", n),
                             ("k'", k_prime), ("l'", l_prime), ("n'", n_prime)]:
                if not fn.is_nonnegative():
                    raise ValueError(f"{name} must be non-negative")
            if (l - k) != n + b.coboundary():
                raise ValueError("l - k = n + b - b o sigma fails")
            if (l_prime - k_prime) != n_prime + b_prime.coboundary():
                raise ValueError("primed decomposition identity fails")
            # sharp exponent conditions: b >= 0 keeps phi one-sided and
            # b >= l - n keeps the shift bookkeeping non-negative (b >= l
            # is the usual sufficient shift, applied by the pipeline)
            if b.min_value() < 0 or (b - (l - n)).min_value() < 0:
                raise ValueError("need b >= 0 and b >= l - n pointwise")
            if (b_prime.min_value() < 0
                    or (b_prime - (l_prime - n_prime)).min_value() < 0):
                raise ValueError("need b' >= 0 and b' >= l' - n' pointwise")

    @cached_property
    def n_positive_on_cycles(self) -> bool:
        return positive_on_cycles(self.domain, self.n)

    @property
    def domain(self):
        return self.h.domain

    @property
    def codomain(self):
        return self.h.codomain

    def phi(self, x: EvPerPoint) -> EvPerPoint:
        """The one-sided map sigma^{b(x)}(h(x)), computed once per point."""
        y = self._images.get(x)
        if y is None:
            y = self._images[x] = self.h(x).shift(self.b(x))
        return y

    def profile(self, bx: BiPoint) -> WeightProfile:
        """The WeightProfile of n along bx, built once per point.

        A failed build (a window missing from n's table) is not stored, so
        every read of that point raises the same error.
        """
        w = self._profiles.get(bx)
        if w is None:
            w = self._profiles[bx] = WeightProfile(self.n, bx)
        return w

    def cut(self, bx: BiPoint, profile: WeightProfile) -> tuple[int, Word]:
        """bold_varphi's cut for bx's left cycle: (a*, b*), computed once per
        left cycle.

        z* = left_cycle^inf is canonical (the left cycle of a canonical
        point is primitive), so (bx.presentation, bx.left_cycle) determines
        it and keys the memo; z* is built only on a miss.  Q, n summed over
        one left period, is profile.pre[p] for the profile of any point
        with this left cycle.  b* = phi(z*)[0, Q) is a window of an
        admissible point.  The anchor a* is the largest multiple of p at
        most -clearance, where the clearance W + width(n) + p comes from
        phi's continuity modulus: W input symbols determine the Q + max(b)
        output symbols the cut reads.  None of these depends on the phase.
        """
        key = bx.presentation, bx.left_cycle
        cut = self._cuts.get(key)
        if cut is None:
            z_star = EvPerPoint(bx.presentation, (), bx.left_cycle)
            p = profile.p
            Q = profile.pre[p]
            W = max(self.h.prefix_needed(Q + max(self.b.max_value(), 0)),
                    self.b.width())
            clearance = W + self.n.width() + p
            cut = self._cuts[key] = (-clearance - (-clearance) % p,
                                     self.phi(z_star).symbols(Q))
        return cut

    def primed(self) -> "FlowMapData":
        """The same bundle read from the other side.

        Validation is symmetric in the two sides, so a validated bundle's
        mirror is validated without checking it again.
        """
        D = FlowMapData(self.h.inverse(), self.k_prime, self.l_prime,
                        self.k, self.l, self.b_prime, self.b,
                        self.n_prime, self.n,
                        tuple(reversed(self.shift_constants)),
                        validate=False)
        D.validated = self.validated
        return D

    def _require_positive_cycles(self):
        if not self.n_positive_on_cycles:
            raise DegenerateN("some cycle carries n-sum 0")


@dataclass(frozen=True)
class SuspensionPoint:
    point: BiPoint
    time: Fraction

    @staticmethod
    def make(point: BiPoint, time) -> "SuspensionPoint":
        t = Fraction(time)
        shift = math.floor(t)
        return SuspensionPoint(point.shift(shift), t - shift)

    def __str__(self):
        return f"[{self.point}, {self.time}]"


def bold_varphi(D: FlowMapData, bx: BiPoint) -> BiPoint:
    """The two-sided extension of phi.

    The image is pinned down by  y_[m_x(-i), inf) = phi(x_[-i, inf)); on a
    finitely represented point the left tail stabilizes on the image of the
    purely periodic point z* carried by the left cycle.  The cut level is
    chosen from an explicit continuity modulus of phi, so the construction
    is exact rather than heuristic.

    The cut sits at anchor position a* = i* + phase.  It and the left
    cycle's image b* depend only on the left cycle, so D.cut computes them
    once per left cycle, and every shift of a non-periodic point hands
    D.phi the same tail x_[i*, inf), which the bundle's memo maps once.

    The image b*^inf . phi(x_[i*, inf)) is built from proven parts: b* is a
    window of the admissible point phi(z*) and the cut tail's image is
    admissible, so BiPoint.joined checks only the two new edges, b*'s
    closing edge and its join to the tail, and scans nothing else.
    """
    D._require_positive_cycles()
    profile = D.profile(bx)
    a_star, b_star = D.cut(bx, profile)
    i_star = a_star - bx.phase
    p_star = D.phi(bx.tail(i_star))
    m_star = profile.m(i_star)
    img = BiPoint.joined(D.codomain, b_star, p_star, -m_star)
    if img.tail(m_star) != p_star:
        raise VerificationFailed(
            f"the two-sided image {img} does not continue "
            f"phi(x_[{i_star}, inf)) = {p_star} at {m_star}")
    return img


def i_index(n: CylinderFunction, bx: BiPoint, t) -> int:
    """max{i <= t : n(x_[i,inf)) != 0}."""
    return WeightProfile(n, bx).i_index(t)


def j_index(n: CylinderFunction, bx: BiPoint, t) -> int:
    """min{j > t : n(x_[j,inf)) != 0}."""
    return WeightProfile(n, bx).j_index(t)


def r_eval(n: CylinderFunction, bx: BiPoint, t) -> Fraction:
    """The piecewise-linear time change r_x(t), exact rational."""
    return WeightProfile(n, bx).r(t)


def psi_eval(D: FlowMapData, s: SuspensionPoint) -> SuspensionPoint:
    """[Phi(x), r_x(t)], normalized to 0 <= t < 1."""
    y = bold_varphi(D, s.point)
    return SuspensionPoint.make(y, D.profile(s.point).r(s.time))


# ---------------------------------------------------------------------------
# claim verification
# ---------------------------------------------------------------------------

@dataclass
class ClaimResult:
    claim: str
    point: str
    parameters: dict
    passed: bool
    lhs: str
    rhs: str

    def as_dict(self):
        return {"claim": self.claim, "point": self.point,
                "parameters": self.parameters, "pass": self.passed,
                "lhs": self.lhs, "rhs": self.rhs}


class ClaimReport:
    def __init__(self, results):
        self.results = list(results)

    @property
    def failures(self):
        return [r for r in self.results if not r.passed]

    @property
    def inconclusive(self):
        return [r for r in self.results
                if r.parameters.get("found") == "inconclusive"]

    def all_pass(self) -> bool:
        return not self.failures

    def as_list(self):
        return [r.as_dict() for r in self.results]


def quarter_grid(lo=-2, hi=2):
    return [Fraction(q, 4) for q in range(4 * lo, 4 * hi + 1)]


def robert_bound(D: FlowMapData, bx: BiPoint) -> int:
    """Search bound for the inverse-round-trip shift d."""
    size = len(bx.middle) + 2 * max(len(bx.left_cycle), len(bx.right_cycle))
    weight = (1 + max(D.b.max_value(), 0) + max(D.b_prime.max_value(), 0)
              + max(D.n.max_value(), 1) + max(D.n_prime.max_value(), 1))
    return size * weight + 8


def find_round_trip_shift(x: BiPoint, w: BiPoint, bound: int):
    """The d with sigma^d(x) = w, if any within |d| <= bound."""
    if x.is_periodic():
        for d in range(len(x.right_cycle)):
            if x.shift(d) == w:
                return d if d <= bound else None
        return None
    if (x.left_cycle, x.middle, x.right_cycle) != (
            w.left_cycle, w.middle, w.right_cycle):
        return None
    d = w.phase - x.phase
    if abs(d) > bound:
        return None
    return d if x.shift(d) == w else None


def verify_flow_claims(D: FlowMapData, sample, j_range=(-4, 4),
                       t_grid=None, p_range=(-3, 3)) -> ClaimReport:
    """Exact per-point verification of the flow-equivalence identities.

    Checks, for each sampled two-sided point: shift equivariance of the
    two-sided map, least-period scaling on periodic points, the inverse
    round trip up to a shift, the time-change cocycle rule, and suspension
    representative independence.  Every comparison is exact: times are
    compared as integer cross-products of WeightProfile.r_over pairs, and
    Fractions and SuspensionPoints are built only to report a failure.  A
    computation that blows up on corrupted data is recorded as a failing
    entry rather than aborting the report.  A sample point that lives on
    another presentation than D.domain raises InadmissibleWord before any
    claim is checked.

    Each distinct value is computed once.  The two-sided images are kept
    for the call; phi's images, the cut of each left cycle and the weight
    profiles are kept for the bundle (FlowMapData's memos), and each
    profile keeps what r_over reads at each integer floor, for every time
    and denominator on that floor: r_{sigma x}(t) serves both the time
    change at p = 1 and the suspension claim.  Per sample point x, the
    shifts sigma^j x (j in j_range, p_range and 1) and the label are built
    up front.  The suspension claim reads each side's image and profile
    once, checks the fractional parts at every grid time, and compares the
    two shifted images once per distinct pair of floors; a claim whose two
    sides are equal formats them once.  Each claim reads its values in the
    order of its formula and a failed computation is never stored, so the
    error a claim on a corrupted bundle reports does not depend on what
    earlier claims computed.
    """
    sample = list(sample)
    for bx in sample:
        if bx.presentation is not D.domain and bx.presentation != D.domain:
            raise InadmissibleWord(
                f"{bx} lives on {bx.presentation!r}, "
                f"not on the map's domain {D.domain!r}")
    t_grid = t_grid if t_grid is not None else quarter_grid()
    grid = [(t.numerator, t.denominator) for t in map(Fraction, t_grid)]
    js = range(j_range[0], j_range[1] + 1)
    ps = range(p_range[0], p_range[1] + 1)
    Dp = D.primed()
    results = []
    images = {}

    def phi2(bx):
        y = images.get(bx)
        if y is None:
            y = images[bx] = bold_varphi(D, bx)
        return y

    def attempt(claim, params, thunk):
        try:
            passed, lhs, rhs = thunk()
        except (SftError, ValueError) as e:
            passed, lhs, rhs = False, f"error: {e}", ""
        lhs_text = str(lhs)
        rhs_text = (lhs_text if type(lhs) is type(rhs) and lhs == rhs
                    else str(rhs))
        results.append(ClaimResult(claim, label, params, passed,
                                   lhs_text, rhs_text))

    # attempt calls each thunk at once, so the thunks read the loop
    # variables directly
    for bx in sample:
        label = str(bx)
        shifted = {j: bx.shift(j) for j in {*js, *ps, 1}}
        for j in js:
            def equivariance():
                lhs = phi2(bx).shift(D.profile(bx).m(j))
                rhs = phi2(shifted[j])
                return lhs == rhs, lhs, rhs
            attempt("shift-equivariance", {"j": j}, equivariance)
        if bx.is_periodic():
            def scaling():
                y = phi2(bx)
                lp_img = y.least_period() if y.is_periodic() else None
                expect = D.profile(bx).m(bx.least_period())
                return lp_img == expect, lp_img, expect
            attempt("period-scaling", {"lp": bx.least_period()}, scaling)
        bound = robert_bound(D, bx)
        params = {"bound": bound}

        def round_trip():
            w = bold_varphi(Dp, phi2(bx))
            d = find_round_trip_shift(bx, w, bound)
            params["found"] = d if d is not None else "inconclusive"
            return d is not None, w, f"a shift of {bx}"
        attempt("inverse-up-to-shift", params, round_trip)
        for p in ps:
            def time_change():
                wx, ws = D.profile(bx), D.profile(shifted[p])
                mp = wx.m(p)
                for t, (a, d) in zip(t_grid, grid):
                    ln, ld = wx.r_over(a + p * d, d)
                    rn, rd = ws.r_over(a, d)
                    if ln * rd != (rn + mp * rd) * ld:
                        return (False, f"r(t+p)={Fraction(ln, ld)} at t={t}",
                                f"{Fraction(rn, rd) + mp}")
                return True, "r_x(t+p)", "r_{s^p x}(t) + m_x(p)"
            attempt("time-change-cocycle", {"p": p, "grid": len(t_grid)},
                    time_change)

        def representative():
            # each side's image and profile are read once, at the first
            # grid time, in the order the formula reads them; the shifted
            # images are compared once per pair of floors
            sx = shifted[1]
            wa = wb = None
            same = {}
            for t, (a, d) in zip(t_grid, grid):
                if wa is None:
                    ya, wa = phi2(sx), D.profile(sx)
                an, ad = wa.r_over(a, d)
                if wb is None:
                    yb, wb = phi2(bx), D.profile(bx)
                bn, bd = wb.r_over(a + d, d)
                fa, fb = an // ad, bn // bd
                agree = (an - fa * ad) * bd == (bn - fb * bd) * ad
                if agree:
                    agree = same.get((fa, fb))
                    if agree is None:
                        agree = same[fa, fb] = ya.shift(fa) == yb.shift(fb)
                if not agree:
                    sa = SuspensionPoint.make(ya, Fraction(an, ad))
                    sb = SuspensionPoint.make(yb, Fraction(bn, bd))
                    return False, f"{sa} at t={t}", f"{sb}"
            return True, "psi(sx, t)", "psi(x, t+1)"
        attempt("suspension-well-defined", {"grid": len(t_grid)},
                representative)
    return ClaimReport(results)
