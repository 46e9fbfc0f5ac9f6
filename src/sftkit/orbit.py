"""Continuous orbit equivalence as explicit data.

An orbit equivalence is a concrete homeomorphism (prefix exchange, block
conjugacy, or composition) together with derived cocycle pairs (k, l) and
(k', l') witnessing the orbit-to-orbit identities.  Everything downstream
of a verified pair is assembled here: least-period preservation, the
strong-equivalence transfer function when one exists, and the executable
pipeline producing flow-map data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import (
    NegativeCycleWitness,
    class_is_positive,
    decompose_positive,
    solve_coboundary,
)
from .cylinders import CylinderFunction, orbit_sum
from .errors import LeastPeriodViolation, NeedDepth, VerificationFailed
from .maps import (
    PointMap,
    minimal_cocycle_on_cylinder,
    verify_cocycle_on_cylinder,
)
from .points import EvPerPoint
from .presentation import Presentation
from .suspension import FlowMapData


class OrbitEquivalence:
    """A homeomorphism with its inverse.  The inverse is read off the
    forward map's stages; the constructors that built them proved it
    (maps.prefix_exchange, sliding_block_conjugacy, relabel_map), so
    nothing is re-checked here."""

    def __init__(self, forward: PointMap):
        self.forward = forward
        self.backward = forward.inverse()
        self.domain = forward.domain
        self.codomain = forward.codomain

    def inverse(self) -> "OrbitEquivalence":
        return OrbitEquivalence(self.backward)

    def compose(self, other: "OrbitEquivalence") -> "OrbitEquivalence":
        """self followed by other."""
        return OrbitEquivalence(self.forward.then(other.forward))

    def __call__(self, x):
        return self.forward(x)


@dataclass(frozen=True)
class CocyclePair:
    """(k, l) with sigma^k(h(sigma x)) = sigma^l(h(x)), proven where
    derive_cocycle_pair builds it (_proven_for is then that h's PointMap)
    or else checked exhaustively by verify_coe."""
    k: CylinderFunction
    l: CylinderFunction
    _proven_for: object = field(default=None, init=False, compare=False,
                                repr=False)

    def __post_init__(self):
        if self.k.depth != self.l.depth:
            raise ValueError("k and l must share a depth")
        if not (self.k.is_nonnegative() and self.l.is_nonnegative()):
            raise ValueError("cocycle values must be non-negative")

    @property
    def depth(self):
        return self.k.depth

    def difference(self) -> CylinderFunction:
        return self.l - self.k


@dataclass
class COEReport:
    verified: bool
    depth: int
    failures: list = field(default_factory=list)
    least_period_preserving: bool = False
    lp_witnesses: list = field(default_factory=list)
    lp_checked_cycles: int = 0
    scoe_transfer: object = None
    positivity: object = None  # PositivityCertificate of l - k, if positive

    def as_dict(self):
        return {
            "verified": self.verified,
            "depth": self.depth,
            "failures": [list(map(str, f)) for f in self.failures],
            "least_period_preserving": self.least_period_preserving,
            "lp_witnesses": [str(w) for w in self.lp_witnesses],
            "lp_checked_cycles": self.lp_checked_cycles,
            "strongly_coe": self.scoe_transfer is not None,
        }


def _resolve(P: Presentation, roots, bound, fn, stages, *args):
    """(w, fn(stages, w, *args)) for each cylinder w that resolves, found
    by refining the roots depth first, the last root first, one symbol
    each time fn raises NeedDepth.  A cylinder of length >= bound that
    still raises is a broken proof of the bound: VerificationFailed."""
    work = list(roots)
    while work:
        w = work.pop()
        try:
            result = fn(stages, w, *args)
        except NeedDepth:
            if len(w) >= bound:
                raise VerificationFailed(f"cylinder {w!r} does not resolve "
                                         f"at the bound {bound}")
            work.extend(P.extensions(w))
            continue
        yield w, result


def derive_cocycle_pair(h: OrbitEquivalence) -> CocyclePair:
    """Per-cylinder minimal (k, l) for the forward map, as cylinder
    functions of one uniform depth.

    Cylinders are refined adaptively until the symbolic images of x and
    sigma(x) are both determined; the minimal valid pair on each resolved
    cylinder is then constant on all of its refinements.  Each resolution
    proves the identity there, so the pair is proven for h.forward.

    Every cylinder of length B = h.forward.prefix_needed(1), the stages'
    needs folded over 1, resolves.  (i) A stage's step reads the tail T(x)
    only below index m + needs(0), where the shift m is at most the sum of
    needs(0) over the exchanges before it, and T(x)[j] is fixed on Z(w)
    once |w| reaches the needs of T's block stages folded over j + 1.
    Both fit in the fold over all stages: the image of x is determined
    once |w| >= prefix_needed(0).  (ii) _cocycle_sides builds the image of
    sigma(x) from w[1:], one symbol more.  (iii) _mismatches reads one
    side's tail only where the other side's prefix still stands, below
    that side's shift, which image_form resolved.  Every unresolved branch
    is refined down to length B, and one still unresolved there is a
    broken proof: VerificationFailed.
    """
    P = h.domain
    resolved = dict(_resolve(P, P.words(1), h.forward.prefix_needed(1),
                             minimal_cocycle_on_cylinder, h.forward.stages))
    depth = max(len(w) for w in resolved)
    k, l = [], []
    for w in P.words(depth):
        kw, lw = resolved[next(w[:i] for i in range(1, depth + 1)
                               if w[:i] in resolved)]
        k.append(kw)
        l.append(lw)
    pair = CocyclePair(CylinderFunction.on_words(P, depth, k),
                       CylinderFunction.on_words(P, depth, l))
    object.__setattr__(pair, "_proven_for", h.forward)
    return pair


def _verify_pair_on(P: Presentation, pm: PointMap, pair: CocyclePair):
    """Exhaustive symbolic Eq-check of a pair at its depth.

    Returns a list of failures (cylinder, reason, counterexample point).
    Cylinders are refined while the comparison needs more symbols; the
    pair's values stay those of the governing cylinder.  The comparison
    reads only symbols that minimal_cocycle_on_cylinder reads, so the
    refinement ends by the depth of the pair derived for pm, a bound at
    least as tight as pm's stages give.  When only one walk leaves w[-1],
    Z(w) is one point, which settles it.
    """
    failures = []
    d = pair.depth
    bound = max(d, derive_cocycle_pair(OrbitEquivalence(pm)).depth)
    for w0 in P.words(max(d, 1)):
        k, l = pair.k.value_on(w0), pair.l.value_on(w0)
        for w, (ok, reason) in _resolve(P, [w0], bound,
                                        verify_cocycle_on_cylinder,
                                        pm.stages, k, l):
            if not ok:
                x = _counterexample(P, pm, w, k, l)
                if x is not None or not P.is_forced(w[-1]):
                    failures.append((w, reason, x))
    return failures


def _counterexample(P, pm: PointMap, w, k, l):
    """A concrete eventually periodic point witnessing the failure, checked
    by evaluating both sides of the identity on it."""
    x = EvPerPoint.make(P, *P.complete_to_cycle_word(w))
    return x if pm(x.shift(1)).shift(k) != pm(x).shift(l) else None


def verify_coe(h: OrbitEquivalence, pair: CocyclePair,
               pair_prime: CocyclePair) -> COEReport:
    """Both cocycle identities, the least-period verdict for every period,
    and the strong-equivalence decision.  A pair derive_cocycle_pair
    proved for h.forward (pair_prime: for h.backward) stands as proven; any
    other pair gets the exhaustive symbolic check, cylinder by cylinder.

    The verdict needs only the poor orbits (Presentation.poor_cycles) and
    the sign of l - k.  Let x have least period p, S be the (l - k) sum over
    its orbit and q = lp(h(x)).
    (i)   The pairs induce groupoid homomorphisms Phi, Phi' with
          Phi(x, 1, sigma x) = (h x, l(x) - k(x), h sigma x) and
          Phi' Phi(x, 1, sigma x) = (x, g(x), sigma x), g locally constant.
    (ii)  Phi(x, p, x) = (h x, S, h x) is c times (h x, q, h x), which
          generates the isotropy at h x, and Phi' maps that to c' (x, p, x):
          so S = c q and c c' p is the sum of g over the orbit of x.
    (iii) A point that is not eventually periodic has one lag to its shift,
          so g = 1 there and on the closure of such points, which holds x
          unless x is on a poor orbit.  Then c c' = 1 and S = +-q.
    (iv)  The poor orbits, at most one per vertex, are checked directly.
          Every other orbit passes if l - k is a positive class; if not,
          the negative cycle of class_is_positive is an orbit with
          S < 0 < q, reported as (x, lp(h(x)), S).  A certificate that
          l - k is positive is kept as report.positivity.
    Both identities are premises: when one fails the verdict is not
    established, least_period_preserving is False with no witness and no
    orbit checked, and no transfer is sought.

    h is strongly COE when l - k = 1 + b - b o sigma for some b, which is
    then report.scoe_transfer.  solve_coboundary decides this exactly: it
    solves one system at depth max(depth(l - k - 1) - 1, 0) <= pair.depth,
    so the cap pair.depth never binds.
    """
    failures = []
    if pair._proven_for is not h.forward:
        failures = _verify_pair_on(h.domain, h.forward, pair)
    if pair_prime._proven_for is not h.backward:
        failures += [(w, f"[inverse] {r}", c) for (w, r, c) in
                     _verify_pair_on(h.codomain, h.backward, pair_prime)]
    report = COEReport(verified=not failures,
                       depth=max(pair.depth, pair_prime.depth),
                       failures=failures)
    if report.verified:
        P = h.domain
        poor = P.poor_cycles()
        ok, witnesses = check_least_period_preserving(h, pair, poor)
        diff = pair.difference()
        res = class_is_positive(P, diff)
        if isinstance(res, NegativeCycleWitness):
            x = EvPerPoint.make(P, (), tuple(a.tag[0] for a in res.cycle))
            if all(x != w[0] for w in witnesses):
                witnesses.append((x, h(x).least_period(), res.total))
            ok = False
        else:
            report.positivity = res
        report.least_period_preserving = ok
        report.lp_witnesses = witnesses
        report.lp_checked_cycles = len(poor)
        report.scoe_transfer = solve_coboundary(P, diff - 1, pair.depth)
    return report


def check_least_period_preserving(h: OrbitEquivalence, pair: CocyclePair,
                                  cycles):
    """Compare lp(h(x)) with the (l - k) orbit sum on the periodic orbits
    given by their cycle words; (ok, [(x, lp(h(x)), sum), ...])."""
    P = h.domain
    diff = pair.difference()
    witnesses = []
    for c in cycles:
        x = EvPerPoint.make(P, (), c)
        want = h(x).least_period()
        got = orbit_sum(diff, c)
        if want != got:
            witnesses.append((x, want, got))
    return not witnesses, witnesses


def _decompose(P, pair: CocyclePair, transfer, certificate=None):
    """(n, b, c) with l - k = n + b - b o sigma and b >= l.  With a transfer
    t (l - k = 1 + t - t o sigma), n = 1 and t is lifted by c; with None,
    (n, b) is the positivity certificate (the given one, if any), c = 0."""
    if transfer is not None:
        c = max((pair.l - transfer).max_value(), 0)
        return CylinderFunction.constant(P, 1), transfer + c, c
    if certificate is None:
        return (*decompose_positive(P, pair.difference(), lower=pair.l), 0)
    return (*certificate.lifted(pair.l), 0)


def coe_to_flow_pipeline(h: OrbitEquivalence, scoe: bool = False) -> FlowMapData:
    """Derive, verify, decompose: the executable route from an orbit
    equivalence to flow-map data.

    Raises LeastPeriodViolation when the derived pair does not preserve
    least periods (a class of l - k that is not positive included), and
    NotPositiveClass if the class of l' - k' is not positive, which would
    contradict the existence theorem and is surfaced loudly.  Derivation
    takes no depth option: past the depth its map's stages prove, it
    raises VerificationFailed (see derive_cocycle_pair).
    """
    pair = derive_cocycle_pair(h)
    pair_prime = derive_cocycle_pair(h.inverse())
    report = verify_coe(h, pair, pair_prime)
    if not report.least_period_preserving:
        raise LeastPeriodViolation(report.lp_witnesses)

    t = t_p = None
    if scoe:
        t = report.scoe_transfer
        t_p = solve_coboundary(h.codomain, pair_prime.difference() - 1,
                               pair_prime.depth)
    n, b, c = _decompose(h.domain, pair, t, report.positivity)
    n_p, b_p, c_p = _decompose(h.codomain, pair_prime, t_p)
    return FlowMapData(h.forward, pair.k, pair.l, pair_prime.k, pair_prime.l,
                       b, b_p, n, n_p, (c, c_p))

