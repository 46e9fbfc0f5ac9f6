import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from conftest import simple_cycles

from sftkit import (
    BiPoint,
    CylinderFunction,
    FlowMapData,
    OrbitEquivalence,
    PointMap,
    SuspensionPoint,
    WeightProfile,
    bold_varphi,
    coe_to_flow_pipeline,
    identity_map,
    m_eval,
    orbit_sum,
    positive_on_cycles,
    psi_eval,
    quarter_grid,
    r_eval,
    verify_flow_claims,
)
from sftkit.errors import (
    DegenerateN,
    InadmissibleWord,
    SftError,
    VerificationFailed,
)
from sftkit.samples import (
    random_bipoint,
    random_bipoints,
    random_prefix_exchange,
    random_split_conjugacy,
)
from sftkit.suspension import (
    ClaimReport,
    ClaimResult,
    EvPerPoint,
    find_round_trip_shift,
    robert_bound,
)
from tests.test_maps import _relabelled


def identity_data(P):
    zero = CylinderFunction.constant(P, 0)
    one = CylinderFunction.constant(P, 1)
    return FlowMapData(identity_map(P), zero, one, zero, one,
                       zero, zero, one, one)


def test_m_eval_constant_one(full2):
    one = CylinderFunction.constant(full2, 1)
    bx = BiPoint.periodic(full2, (0, 1))
    for j in range(-5, 6):
        assert m_eval(one, bx, j) == j


def test_m_eval_weighted(full2):
    n = CylinderFunction.from_values(full2, {"0": 1, "1": 0})
    bx = BiPoint.periodic(full2, (0, 1), 0)
    assert bx.tail(0).symbol(0) == 0
    assert m_eval(n, bx, 2) == 1
    assert m_eval(n, bx, -2) == -1
    assert m_eval(n, bx, 0) == 0


def test_m_eval_cocycle_rule(full2):
    rng = random.Random(2)
    n = CylinderFunction.from_values(full2, {"00": 1, "01": 0,
                                             "10": 2, "11": 1})
    for _ in range(40):
        bx = random_bipoint(rng, full2)
        i, j = rng.randint(-5, 5), rng.randint(-5, 5)
        assert m_eval(n, bx, i + j) == \
            m_eval(n, bx, i) + m_eval(n, bx.shift(i), j)


def test_m_eval_weakly_increasing(full2):
    n = CylinderFunction.from_values(full2, {"0": 0, "1": 2})
    bx = BiPoint.make(full2, (0, 1), (1, 1), (1, 0), 1)
    values = [m_eval(n, bx, j) for j in range(-6, 7)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_r_eval_identity_weight(full2):
    one = CylinderFunction.constant(full2, 1)
    bx = BiPoint.periodic(full2, (0, 1))
    for t in quarter_grid(-2, 2):
        assert r_eval(one, bx, t) == t


def test_r_eval_weighted_example(full2):
    n = CylinderFunction.from_values(full2, {"0": 1, "1": 0})
    bx = BiPoint.periodic(full2, (0, 1), 0)
    assert r_eval(n, bx, Fraction(1, 2)) == Fraction(1, 4)
    # at integers with nonzero weight, r agrees with m
    assert r_eval(n, bx, 0) == m_eval(n, bx, 0)
    assert r_eval(n, bx, 2) == m_eval(n, bx, 2)


def test_r_eval_strictly_increasing(full2):
    n = CylinderFunction.from_values(full2, {"00": 2, "01": 0,
                                             "10": 1, "11": 1})
    bx = BiPoint.make(full2, (0,), (1, 0), (1, 1, 0), -1)
    grid = quarter_grid(-3, 3)
    vals = [r_eval(n, bx, t) for t in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_r_eval_degenerate_weight(full2):
    n = CylinderFunction.from_values(full2, {"0": 0, "1": 1})
    bx = BiPoint.periodic(full2, (0,))
    with pytest.raises(DegenerateN):
        r_eval(n, bx, Fraction(1, 2))


def test_bold_varphi_identity(full2):
    D = identity_data(full2)
    for bx in [BiPoint.periodic(full2, (0, 1)),
               BiPoint.make(full2, (0,), (1, 1), (0, 1), 2),
               BiPoint.make(full2, (1, 0), (), (1,), -3)]:
        assert bold_varphi(D, bx) == bx


def test_bold_varphi_requires_positive_cycles(full2):
    zero = CylinderFunction.constant(full2, 0)
    one = CylinderFunction.constant(full2, 1)
    n = CylinderFunction.from_values(full2, {"0": 0, "1": 2})
    D = FlowMapData(identity_map(full2), zero, one, zero, one,
                    one, zero, n, one, validate=False)
    with pytest.raises(DegenerateN):
        bold_varphi(D, BiPoint.periodic(full2, (0,)))


def test_bold_varphi_pipeline_periodic_image(full2, std_exchange):
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    bx = BiPoint.periodic(full2, (0, 1))
    y = bold_varphi(D, bx)
    assert y.is_periodic()
    assert y.least_period() == m_eval(D.n, bx, bx.least_period())


def test_bold_varphi_equivariance(full2, std_exchange):
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    rng = random.Random(8)
    for _ in range(15):
        bx = random_bipoint(rng, full2)
        for j in (-3, -1, 1, 2):
            lhs = bold_varphi(D, bx).shift(m_eval(D.n, bx, j))
            assert lhs == bold_varphi(D, bx.shift(j))


def test_one_sided_phi_cocycle_identity(full2, std_exchange):
    """phi(sigma x) = sigma^{n(x)} phi(x) and its iterate."""
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    rng = random.Random(12)
    from sftkit.samples import random_point
    for _ in range(30):
        x = random_point(rng, full2)
        assert D.phi(x.shift(1)) == D.phi(x).shift(D.n(x))
        total = sum(D.n(x.shift(i)) for i in range(4))
        assert D.phi(x.shift(4)) == D.phi(x).shift(total)


def test_phi_finite_to_one_on_sample(full2, std_exchange):
    # phi-preimages of y sit inside the h-preimages of the sigma-fibers
    # sigma^-i(y) for i <= max b, so they are bounded by a geometric sum
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    rng = random.Random(6)
    from sftkit.samples import random_point
    pts = {random_point(rng, full2) for _ in range(120)}
    images = {}
    for x in pts:
        images.setdefault(D.phi(x), []).append(x)
    indeg = max(len(full2.in_neighbors(v)) for v in full2.labels)
    bound = sum(indeg ** i for i in range(D.b.max_value() + 1))
    assert max(len(v) for v in images.values()) <= bound


def test_psi_identity(full2):
    D = identity_data(full2)
    bx = BiPoint.make(full2, (0,), (1,), (0, 1), 0)
    for t in quarter_grid(0, 0) + [Fraction(3, 4)]:
        s = SuspensionPoint.make(bx, t)
        assert psi_eval(D, s) == s


def test_psi_normalization(full2):
    bx = BiPoint.periodic(full2, (0, 1))
    s = SuspensionPoint.make(bx, Fraction(7, 3))
    assert 0 <= s.time < 1
    assert s.point == bx.shift(2)


def test_psi_representative_independence(full2, std_exchange):
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    bx = BiPoint.make(full2, (1,), (0, 0), (0, 1), 1)
    for t in quarter_grid(-1, 1):
        a = psi_eval(D, SuspensionPoint.make(bx.shift(1), t))
        b = psi_eval(D, SuspensionPoint.make(bx, t + 1))
        assert a == b


def test_verify_flow_claims_pass(full2, std_exchange):
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    sample = [BiPoint.periodic(full2, (0,)),
              BiPoint.periodic(full2, (0, 1)),
              BiPoint.make(full2, (0,), (1, 1, 0), (0, 1), -1)]
    rep = verify_flow_claims(D, sample, j_range=(-3, 3),
                             t_grid=quarter_grid(-1, 1), p_range=(-2, 2))
    assert rep.all_pass()
    assert not rep.inconclusive


def test_verify_flow_claims_rejects_points_of_another_shift(full3, gm):
    # labels 0 and 1 are in the full 3-shift's tables, so without the check
    # the time-change claims on the golden-mean point (01)^inf passed
    D = coe_to_flow_pipeline(random_prefix_exchange(random.Random(1), full3))
    own = BiPoint.periodic(full3, (0, 1))
    with pytest.raises(InadmissibleWord, match="not on the map's domain"):
        verify_flow_claims(D, [own, BiPoint.periodic(gm, (0, 1))])
    assert verify_flow_claims(D, iter([own])).all_pass()


def test_verify_flow_claims_detects_corrupted_n(full2, std_exchange):
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    bad_table = dict(D.n.table)
    key = sorted(bad_table)[0]
    bad_table[key] += 1
    bad_n = CylinderFunction(full2, D.n.depth, bad_table)
    Dbad = FlowMapData(D.h, D.k, D.l, D.k_prime, D.l_prime, D.b, D.b_prime,
                       bad_n, D.n_prime, validate=False)
    sample = [BiPoint.periodic(full2, (0, 1)),
              BiPoint.periodic(full2, (0,)),
              BiPoint.make(full2, (0,), (1,), (0, 1), 0)]
    rep = verify_flow_claims(Dbad, sample, j_range=(-2, 2),
                             t_grid=quarter_grid(-1, 1), p_range=(-1, 1))
    assert rep.failures
    # the reported failure re-verifies: re-running the same claim on the
    # same point still fails
    f = rep.failures[0]
    again = verify_flow_claims(
        Dbad, [b for b in sample if str(b) == f.point],
        j_range=(-2, 2), t_grid=quarter_grid(-1, 1), p_range=(-1, 1))
    assert any(r.claim == f.claim and not r.passed for r in again.results)


def test_n_positive_on_cycles_sees_block_cycles(full2):
    """n of depth 3 with positive sums on every simple vertex cycle, yet the
    orbit of 0011 sums to 0: the block graph has a zero cycle."""
    zero = CylinderFunction.constant(full2, 0)
    one = CylinderFunction.constant(full2, 1)
    zeros = {(0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 0)}
    n = CylinderFunction(full2, 3, {w: 0 if w in zeros else 1
                                    for w in full2.language(3)})
    assert [orbit_sum(n, c) for c in simple_cycles(full2)] == [1, 2, 1]
    assert orbit_sum(n, (0, 0, 1, 1)) == 0
    D = FlowMapData(identity_map(full2), zero, one, zero, one,
                    one, zero, n, one, validate=False)
    assert not D.n_positive_on_cycles
    assert D.primed().n_positive_on_cycles
    with pytest.raises(DegenerateN):
        bold_varphi(D, BiPoint.periodic(full2, (0, 0, 1, 1)))


def test_positive_on_cycles_with_negative_values(full2):
    b = CylinderFunction.from_values(full2, {"0": 3, "1": -2})
    one = CylinderFunction.constant(full2, 1)
    # every orbit of 1 + b - b o sigma sums to its period
    assert positive_on_cycles(full2, one + b.coboundary())
    # every orbit of b - b o sigma sums to 0
    assert not positive_on_cycles(full2, b.coboundary())
    # the fixed point 1 sums to -1
    f = CylinderFunction.from_values(full2, {"0": 2, "1": -1})
    assert not positive_on_cycles(full2, f)


def test_bold_varphi_image_check_raises_typed_error(full2, monkeypatch):
    D = identity_data(full2)
    bx = BiPoint.periodic(full2, (0, 1))
    tail = BiPoint.tail
    monkeypatch.setattr(BiPoint, "tail", lambda self, i: tail(self, i + 1))
    with pytest.raises(VerificationFailed):
        bold_varphi(D, bx)


@pytest.mark.parametrize("left, middle, right, fake", [
    # phi(z*) = 1 0^inf: b* = (1,) does not close, 1 -> 1 is no edge
    ((0,), (1,), (0,), ((1,), (0,))),
    # phi(z*) = (01)^inf: b* = (0, 1) closes, but the cut tail starts with
    # the left cycle's 1, and 1 -> 1 is no edge
    ((1, 0), (), (0, 0, 1), ((), (0, 1))),
])
def test_image_junctions_are_checked(gm, monkeypatch, left, middle, right,
                                     fake):
    """An image is joined from b* = phi(z*)[0, Q) and the cut tail's image,
    and only b*'s closing edge and its join to the tail are checked.  With
    phi stubbed on z* so that one of the two edges is missing, every claim
    that reads the image fails with the InadmissibleWord of that check; the
    time-change claims, which read only n, still pass."""
    D = identity_data(gm)
    bx = BiPoint.make(gm, left, middle, right)
    assert not bx.is_periodic() and bx.left_cycle == left
    z_star = EvPerPoint(gm, (), bx.left_cycle)
    phi = D.phi
    monkeypatch.setattr(D, "phi", lambda x: EvPerPoint.make(gm, *fake)
                        if x == z_star else phi(x))
    rep = verify_flow_claims(D, [bx])
    claims = Counter()
    for r in rep.results:
        claims[r.claim] += 1
        if r.claim == "time-change-cocycle":
            assert r.passed
        else:
            assert not r.passed
            assert r.lhs == "error: bi-infinite representation not admissible"
    assert claims == {"shift-equivariance": 9, "inverse-up-to-shift": 1,
                      "time-change-cocycle": 7, "suspension-well-defined": 1}


def _time_change_reference(n, bx, sp, p, grid):
    """The time-change claim as the Fraction formulas state it; sp stands
    for sigma^p bx."""
    for t in grid:
        lhs, rhs = r_eval(n, bx, t + p), r_eval(n, sp, t) + m_eval(n, bx, p)
        if lhs != rhs:
            return False, f"r(t+p)={lhs} at t={t}", f"{rhs}"
    return True, "r_x(t+p)", "r_{s^p x}(t) + m_x(p)"


def _representative_reference(D, bx, sx, grid, lift=0):
    """The suspension claim as SuspensionPoint.make states it; sx stands
    for sigma bx, and both images move lift more steps."""
    for t in grid:
        a = SuspensionPoint.make(bold_varphi(D, sx).shift(lift),
                                 r_eval(D.n, sx, t))
        b = SuspensionPoint.make(bold_varphi(D, bx).shift(lift),
                                 r_eval(D.n, bx, t + 1))
        if a != b:
            return False, f"{a} at t={t}", f"{b}"
    return True, "psi(sx, t)", "psi(x, t+1)"


def _failure_sample(P):
    return [BiPoint.periodic(P, (0, 1)), BiPoint.periodic(P, (0,)),
            BiPoint.make(P, (0,), (1,), (0, 1)),
            BiPoint.make(P, (0,), (1, 1, 0), (0, 1, 1))]


def _check_time_claims(D, rep, sample, grid, extra=0):
    """Assert that every time-claim entry of rep, passing or failing,
    equals the reference verdict and strings when each shift moves extra
    more steps; return the failures per claim."""
    points = {str(bx): bx for bx in sample}
    failed = {"time-change-cocycle": 0, "suspension-well-defined": 0}
    for f in rep.results:
        if f.claim not in failed:
            continue
        bx = points[f.point]
        try:
            if f.claim == "time-change-cocycle":
                p = f.parameters["p"]
                expect = _time_change_reference(D.n, bx, bx.shift(p + extra),
                                                p, grid)
            else:
                expect = _representative_reference(D, bx, bx.shift(1 + extra),
                                                   grid, extra)
        except SftError as e:
            expect = False, f"error: {e}", ""
        assert (f.passed, f.lhs, f.rhs) == expect
        failed[f.claim] += not f.passed
    return failed


@pytest.mark.parametrize("grid", [quarter_grid(),
                                  [Fraction(q, 3) for q in range(-5, 6)]])
def test_failure_reports_keep_their_fraction_form(full2, std_exchange,
                                                  monkeypatch, grid):
    """Time claims report the Fractions and suspension points that the
    Fraction formulas give.  BiPoint.shift is patched to move one step too
    far, so sigma^p reads sigma^(p+1) and SuspensionPoint.make shifts its
    point once more."""
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    sample = _failure_sample(full2)
    shift = BiPoint.shift
    monkeypatch.setattr(BiPoint, "shift",
                        lambda self, j=1: shift(self, j + 1))
    rep = verify_flow_claims(D, sample, t_grid=grid)
    monkeypatch.undo()
    assert _check_time_claims(D, rep, sample, grid, extra=1) == {
        "time-change-cocycle": 14, "suspension-well-defined": 3}


def test_time_claims_match_the_fraction_formulas_on_corrupted_n(
        full2, std_exchange):
    """Every time-claim entry equals the Fraction formulas' verdict and
    strings, with n raised or lowered on one word."""
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    sample = _failure_sample(full2)
    grid = quarter_grid(-1, 1)
    failed = Counter()
    for key in sorted(D.n.table):
        for delta in (1, -1):
            table = dict(D.n.table)
            table[key] += delta
            if table[key] < 0:
                continue
            Dbad = FlowMapData(D.h, D.k, D.l, D.k_prime, D.l_prime, D.b,
                               D.b_prime, CylinderFunction(full2, D.n.depth,
                                                           table),
                               D.n_prime, validate=False)
            rep = verify_flow_claims(Dbad, sample, t_grid=grid,
                                     p_range=(-2, 2))
            failed.update(_check_time_claims(Dbad, rep, sample, grid))
    assert len(failed) == 2 and all(failed.values()), failed


def test_a_time_off_by_a_fraction_is_reported(full2, std_exchange,
                                              monkeypatch):
    """r_x skewed by half a step on odd floors of t: r_x(t+1) and
    r_{sigma x}(t) then differ by a non-integer, so the suspension claim
    fails on the fractional parts, and reports what SuspensionPoint.make
    gives for the skewed times."""
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    r_over = WeightProfile.r_over

    def skewed(self, a, d):
        num, den = r_over(self, a, d)
        return 2 * num + (a // d) % 2, 2 * den

    monkeypatch.setattr(WeightProfile, "r_over", skewed)
    sample = _failure_sample(full2)
    grid = quarter_grid(-1, 1)
    rep = verify_flow_claims(D, sample, t_grid=grid, p_range=(-2, 2))
    # odd p moves the parity of the floor, even p does not
    assert _check_time_claims(D, rep, sample, grid) == {
        "time-change-cocycle": 2 * len(sample),
        "suspension-well-defined": len(sample)}


def test_each_value_is_computed_once_per_point(full2, std_exchange,
                                               monkeypatch):
    """One non-periodic point at the default ranges: phi maps 4 distinct
    one-sided points (z* and the cut tail, for x and for the round trip),
    n's profile is built for the 9 distinct shifts and the image, and r is
    evaluated at 41 distinct (profile, integer floor) pairs, each once: 11
    floors of r_x (t + p spans [-5, 6)) and 5 for each of the six other
    shifts.  Before the memos these were 20, 17 and 272 r_over evaluations,
    and before the floor memo 143 (profile, time) pairs.  No image goes
    through BiPoint.make: each is joined from proven parts."""
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    bx = BiPoint.make(full2, (0,), (1, 1, 0), (0, 1), -1)
    assert not bx.is_periodic()
    counts, floors = Counter(), Counter()

    def spy(cls, name, on_call=None):
        fn = getattr(cls, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            if on_call:
                on_call(*args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    spy(PointMap, "apply")
    spy(WeightProfile, "__init__")
    # r_over evaluates a floor f through _last_nonzero(f), once per miss
    spy(WeightProfile, "_last_nonzero",
        lambda profile, f: floors.update([(profile, f)]))
    spy(BiPoint, "make")
    assert verify_flow_claims(D, [bx]).all_pass()
    assert counts["apply"] == 4
    assert counts["__init__"] <= 10
    assert len(floors) == 41 and set(floors.values()) == {1}
    assert counts["make"] == 0


def test_suspension_claim_shifts_once_per_pair_of_floors(full2, std_exchange,
                                                         monkeypatch):
    """The suspension claim compares sigma^fa phi(sigma x) with
    sigma^fb phi(x), where fa and fb are the floors of r_{sigma x}(t) and
    r_x(t + 1), once per distinct pair (fa, fb): it calls BiPoint.shift at
    most twice per pair, where it called it twice per grid time."""
    D = coe_to_flow_pipeline(OrbitEquivalence(std_exchange))
    grid = quarter_grid()
    shift = BiPoint.shift
    calls = Counter()

    def counted(self, j=1):
        calls[sys._getframe(1).f_code.co_name] += 1
        return shift(self, j)
    for bx in [BiPoint.make(full2, (0,), (1, 1, 0), (0, 1), -1),
               BiPoint.periodic(full2, (0, 1, 1))]:
        sx = bx.shift(1)
        floors = {(math.floor(r_eval(D.n, sx, t)),
                   math.floor(r_eval(D.n, bx, t + 1))) for t in grid}
        assert len(floors) < len(grid)
        calls.clear()
        monkeypatch.setattr(BiPoint, "shift", counted)
        assert verify_flow_claims(D, [bx], t_grid=grid).all_pass()
        monkeypatch.undo()
        assert 0 < calls["representative"] <= 2 * len(floors)


# -- the claim battery before its memos, kept as an oracle -------------------

def _reference_phi(D, x):
    """FlowMapData.phi before it memoised its images."""
    return D.h(x).shift(D.b(x))


def _reference_bold_varphi(D, bx):
    """bold_varphi before the bundle's memos: its own profile, the cut from
    the phase, and phi without a memo (_reference_phi)."""
    D._require_positive_cycles()
    n = D.n
    profile = WeightProfile(n, bx)
    p = profile.p
    Q = profile.pre[p]  # n summed over one left period
    bmax = max(D.b.max_value(), 0)
    W = max(D.h.prefix_needed(Q + bmax), D.b.width())
    clearance = W + n.width() + p
    # least coordinate i* with (i* + phase) = 0 mod p lying at least
    # `clearance` inside the left-periodic region
    i_star = -(bx.phase + clearance)
    i_star -= (i_star + bx.phase) % p
    # the left cycle of a canonical point is primitive: z* is canonical
    z_star = EvPerPoint(bx.presentation, (), bx.left_cycle)
    b_star = _reference_phi(D, z_star).symbols(Q)
    p_star = _reference_phi(D, bx.tail(i_star))
    m_star = profile.m(i_star)
    img = BiPoint.make(D.codomain, b_star, p_star.prefix, p_star.cycle,
                       -m_star)
    if img.tail(m_star) != p_star:
        raise VerificationFailed(
            f"the two-sided image {img} does not continue "
            f"phi(x_[{i_star}, inf)) = {p_star} at {m_star}")
    return img


def _reference_verify_flow_claims(D, sample, j_range=(-4, 4), t_grid=None,
                                  p_range=(-3, 3), d_bound=None):
    """verify_flow_claims before the memos, calling the reference
    bold_varphi."""
    t_grid = t_grid if t_grid is not None else quarter_grid()
    grid = [(t.numerator, t.denominator) for t in map(Fraction, t_grid)]
    n = D.n
    Dp = D.primed()
    results = []
    cache = {}
    profiles = {}

    def phi2(bx):
        if bx not in cache:
            cache[bx] = _reference_bold_varphi(D, bx)
        return cache[bx]

    def weights(bx):
        # keyed by the whole point, phase included: the profile of a shifted
        # point is read from its own symbols, never re-indexed from another
        if bx not in profiles:
            profiles[bx] = WeightProfile(n, bx)
        return profiles[bx]

    def attempt(claim, point, params, thunk):
        try:
            passed, lhs, rhs = thunk()
        except (SftError, ValueError) as e:
            passed, lhs, rhs = False, f"error: {e}", ""
        results.append(ClaimResult(claim, str(point), params, passed,
                                   str(lhs), str(rhs)))

    for bx in sample:
        for j in range(j_range[0], j_range[1] + 1):
            def equivariance(j=j, bx=bx):
                lhs = phi2(bx).shift(weights(bx).m(j))
                rhs = phi2(bx.shift(j))
                return lhs == rhs, lhs, rhs
            attempt("shift-equivariance", bx, {"j": j}, equivariance)
        if bx.is_periodic():
            def scaling(bx=bx):
                y = phi2(bx)
                lp_img = y.least_period() if y.is_periodic() else None
                expect = weights(bx).m(bx.least_period())
                return lp_img == expect, lp_img, expect
            attempt("period-scaling", bx, {"lp": bx.least_period()}, scaling)
        bound = d_bound if d_bound is not None else robert_bound(D, bx)
        params = {"bound": bound}

        def round_trip(bx=bx, params=params):
            w = _reference_bold_varphi(Dp, phi2(bx))
            d = find_round_trip_shift(bx, w, bound)
            params["found"] = d if d is not None else "inconclusive"
            return d is not None, w, f"a shift of {bx}"
        attempt("inverse-up-to-shift", bx, params, round_trip)
        for p in range(p_range[0], p_range[1] + 1):
            def time_change(p=p, bx=bx):
                wx, ws = weights(bx), weights(bx.shift(p))
                mp = wx.m(p)
                for t, (a, d) in zip(t_grid, grid):
                    ln, ld = wx.r_over(a + p * d, d)
                    rn, rd = ws.r_over(a, d)
                    if ln * rd != (rn + mp * rd) * ld:
                        return (False, f"r(t+p)={Fraction(ln, ld)} at t={t}",
                                f"{Fraction(rn, rd) + mp}")
                return True, "r_x(t+p)", "r_{s^p x}(t) + m_x(p)"
            attempt("time-change-cocycle", bx, {"p": p, "grid": len(t_grid)},
                    time_change)

        def representative(bx=bx):
            sx = bx.shift(1)
            for t, (a, d) in zip(t_grid, grid):
                ya, (an, ad) = phi2(sx), weights(sx).r_over(a, d)
                yb, (bn, bd) = phi2(bx), weights(bx).r_over(a + d, d)
                fa, fb = an // ad, bn // bd
                if ((an - fa * ad) * bd != (bn - fb * bd) * ad
                        or ya.shift(fa) != yb.shift(fb)):
                    sa = SuspensionPoint.make(ya, Fraction(an, ad))
                    sb = SuspensionPoint.make(yb, Fraction(bn, bd))
                    return False, f"{sa} at t={t}", f"{sb}"
            return True, "psi(sx, t)", "psi(x, t+1)"
        attempt("suspension-well-defined", bx, {"grid": len(t_grid)},
                representative)
    return ClaimReport(results)


def _corrupted(D):
    """D with n raised on its first word, lowered on its last positive
    word, and zeroed on every word that starts at the first vertex (n then
    vanishes on that vertex's loop, if it has one), none validated."""
    words = D.domain.sorted_words(D.n.table)
    first = words[0]
    positive = [w for w in words if D.n.table[w] > 0]
    tables = [{first: D.n.table[first] + 1},
              {positive[-1]: D.n.table[positive[-1]] - 1},
              {w: 0 for w in words if w[0] == words[0][0]}]
    return [FlowMapData(D.h, D.k, D.l, D.k_prime, D.l_prime, D.b, D.b_prime,
                        CylinderFunction(D.domain, D.n.depth,
                                         {**D.n.table, **change}),
                        D.n_prime, validate=False)
            for change in tables]


def test_claims_match_the_battery_without_memos(full2, full3, gm,
                                                std_exchange):
    """verify_flow_claims reports exactly what the battery before the memos
    reports, on seeded maps, periodic and non-periodic points, shifted
    ranges, grids in thirds and with mixed denominators, and bundles with n
    corrupted; run again on the same bundle, the warm memos change
    nothing."""
    rng = random.Random(20)
    maps = [random_prefix_exchange(rng, P, e)
            for P, e in [(full2, 2)] * 3 + [(full3, 1)] * 3]
    maps += [OrbitEquivalence(std_exchange).compose(
                 random_prefix_exchange(rng, full2, 2)),
             random_split_conjugacy(rng, gm, 3)]
    # an exchange built with a vertex map, drawn apart from the rest
    maps.append(OrbitEquivalence(
        _relabelled(random_prefix_exchange(random.Random(23), gm, 2))))
    thirds = [Fraction(q, 3) for q in range(-4, 5)]
    mixed = [Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)]
    options = [{}, {"j_range": (2, 5), "p_range": (-1, 2)},
               {"t_grid": thirds}, {"t_grid": mixed, "p_range": (-2, 2)}]
    kinds, verdicts = Counter(), Counter()
    for h in maps:
        D = coe_to_flow_pipeline(h)
        sample = random_bipoints(rng, h.domain, 8)
        kinds.update(bx.is_periodic() for bx in sample)
        runs = [(D, kw) for kw in options]
        runs += [(bad, kw) for bad in _corrupted(D) for kw in options[::3]]
        for bundle, kw in runs:
            want = _reference_verify_flow_claims(bundle, sample, **kw)
            for _ in range(2):
                got = verify_flow_claims(bundle, sample, **kw)
                assert got.as_list() == want.as_list()
            verdicts.update("pass" if r.passed
                            else "error" if r.lhs.startswith("error: ")
                            else "fail" for r in want.results)
    assert kinds[True] and kinds[False]
    assert verdicts["pass"] and verdicts["fail"] and verdicts["error"], \
        verdicts


@pytest.mark.parametrize("part, value, message", [
    ("n", None, "n lives on the wrong presentation"),
    ("k", -1, "k must be non-negative"),
    ("n", 2, "l - k = n + b - b o sigma fails"),
    ("n_prime", 2, "primed decomposition identity fails"),
    ("b", -1, "need b >= 0 and b >= l - n pointwise"),
    ("b_prime", -1, "need b' >= 0 and b' >= l' - n' pointwise"),
], ids=["wrong-presentation", "negative-cocycle", "decomposition",
        "primed-decomposition", "negative-b", "negative-b-prime"])
def test_flow_map_data_rejects_inconsistent_parts(full2, gm, part, value,
                                                  message):
    """The identity bundle with one part replaced: a part on another
    presentation, a negative cocycle, a broken decomposition l - k =
    n + b - b o sigma on either side, or a negative transfer (a constant
    shift of b keeps the decomposition) is a ValueError."""
    zero = CylinderFunction.constant(full2, 0)
    one = CylinderFunction.constant(full2, 1)
    parts = dict(k=zero, l=one, k_prime=zero, l_prime=one, b=zero,
                 b_prime=zero, n=one, n_prime=one)
    parts[part] = (CylinderFunction.constant(gm, 1) if value is None
                   else CylinderFunction.constant(full2, value))
    with pytest.raises(ValueError) as exc:
        FlowMapData(identity_map(full2), **parts)
    assert str(exc.value) == message


def test_round_trip_shift_beyond_the_bound_is_not_found(full2):
    x = BiPoint.make(full2, (0,), (1,), (0,), 0)
    w = x.shift(5)
    assert find_round_trip_shift(x, w, 5) == 5
    assert find_round_trip_shift(x, w, 4) is None
    assert find_round_trip_shift(w, x, 4) is None
