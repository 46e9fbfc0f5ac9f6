import random
from collections import Counter
from fractions import Fraction

import pytest

from sftkit import (
    BiPoint,
    CylinderFunction,
    FlowMapData,
    OrbitEquivalence,
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
from sftkit.errors import DegenerateN, SftError, VerificationFailed
from sftkit.samples import random_bipoint


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
    assert [orbit_sum(n, c) for c in full2.simple_cycles()] == [1, 2, 1]
    assert orbit_sum(n, (0, 0, 1, 1)) == 0
    D = FlowMapData(identity_map(full2), zero, one, zero, one,
                    one, zero, n, one, validate=False)
    assert not D.n_positive_on_cycles
    assert D.n_prime_positive_on_cycles
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
