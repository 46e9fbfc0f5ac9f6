"""The full route from an orbit equivalence to a flow equivalence.

Starting from the prefix exchange 0 -> 10, 10 -> 0, 11 -> 11 on the full
2-shift: derive the minimal cocycle pair per cylinder, which proves both
cocycle identities symbolically on every cylinder, decompose
l - k = n + b - b o sigma with n >= 0, and evaluate the induced two-sided
map, time change, and suspension map.  Every identity along the way is
checked exactly.
"""

from fractions import Fraction

from sftkit import (
    BiPoint,
    OrbitEquivalence,
    Presentation,
    SuspensionPoint,
    bold_varphi,
    coe_to_flow_pipeline,
    derive_cocycle_pair,
    full_shift,
    m_eval,
    prefix_exchange,
    psi_eval,
    r_eval,
    verify_coe,
    verify_flow_claims,
    word,
)

P = full_shift(2)
h = OrbitEquivalence(prefix_exchange(P, {word("0"): word("10"),
                                         word("10"): word("0"),
                                         word("11"): word("11")}))

print("-- derived minimal cocycles, one row per cylinder")
pair = derive_cocycle_pair(h)
for w in sorted(pair.k.table):
    name = "".join(map(str, w))
    print(f"  Z({name}): k={pair.k.table[w]} l={pair.l.table[w]}")

report = verify_coe(h, pair, derive_cocycle_pair(h.inverse()))
print("both identities verified:", report.verified)
print("least periods preserved, for every period:",
      report.least_period_preserving,
      f"({report.lp_checked_cycles} poor orbits checked directly)")

# on a reducible shift the isolated loops are the poor orbits
Q = Presentation(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")])
g = OrbitEquivalence(prefix_exchange(Q, {word("aa"): word("aa"),
                                         word("ab"): word("b"),
                                         word("b"): word("ab")}))
report = verify_coe(g, derive_cocycle_pair(g),
                    derive_cocycle_pair(g.inverse()))
print("a-loop into b-loop: poor orbits", Q.poor_cycles(),
      "least periods preserved:", report.least_period_preserving)

print()
print("-- the assembled data")
D = coe_to_flow_pipeline(h)
print("n table:", {("".join(map(str, w))): v for w, v in sorted(D.n.table.items())})
print("b dominates l:", (D.b - D.l).min_value() >= 0)

print()
print("-- the two-sided extension on the 2-cycle")
bx = BiPoint.periodic(P, (0, 1))
y = bold_varphi(D, bx)
print("Phi((01)^inf) =", y)
print("least period scales by m:",
      y.least_period() == m_eval(D.n, bx, bx.least_period()))
print("equivariance at j=3:",
      bold_varphi(D, bx.shift(3)) == y.shift(m_eval(D.n, bx, 3)))

print()
print("-- exact rational time change and the suspension map")
print("r(1/2) =", r_eval(D.n, bx, Fraction(1, 2)))
s = SuspensionPoint.make(bx, Fraction(1, 2))
print("psi[x, 1/2] =", psi_eval(D, s))
lhs = psi_eval(D, SuspensionPoint.make(bx.shift(1), Fraction(1, 4)))
rhs = psi_eval(D, SuspensionPoint.make(bx, Fraction(5, 4)))
print("well-defined across representatives:", lhs == rhs)

print()
print("-- the whole claim battery")
sample = [bx, BiPoint.periodic(P, (0,)),
          BiPoint.make(P, (0,), (1, 1, 0), (0, 1), -1)]
rep = verify_flow_claims(D, sample)
by_claim = {}
for r in rep.results:
    tot, bad = by_claim.get(r.claim, (0, 0))
    by_claim[r.claim] = (tot + 1, bad + (0 if r.passed else 1))
for claim, (tot, bad) in sorted(by_claim.items()):
    print(f"  {claim}: {tot - bad}/{tot}")
print("all pass:", rep.all_pass())
