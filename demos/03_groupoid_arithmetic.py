"""Arithmetic in the tail-equivalence groupoid.

Elements (x, n, x') pair points whose tails eventually agree, graded by the
lag n.  Everything is computed on canonical witnesses, so composition,
inversion, cocycle evaluation, and the bisection action are all exact.
"""

from sftkit import (
    CylinderBisection,
    CylinderFunction,
    EvPerPoint,
    compose,
    full_shift,
    groupoid_cocycle_eval,
    invert,
    make_element,
    unit,
    word,
)

P = full_shift(2)
x0 = EvPerPoint.make(P, (), (0,))       # 000...
x10 = EvPerPoint.make(P, (1,), (0,))    # 1000...

print("-- elements store their least witnesses")
eta = make_element(x0, -1, x10)
print("eta =", eta, " witnesses:", eta.witnesses)

print()
print("-- groupoid laws")
print("eta . eta^-1 =", compose(eta, invert(eta)), "= unit:",
      compose(eta, invert(eta)) == unit(x0))
p01 = EvPerPoint.make(P, (), (0, 1))
e1 = make_element(p01, 1, p01.shift(1))
e2 = make_element(p01.shift(1), 1, p01)
print("around the 2-cycle:", compose(e1, e2))

print()
print("-- integer cocycles from cylinder functions")
g = CylinderFunction.from_values(P, {"0": 2, "1": 5})
print("g-weight of eta:", groupoid_cocycle_eval(g, eta))
print("additivity:",
      groupoid_cocycle_eval(g, compose(e1, e2)) ==
      groupoid_cocycle_eval(g, e1) + groupoid_cocycle_eval(g, e2))

print()
print("-- compact open bisections act by prefix replacement")
A = CylinderBisection.make(P, word("10"), word("0"))
img, degree = A.apply(x0)
print(f"alpha_(10~0) sends {x0} to {img} with degree {degree}")
