"""Discrete towers, first-return maps, and flow-equivalence invariants.

Replacing each state by a chain of floors produces a shift that is flow
equivalent to the base; the Smith normal form and determinant of I - A do
not change, while graph splits give conjugate presentations to compare
against.
"""

from sftkit import (
    CylinderFunction,
    EvPerPoint,
    Tower,
    TowerSpec,
    bowen_franks,
    golden_mean,
    out_split,
    out_split_conjugacy,
)
from sftkit.groupoid import make_element, make_tower_element, tower_iso

gm = golden_mean()
print("-- golden mean with floors f(0)=1, f(1)=2")
f = CylinderFunction.from_values(gm, {"0": 1, "1": 2})
tower = Tower(TowerSpec(gm, f))
print("tower vertices:", tower.presentation.labels)
print("tower edges:", sorted(map(str, tower.presentation.edges)))
print("invariants base :", bowen_franks(gm))
print("invariants tower:", bowen_franks(tower.presentation))
print("equal as flow invariants:",
      bowen_franks(gm) == bowen_franks(tower.presentation))

print()
print("-- the cross section recovers the base dynamics")
x = EvPerPoint.make(gm, (), (0, 1))
p = tower.iota(x, 0)
print("iota((01)^inf, 0) =", p)
q, rt = tower.first_return(p)
print(f"first return after {rt} steps lands on iota(sigma x, 0):",
      q == tower.iota(x.shift(1), 0))

print()
print("-- the tower groupoid is the groupoid of the tower")
eta = make_element(x, 2, x)
theta = make_tower_element(eta, 0, 0, tower.floors)
print("theta =", theta)
print("image:", tower_iso(theta, tower))

print()
print("-- splits move between presentations without changing invariants")
Q = out_split(gm, 0, [[0], [1]])
print("out-split golden mean:", sorted(map(str, Q.labels)))
print("det preserved:", bowen_franks(Q).det == bowen_franks(gm).det)
Q2, conj = out_split_conjugacy(gm, 0, [[0], [1]])
y = conj(x)
print("conjugacy image of (01)^inf:", y)
print("conjugacy commutes with shift:", conj(x.shift(1)) == y.shift(1))
