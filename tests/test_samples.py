import os
import random
import subprocess
import sys

import pytest

import sftkit
from sftkit.errors import InvalidCode
from sftkit.points import EvPerPoint
from sftkit.presentation import Presentation, full_shift, golden_mean
from sftkit.samples import (
    random_bipoint,
    random_bipoints,
    random_prefix_exchange,
)


def test_random_bipoint_on_reducible_presentation():
    # loops at 0 and 1 and the arc 0 -> 1: no walk leads from 1 back to 0
    P = Presentation([0, 1], [(0, 0), (1, 1), (0, 1)])
    rng = random.Random(0)
    points = [random_bipoint(rng, P) for _ in range(200)]
    assert all(not (bx.left_cycle == (1,) and bx.right_cycle == (0,))
               for bx in points)
    assert any(bx.middle or bx.left_cycle != bx.right_cycle
               for bx in points)


def test_random_bipoints_draws_as_repeated_random_bipoint(monkeypatch):
    listed = []
    cycles = Presentation.cycles
    monkeypatch.setattr(Presentation, "cycles",
                        lambda self, *a: listed.append(a) or cycles(self, *a))
    for P in (full_shift(2), full_shift(3), golden_mean()):
        one, many = random.Random(9), random.Random(9)
        listed.clear()
        assert random_bipoints(many, P, 40) == \
            [random_bipoint(one, P) for _ in range(40)]
        assert len(listed) == 1 + 40


def test_random_prefix_exchange_without_a_nontrivial_pairing_raises():
    # with two expansions on 0 -> 1 -> 0 no two code words end alike
    P = Presentation([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(InvalidCode):
        random_prefix_exchange(random.Random(0), P)


def test_random_prefix_exchange_on_loop_into_loop(loop_into_loop):
    P = loop_into_loop
    for seed in range(5):
        h = random_prefix_exchange(random.Random(seed), P)
        points = [EvPerPoint.make(P, *P.complete_to_cycle_word(w))
                  for w in P.language(4)]
        assert any(h(x) != x for x in points)


def test_random_cylinder_function_does_not_depend_on_the_hash_seed():
    """Words are drawn in P.words(d) order, not in the order of a set of
    str-labelled words, which moves with PYTHONHASHSEED."""
    code = ("import random\n"
            "from sftkit.presentation import Presentation\n"
            "from sftkit.samples import random_cylinder_function\n"
            "abc = 'abc'\n"
            "P = Presentation(abc, [(u, v) for u in abc for v in abc])\n"
            "f = random_cylinder_function(random.Random(5), P, max_depth=2)\n"
            "print(f.depth, sorted(f.table.items()))\n")
    src = os.path.dirname(os.path.dirname(sftkit.__file__))
    tables = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        tables.add(proc.stdout)
    assert len(tables) == 1
    assert tables.pop().startswith("2 ")


def test_random_bipoints_without_a_cycle_of_length_four_or_less():
    """With no cycle of length <= max_cycle the points are drawn on the
    cycles of the least length that has one: a 5-cycle, and a reducible
    graph of a 5-cycle with an arc into a 6-cycle."""
    ring = Presentation(range(5), [(i, (i + 1) % 5) for i in range(5)])
    two = Presentation(range(11), [(i, (i + 1) % 5) for i in range(5)]
                       + [(4, 5)]
                       + [(5 + i, 5 + (i + 1) % 6) for i in range(6)])
    for P in (ring, two):
        points = random_bipoints(random.Random(3), P, 40)
        assert {len(c) for bx in points
                for c in (bx.left_cycle, bx.right_cycle)} == {5}
