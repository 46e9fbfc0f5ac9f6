import pytest

from sftkit import full_shift, golden_mean, word
from sftkit.presentation import Presentation


def simple_cycles(P):
    """Simple cycles (no repeated vertex) of P as vertex words, one per
    rotation class.  Their number grows exponentially with the vertex count,
    so they serve only as an oracle for cycle questions that sftkit answers
    on the block graph."""
    out = []
    for start in P.labels:
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            for b in P.out_neighbors(v):
                if b == start:
                    out.append(path)
                elif P.index(b) > P.index(start) and b not in path:
                    stack.append((b, path + (b,)))
    return out


@pytest.fixture
def full2():
    return full_shift(2)


@pytest.fixture
def full3():
    return full_shift(3)


@pytest.fixture
def gm():
    return golden_mean()


@pytest.fixture
def single_loop():
    return Presentation(["a"], [("a", "a")])


@pytest.fixture
def std_exchange(full2):
    """The running example: 0 -> 10, 10 -> 0, 11 -> 11 on the full 2-shift."""
    from sftkit import prefix_exchange
    return prefix_exchange(full2, {word("0"): word("10"),
                                   word("10"): word("0"),
                                   word("11"): word("11")})


@pytest.fixture
def loop_into_loop():
    """a -> a, a -> b, b -> b: a loop leading into an isolated loop, the
    countable shift {a^n b^inf} plus a^inf."""
    return Presentation(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")])


@pytest.fixture
def rich_into_permutation():
    """The full 2-shift on {0, 1} leading into the permutation component
    2 -> 3 -> 4 -> 2."""
    return Presentation(range(5), [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2),
                                   (2, 3), (3, 4), (4, 2)])


@pytest.fixture
def two_rich_components():
    """Full 2-shifts on {0, 1} and on {2, 3}, joined by the arc 1 -> 2."""
    return Presentation(range(4), [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2),
                                   (2, 2), (2, 3), (3, 2), (3, 3)])
