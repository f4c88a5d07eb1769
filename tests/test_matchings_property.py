"""Property tests of the matching DP `transfer._matchings` itself, against
`brute_matchings`, which lists every matching of tails into heads one by
one and applies the rules the DP encodes: a tail with right bit 0 must
take an edge, a head with left bit 0 must be taken."""
import pytest

from circperm.transfer import _matchings

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WEIGHTS = [-2, -1, 0, 1, 3]


def brute_matchings(width, out, rbits, lbits):
    """Sum of the weight products of the matchings, per (left mask, right
    mask): tail t takes none or one of its edges out[t] = [(head, weight)],
    each into a distinct head."""
    counts: dict[tuple[int, int], object] = {}

    def walk(t, taken, right, weight):
        if t == len(out):
            if all(lbits[h] or h in taken for h in range(len(lbits))):
                left = sum(lbits[h] for h in taken)
                counts[left, right] = counts.get((left, right), 0) + weight
            return
        if rbits[t]:
            walk(t + 1, taken, right, weight)
        for h, wt in out[t]:
            if h not in taken:
                walk(t + 1, taken | {h}, right | rbits[t], weight * wt)

    walk(0, frozenset(), 0, 1)
    return counts


@st.composite
def matching_problems(draw):
    """(width, out, rbits, lbits): at most 6 tails and 6 heads, each tail
    with up to 4 edges (repeats allowed) of weights from _WEIGHTS; right
    bits 0 or the tail's own bit, left bits 0 or distinct bits below
    1 << width."""
    nt, nh = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    width = draw(st.integers(0, nh))
    edges = st.tuples(st.integers(0, max(nh - 1, 0)), st.sampled_from(_WEIGHTS))
    out = [draw(st.lists(edges, max_size=4 if nh else 0)) for _ in range(nt)]
    rbits = [draw(st.sampled_from((0, 1 << t))) for t in range(nt)]
    lbits = [1 << i if i < width and draw(st.booleans()) else 0
             for i in draw(st.permutations(range(nh)))]
    return width, out, rbits, lbits


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(matching_problems())
# the shape of build_alpha's call: width 0, every head (new vertex) taken
@hypothesis.example((0, [[(0, 1)], [(0, 1)], [(0, 1)]], [1, 2, 4], [0]))
@hypothesis.example((0, [[(0, 3), (1, -1)], [(1, 1), (0, -2)], [(1, 1)]],
                     [1, 2, 4], [0, 0]))
# no slots (bar_s = 0): every tail must take an edge
@hypothesis.example((0, [[(0, 1), (1, 3)], [(0, -1), (1, 1)]], [0, 0], [0, 0]))
# a head no tail reaches but with a left bit: it stays untaken
@hypothesis.example((2, [[(0, 1), (1, 1)], [(1, 3)]], [1, 2], [0, 1, 2]))
# the census shape: interior tails must take an edge, window tails need not
@hypothesis.example((2, [[(0, 1), (1, 1), (2, 1)], [(1, 1), (2, 1), (3, 1)],
                         [(2, 1), (3, 1)], [(3, 1)]],
                     [0, 0, 2, 1], [1, 2, 0, 0]))
def test_matchings_equals_the_brute_force_listing(problem):
    width, out, rbits, lbits = problem
    assert _matchings(width, out, rbits, lbits) == brute_matchings(*problem)


def test_an_unreachable_head_that_must_be_taken_gives_nothing():
    """Head 2 is reached by no tail and has no left bit."""
    assert _matchings(2, [[(0, 1), (1, 1)], [(1, 3)]], [1, 2], [1, 2, 0]) == {}
