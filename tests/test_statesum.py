import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldskein.algebra import DeltaFraction
from weldskein.diagram import parse
from weldskein.moves import scramble
from weldskein.skein import CoefficientSystem, State, bracket, state_value
from weldskein.statesum import smoothing_histogram

from conftest import CORPUS_TEXT


def random_case(rng):
    n = rng.randrange(0, 6)
    m = rng.randrange(1, 9)
    nodes = [rng.randrange(m) for _ in range(4 * n)]
    signs = [rng.choice((1, -1)) for _ in range(n)]
    boundary = [rng.randrange(m) for _ in range(rng.choice((0, 0, 1, 2, 4)))]
    return m, nodes, signs, boundary


def brute_force(m, nodes, signs, boundary):
    """Resolve every state on its own, with a fresh union-find each time."""
    hist = {}
    for digits in itertools.product(range(3), repeat=len(signs)):
        parent = list(range(m))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        counts = [0, 0, 0, 0]
        for j, k in enumerate(digits):
            oi, oo, ui, uo = nodes[4 * j:4 * j + 4]
            joins = (((oi, oo), (ui, uo)), ((oi, uo), (ui, oo)),
                     ((oi, ui), (oo, uo)))[k]
            for u, v in joins:
                parent[find(u)] = find(v)
            if k < 2:
                counts[k + (0 if signs[j] > 0 else 2)] += 1
        roots = {find(i) for i in range(m)}
        key = tuple(counts)
        if boundary:
            open_roots = [find(b) for b in boundary]
            classes = sorted(tuple(i for i, r in enumerate(open_roots) if r == root)
                             for root in set(open_roots))
            key += (len(roots - set(open_roots)), tuple(classes))
        else:
            key += (len(roots),)
        hist[key] = hist.get(key, 0) + 1
    return hist


def test_histogram_matches_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        case = random_case(rng)
        assert smoothing_histogram(*case) == brute_force(*case), case


def test_edge_cases_match_brute_force():
    cases = [
        (0, [], [], []),                       # empty diagram
        (3, [], [], []),                       # three crossing-free loops
        (2, [], [], [0, 1, 1]),                # boundary only, no crossing
        (1, [0, 0, 0, 0], [1], [0, 0]),        # a kink closed by its strand
        (2, [0, 1, 1, 0], [-1], [0, 1]),       # an open crossing
    ]
    for case in cases:
        assert smoothing_histogram(*case) == brute_force(*case), case


def test_state_counts_are_exhaustive():
    rng = random.Random(1)
    for _ in range(50):
        m, nodes, signs, boundary = random_case(rng)
        hist = smoothing_histogram(m, nodes, signs, boundary)
        assert sum(hist.values()) == 3 ** len(signs)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        smoothing_histogram(2, [0, 1, 1], [1])
    with pytest.raises(ValueError):
        smoothing_histogram(2, [0, 1, 1, 2], [1])
    with pytest.raises(ValueError):
        smoothing_histogram(2, [0, 1, 1, 0], [1], [2])


@st.composite
def kernel_cases(draw):
    """Up to 6 crossings on up to 10 nodes: nodes repeat within and across
    crossings, some stay untouched, and 0-4 boundary nodes may repeat."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(1, 10))
    node = st.integers(0, m - 1)
    nodes = draw(st.lists(node, min_size=4 * n, max_size=4 * n))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    boundary = draw(st.lists(node, max_size=4))
    return m, nodes, signs, boundary


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_histogram_property_matches_brute_force(case):
    assert smoothing_histogram(*case) == brute_force(*case)


def test_crossing_order_does_not_matter():
    rng = random.Random(5)
    for _ in range(200):
        m, nodes, signs, boundary = random_case(rng)
        perm = list(range(len(signs)))
        rng.shuffle(perm)
        shuffled = [v for j in perm for v in nodes[4 * j:4 * j + 4]]
        moved = [signs[j] for j in perm]
        assert smoothing_histogram(m, shuffled, moved, boundary) \
            == smoothing_histogram(m, nodes, signs, boundary), perm


def test_bracket_is_the_sum_of_state_values():
    # scrambled corpus diagrams with virtual crossings or wens, <= 7 crossings
    generic = CoefficientSystem.generic()
    sizes = set()
    for name in ('wen_hopf', 'wen_flip_pair', 'welded_mix', 'virtual_trefoil',
                 'virtual_hopf'):
        for seed in range(3):
            d = scramble(parse(CORPUS_TEXT[name]), seed=seed, n_moves=12,
                         size_cap=9)
            if len(d.classical) > 7 or not (d.virtual_x or d.wens):
                continue
            sizes.add(len(d.classical))
            total = DeltaFraction.from_int(0)
            for digits in itertools.product(range(3), repeat=len(d.classical)):
                total = total + state_value(d, State.from_digits(digits), generic)
            assert bracket(d, generic) == total, (name, seed)
    assert max(sizes) == 7
