import itertools
import random

import pytest

from weldskein.statesum import smoothing_histogram


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
