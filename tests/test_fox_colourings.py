"""Fox p-colourings hold the move engine to the knot type, not only to Y.

Y reads the components and linking numbers, so it cannot tell a rewrite
that unknots the trefoil, or does F2 where F1 was asked for.  The number of
Fox colourings (``fox_colourings``) can: it is invariant under every
wen-free move and changes under F2.  The walks take one scramble step at a
time, so every intermediate diagram is checked, and each step must also
leave a diagram that ``validate`` passes, insertions at the size cap
included.
"""
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldskein.diagram import parse, validate
from weldskein.moves import (WEN_KINDS, MoveKind, _apply_unchecked,
                             enumerate_sites, scramble)

from conftest import CORPUS_TEXT, WEN_FREE
from fox_colourings import colouring_count

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / 'perfbench'))
import inputs       # noqa: E402

PRIMES = (3, 5, 7)

# the wen-free corpus, and slide sites that corpus walks rarely show
STARTS = sorted(CORPUS_TEXT[name] for name in WEN_FREE) + [
    'X+ A0 a1 B0 b1\nX+ a1 A0 S0 s1\nV b1 B0 s1 S0\n',       # F1
    'V A0 a1 B0 b1\nV a1 A0 S0 s1\nV b1 B0 s1 S0\n',         # V3
]


def counts(d):
    return [colouring_count(d, p) for p in PRIMES]


def walk(d, seed, n_moves, size_cap, wen_moves):
    """The diagrams of a scramble walk, one move at a time."""
    rng = random.Random(seed)
    for _ in range(n_moves):
        d = scramble(d, rng.randrange(2 ** 32), 1, size_cap, wen_moves)
        yield d


@pytest.mark.parametrize('name, expected', [
    ('unknot', [3, 5, 7]), ('unlink2', [9, 25, 49]),
    ('kink_pos', [3, 5, 7]), ('hopf_pos', [3, 5, 7]),
    ('trefoil', [9, 5, 7]), ('virtual_trefoil', [3, 5, 7]),
    ('braid_link', [9, 25, 49]), ('welded_mix', [9, 25, 49])])
def test_counts_by_hand(name, expected):
    # the trefoil's determinant is 3: nine 3-colourings, only the constant
    # ones for p = 5 and 7.  The Hopf link's arcs x, y meet 2x = 2y, so
    # only constants.  In braid_link (and welded_mix) the strand through
    # A0 is never under and forces B's colour, while S's two arcs meet one
    # equation twice: p^2.
    assert counts(parse(CORPUS_TEXT[name])) == expected


def test_wens_are_refused():
    with pytest.raises(ValueError, match='wen-free'):
        colouring_count(parse(CORPUS_TEXT['wen_hopf']), 3)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(STARTS), st.integers(0, 2 ** 32)),
       st.integers(0, 2 ** 32), st.integers(1, 15), st.sampled_from((6, 12)))
def test_wen_free_walks_keep_the_colourings(start, seed, n_moves, size_cap):
    if isinstance(start, int):
        rng = random.Random(start)
        start = inputs.rows_to_text(inputs.braid_closure(
            rng, rng.randint(2, 4), rng.randint(3, 6), rng.randint(0, 3), 0))
    d = parse(start)
    expected = counts(d)
    for step, current in enumerate(walk(d, seed, n_moves, size_cap, False)):
        assert counts(current) == expected, step


def test_every_wen_free_site_keeps_the_colourings():
    # every site of every wen-free kind on the starts and one scramble of
    # each (of the E(E-1) pair insertions, every 11th): a walk draws a
    # slide of one kind only now and then
    seen = set()
    for text in STARTS:
        d0 = parse(text)
        for d in (d0, scramble(d0, 0, 12, 12, False)):
            expected = counts(d)
            for kind in MoveKind:
                if kind in WEN_KINDS:
                    continue
                sites = enumerate_sites(d, kind)
                if kind in (MoveKind.R2_PLUS, MoveKind.V2_PLUS):
                    sites = sites[::11]
                for site in sites:
                    assert counts(_apply_unchecked(d, site)) == expected, site
                    seen.add(kind)
    assert seen == set(MoveKind) - set(WEN_KINDS)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CORPUS_TEXT.values()) + STARTS),
       st.integers(0, 2 ** 32), st.integers(0, 8), st.booleans())
def test_walks_stay_valid_at_the_size_cap(start, seed, size_cap, wen_moves):
    d = parse(start)
    bound = max(d.size(), size_cap) + 2
    for current in walk(d, seed, 20, size_cap, wen_moves):
        assert validate(current) == []
        assert current.size() <= bound
