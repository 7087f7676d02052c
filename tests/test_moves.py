import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldskein.diagram import (parse, serialize, validate, virtual_writhe,
                               wen_count, writhe)
from weldskein.moves import (INSERTION_KINDS, MoveError, MoveKind, MoveSite,
                             _apply_unchecked, _insertion_count,
                             _insertion_site, apply_move, enumerate_sites,
                             scramble)
from weldskein.skein import CoefficientSystem, bracket, y_invariant

from conftest import CORPUS_TEXT
from scramble_digests import (CAPS, N_MOVES, SEEDS, case_key,
                              stored_digests, walks_digest)
from scramble_reference import (reference_apply, reference_scramble,
                                reference_sites)

WSYM = CoefficientSystem.welded()
EXT = CoefficientSystem.extended()
DIGESTS = stored_digests()

# A fixture exhibiting each removal/slide kind, with the family its
# invariance is tested under (wens need nu = 1).
FIXTURES = {
    MoveKind.R1A_MINUS: ('X+ 1 2 2 1\n', WSYM),
    MoveKind.R1B_MINUS: ('X- 1 2 2 1\n', WSYM),
    MoveKind.V1_MINUS: ('V 1 2 2 1\n', WSYM),
    MoveKind.T1_MINUS: (CORPUS_TEXT['wen_circle'], EXT),
    MoveKind.R2_MINUS: ('X+ p1 m2 p2 m1\nX- m2 p1 m1 p2\n', WSYM),
    MoveKind.V2_MINUS: ('V p1 m1 p2 m2\nV m1 p1 m2 p2\n', WSYM),
    MoveKind.R3: (CORPUS_TEXT['braid_link'], WSYM),
    MoveKind.V3: ('V A0 a1 B0 b1\nV a1 A0 S0 s1\nV b1 B0 s1 S0\n', WSYM),
    MoveKind.M: (CORPUS_TEXT['welded_mix'], WSYM),
    MoveKind.F1: ('X+ A0 a1 B0 b1\nX+ a1 A0 S0 s1\nV b1 B0 s1 S0\n', WSYM),
    MoveKind.T2: ('W w0 m\nV m w0 B0 B0\n', EXT),
    MoveKind.T3: ('W w0 m\nX+ o0 o0 m w0\n', EXT),
    MoveKind.T4: (CORPUS_TEXT['wen_flip_pair'], EXT),
}

BRACKET_INVARIANT = (MoveKind.V2_MINUS, MoveKind.V3, MoveKind.T2,
                     MoveKind.T3, MoveKind.M, MoveKind.R2_MINUS, MoveKind.R3,
                     MoveKind.F1)


class TestEnumerateSites:
    def test_single_edge_insertions_list_every_edge(self):
        d = parse(CORPUS_TEXT['kink_pos'])   # unknot diagram with 2 edges
        for kind in (MoveKind.R1A_PLUS, MoveKind.R1B_PLUS, MoveKind.V1_PLUS,
                     MoveKind.T1_PLUS):
            assert len(enumerate_sites(d, kind)) == 2

    def test_free_loop_offers_one_kink_site(self):
        d = parse(CORPUS_TEXT['unknot'])
        sites = enumerate_sites(d, MoveKind.R1A_PLUS)
        assert len(sites) == 1 and sites[0].variant == 'loop'

    def test_kinking_a_free_loop_round_trips(self):
        d = parse(CORPUS_TEXT['unknot'])
        y0 = y_invariant(d, WSYM)
        for kind, inverse in ((MoveKind.R1A_PLUS, MoveKind.R1A_MINUS),
                              (MoveKind.V1_PLUS, MoveKind.V1_MINUS)):
            d2 = apply_move(d, enumerate_sites(d, kind)[0])
            assert d2.free_loops == 0 and d2.size() == 1
            assert y_invariant(d2, WSYM) == y0
            d3 = apply_move(d2, enumerate_sites(d2, inverse)[0])
            assert d3 == d

    def test_pair_insertions_list_ordered_pairs(self):
        d = parse(CORPUS_TEXT['hopf_pos'])    # 4 edges
        assert len(enumerate_sites(d, MoveKind.R2_PLUS)) == 12
        assert len(enumerate_sites(d, MoveKind.V2_PLUS)) == 12

    def test_hopf_has_no_cancelling_pair(self):
        d = parse(CORPUS_TEXT['hopf_pos'])
        assert enumerate_sites(d, MoveKind.R2_MINUS) == []

    def test_constructed_r2_pair_found(self):
        d = parse(FIXTURES[MoveKind.R2_MINUS][0])
        assert len(enumerate_sites(d, MoveKind.R2_MINUS)) >= 1

    def test_deterministic_order(self):
        d = parse(CORPUS_TEXT['virtual_trefoil'])
        for kind in MoveKind:
            assert enumerate_sites(d, kind) == enumerate_sites(d, kind)


class TestApply:
    def test_r1a_plus_delta_and_invariance(self):
        d = parse(CORPUS_TEXT['kink_pos'])
        site = enumerate_sites(d, MoveKind.R1A_PLUS)[0]
        d2 = apply_move(d, site)
        assert writhe(d2) == writhe(d) + 1
        assert y_invariant(d2, WSYM) == y_invariant(d, WSYM)

    def test_r1b_plus_delta(self):
        d = parse(CORPUS_TEXT['kink_pos'])
        d2 = apply_move(d, enumerate_sites(d, MoveKind.R1B_PLUS)[0])
        assert writhe(d2) == writhe(d) - 1

    def test_v1_flips_virtual_parity(self):
        d = parse(CORPUS_TEXT['virtual_hopf'])
        d2 = apply_move(d, enumerate_sites(d, MoveKind.V1_PLUS)[0])
        assert virtual_writhe(d2)[1] != virtual_writhe(d)[1]
        assert y_invariant(d2, WSYM) == y_invariant(d, WSYM)

    def test_t4_writhe_delta(self):
        d = parse(FIXTURES[MoveKind.T4][0])
        for site in enumerate_sites(d, MoveKind.T4):
            d2 = apply_move(d, site)
            assert writhe(d2) - writhe(d) == (-2 if site.variant == 'out' else -2)
            assert wen_count(d2)[0] == wen_count(d)[0]

    def test_t1_round_trip_returns_original(self):
        d = parse(CORPUS_TEXT['hopf_pos'])
        site = enumerate_sites(d, MoveKind.T1_PLUS)[0]
        d2 = apply_move(d, site)
        assert wen_count(d2)[0] == 2
        removal = enumerate_sites(d2, MoveKind.T1_MINUS)
        assert removal
        d3 = apply_move(d2, removal[0])
        assert d3 == d     # inserted ids are dissolved back into the old edge

    def test_every_insertion_round_trips(self):
        pairs = ((MoveKind.R1A_PLUS, MoveKind.R1A_MINUS),
                 (MoveKind.R1B_PLUS, MoveKind.R1B_MINUS),
                 (MoveKind.V1_PLUS, MoveKind.V1_MINUS),
                 (MoveKind.R2_PLUS, MoveKind.R2_MINUS),
                 (MoveKind.V2_PLUS, MoveKind.V2_MINUS))
        d = parse(CORPUS_TEXT['virtual_hopf'])
        y0 = y_invariant(d, WSYM)
        for ins, rem in pairs:
            d2 = apply_move(d, enumerate_sites(d, ins)[-1])
            sites = enumerate_sites(d2, rem)
            assert sites, ins
            d3 = apply_move(d2, sites[0])
            assert y_invariant(d3, WSYM) == y0
            assert d3.size() == d.size()

    def test_stale_site_raises(self):
        d = parse(CORPUS_TEXT['hopf_pos'])
        site = enumerate_sites(d, MoveKind.R1A_PLUS)[0]
        other = parse(CORPUS_TEXT['unknot'])
        with pytest.raises(MoveError):
            apply_move(other, site)
        with pytest.raises(MoveError):
            apply_move(d, MoveSite(MoveKind.R2_MINUS, (0, 1)))

    @pytest.mark.parametrize('site', [
        MoveSite(MoveKind.R1A_PLUS, ('nope',)),
        MoveSite(MoveKind.T1_PLUS, ('1',), 'loop'),
        MoveSite(MoveKind.R2_PLUS, ('1', 'nope')),
        MoveSite(MoveKind.R2_PLUS, ('1', '1')),
        MoveSite(MoveKind.V2_PLUS, ('2', '2')),
        MoveSite(MoveKind.V2_PLUS, ('1',)),
        MoveSite(MoveKind.R1B_PLUS, (), 'loop'),
        MoveSite(MoveKind.V1_PLUS, (), 'loop'),
        MoveSite(MoveKind.R2_PLUS, (), 'loop'),
    ], ids=str)
    def test_stale_insertion_site_raises(self, site):
        d = parse(CORPUS_TEXT['hopf_pos'])      # edges 1-4, no free loop
        assert site not in enumerate_sites(d, site.kind)
        with pytest.raises(MoveError, match='does not match the diagram'):
            apply_move(d, site)

    def test_fresh_insertion_sites_apply(self):
        d = parse(CORPUS_TEXT['hopf_plus_loop'])
        for kind in INSERTION_KINDS:
            for site in enumerate_sites(d, kind):
                assert validate(apply_move(d, site)) == []

    def test_closed_strand_removal_makes_free_loop(self):
        # dissolving the only crossing of a kinked circle leaves a free loop
        d = parse(CORPUS_TEXT['kink_pos'])
        d2 = apply_move(d, enumerate_sites(d, MoveKind.R1A_MINUS)[0])
        assert d2.free_loops == 1 and not d2.classical


class TestInvariancePerKind:
    @pytest.mark.parametrize('kind', sorted(FIXTURES, key=str))
    def test_y_invariant_under_move(self, kind):
        text, cs = FIXTURES[kind]
        d = parse(text)
        sites = enumerate_sites(d, kind)
        assert sites, f'fixture exhibits no {kind} site'
        y0 = y_invariant(d, cs)
        for site in sites:
            d2 = apply_move(d, site)
            assert validate(d2) == []
            assert y_invariant(d2, cs) == y0, (kind, site)

    @pytest.mark.parametrize('kind', sorted(BRACKET_INVARIANT, key=str))
    def test_bracket_alone_invariant(self, kind):
        text, cs = FIXTURES[kind]
        d = parse(text)
        b0 = bracket(d, cs)
        for site in enumerate_sites(d, kind):
            assert bracket(apply_move(d, site), cs) == b0, (kind, site)

    def test_bracket_correction_kinds(self):
        # R1a/R1b/V1/T4 change the bracket by the documented unit
        from weldskein.algebra import DeltaFraction, Polynomial
        d = parse(CORPUS_TEXT['virtual_hopf'])
        base = bracket(d, WSYM)
        d2 = apply_move(d, enumerate_sites(d, MoveKind.R1A_PLUS)[0])
        assert bracket(d2, WSYM) == DeltaFraction(WSYM.omega()) * base
        d2 = apply_move(d, enumerate_sites(d, MoveKind.R1B_PLUS)[0])
        assert bracket(d2, WSYM) == WSYM.omega_inverse() * base
        d2 = apply_move(d, enumerate_sites(d, MoveKind.V1_PLUS)[0])
        assert bracket(d2, WSYM) == DeltaFraction(Polynomial.var('r')) * base
        t4 = parse(FIXTURES[MoveKind.T4][0])
        site = [s for s in enumerate_sites(t4, MoveKind.T4)
                if s.variant == 'out'][0]
        flipped = apply_move(t4, site)
        omega_ext = EXT.omega()
        assert bracket(t4, EXT) \
            == DeltaFraction(omega_ext * omega_ext) * bracket(flipped, EXT)


class TestScramble:
    def test_zero_moves_is_identity(self):
        d = parse(CORPUS_TEXT['hopf_pos'])
        assert scramble(d, seed=9, n_moves=0) == d

    def test_equal_seeds_equal_diagrams(self):
        d = parse(CORPUS_TEXT['virtual_trefoil'])
        assert scramble(d, 123, 30, 12) == scramble(d, 123, 30, 12)

    def test_soundness_along_walk(self):
        d = parse(CORPUS_TEXT['wen_hopf'])
        current = d
        import random
        rng = random.Random(5)
        for step in range(60):
            current = scramble(current, seed=rng.randrange(10 ** 6), n_moves=1,
                               size_cap=12)
            assert validate(current) == []

    def test_unknot_scrambles_keep_value(self):
        d = parse(CORPUS_TEXT['kink_pos'])
        y0 = y_invariant(d, WSYM)
        for seed in range(25):
            s = scramble(d, seed=seed, n_moves=40, size_cap=12, wen_moves=False)
            assert y_invariant(s, WSYM) == y0, seed

    def test_size_cap_biases_removals(self):
        d = parse(CORPUS_TEXT['hopf_pos'])
        big = scramble(d, seed=7, n_moves=120, size_cap=6)
        assert big.size() <= 24   # soft cap keeps growth bounded

    def test_size_cap_bounds_growth(self):
        # seed 370 on hopf_pos reaches the fallback group above the cap
        assert scramble(parse(CORPUS_TEXT['hopf_pos']), seed=370, n_moves=15,
                        size_cap=6).size() <= 8
        for name, text in CORPUS_TEXT.items():
            d = parse(text)
            bound = max(d.size(), 6) + 2
            for seed in range(200):
                s = scramble(d, seed=seed, n_moves=15, size_cap=6)
                assert s.size() <= bound, (name, seed, s.size())

    def test_wen_free_walk_stays_wen_free(self):
        d = parse(CORPUS_TEXT['hopf_pos'])
        for seed in range(10):
            s = scramble(d, seed=seed, n_moves=30, size_cap=12, wen_moves=False)
            assert not s.wens


class TestReferenceOracle:
    """The counted and edge-indexed sites and the shape-by-shape rewrites
    against the nested-loop lists and kind-by-kind rewrites of
    ``scramble_reference``."""

    # the walks of seeds 0-199 per (diagram, cap, wen moves), held to the
    # reference's digests (scramble_digests.py); a mismatch re-runs the
    # reference for that case and names the first differing seed
    @pytest.mark.parametrize('name', sorted(CORPUS_TEXT))
    def test_scramble_matches_reference(self, name):
        d = parse(CORPUS_TEXT[name])
        for size_cap in CAPS:
            for wen_moves in (True, False):
                case = case_key(name, size_cap, wen_moves)
                if walks_digest(scramble, d, size_cap, wen_moves) \
                        == DIGESTS[case]:
                    continue
                seed = next((seed for seed in SEEDS
                             if scramble(d, seed, N_MOVES, size_cap, wen_moves)
                             != reference_scramble(d, seed, N_MOVES, size_cap,
                                                   wen_moves)), None)
                pytest.fail(f'{case}: walk of seed {seed} differs from the '
                            'reference' if seed is not None else
                            f'{case}: stored digest differs from the reference')

    def test_digests_are_the_reference(self):
        # the cheapest case, re-run through the frozen reference itself
        case = case_key('wen_circle', 6, True)
        d = parse(CORPUS_TEXT['wen_circle'])
        assert walks_digest(reference_scramble, d, 6, True) == DIGESTS[case]
        assert len(DIGESTS) == len(CORPUS_TEXT) * len(CAPS) * 2

    # the corpus, plus the fixtures: scrambles of the corpus alone rarely
    # show an F1 or V3 site
    STARTS = (sorted(CORPUS_TEXT.values())
              + sorted(text for text, _ in FIXTURES.values()))

    def test_apply_matches_reference(self):
        # every site of every kind on the starts and three scrambles of
        # each; of the E(E-1) pair insertions, every 7th
        seen = set()
        for text in self.STARTS:
            d0 = parse(text)
            for d in [d0] + [scramble(d0, seed, 12, 12, seed != 1)
                             for seed in range(3)]:
                for kind in MoveKind:
                    sites = enumerate_sites(d, kind)
                    if kind in (MoveKind.R2_PLUS, MoveKind.V2_PLUS):
                        sites = sites[::7]
                    for site in sites:
                        assert serialize(_apply_unchecked(d, site)) \
                            == serialize(reference_apply(d, site)), site
                        seen.add((kind, site.variant[:1]))
        # every kind ran, and both sides of every triangle slide
        assert {kind for kind, _ in seen} == set(MoveKind)
        assert all((kind, side) in seen for side in 'LR' for kind in
                   (MoveKind.R3, MoveKind.V3, MoveKind.M, MoveKind.F1))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(STARTS), st.integers(0, 10 ** 6),
           st.integers(0, 30), st.sampled_from((6, 12)), st.booleans())
    def test_sites_match_reference(self, text, seed, n_moves, size_cap,
                                   wen_moves):
        d = scramble(parse(text), seed, n_moves, size_cap, wen_moves)
        edges = d.edges()
        for kind in MoveKind:
            sites = enumerate_sites(d, kind)
            assert sites == reference_sites(d, kind), kind
            if kind in INSERTION_KINDS:
                assert _insertion_count(kind, edges, d.free_loops) \
                    == len(sites)
                assert [_insertion_site(kind, edges, i)
                        for i in range(len(sites))] == sites
