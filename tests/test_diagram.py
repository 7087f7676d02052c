import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldskein.diagram import (ClassicalCrossing, Diagram, DiagramError, ParseError,
                               VirtualCrossing, Wen, components,
                               disjoint_union, parse, parse_tangle,
                               serialize, serialize_tangle, validate, virtual_writhe,
                               wen_count, writhe)
from weldskein.moves import scramble

from conftest import CORPUS_TEXT


class TestValidate:
    def test_empty_diagram_ok(self):
        assert validate(Diagram()) == []

    def test_classical_kink_ok(self):
        d = Diagram(classical=(ClassicalCrossing(1, 'e1', 'e2', 'e2', 'e1'),))
        assert validate(d) == []

    def test_edge_used_twice_as_source(self):
        d = Diagram(classical=(
            ClassicalCrossing(1, 'a', 'x', 'b', 'x'),))
        problems = validate(d)
        assert any('2 times as source' in p for p in problems)
        assert any("'a'" in p or "'b'" in p for p in problems)

    def test_one_wen_circle_is_valid(self):
        # 'e' is once a source and once a target: the circle T1- and V1- leave
        assert validate(Diagram(wens=(Wen('e', 'e'),))) == []

    def test_tangle_boundary_counts(self):
        d = Diagram()
        assert validate(d, [('1', 'in', 'q'), ('2', 'out', 'q')]) == []
        assert validate(d, [('1', 'in', 'q')]) != []


class TestStatistics:
    def test_writhe_positive_hopf(self):
        assert writhe(parse(CORPUS_TEXT['hopf_pos'])) == 2

    def test_writhe_virtual_hopf(self):
        assert writhe(parse(CORPUS_TEXT['virtual_hopf'])) == 1

    def test_writhe_unknot(self):
        assert writhe(parse(CORPUS_TEXT['unknot'])) == 0

    def test_virtual_writhe(self):
        assert virtual_writhe(parse(CORPUS_TEXT['hopf_pos'])) == (0, 0)
        assert virtual_writhe(parse(CORPUS_TEXT['virtual_hopf'])) == (1, 1)

    def test_virtual_writhe_parity_after_v2(self):
        from weldskein.moves import MoveKind, apply_move, enumerate_sites
        d = parse(CORPUS_TEXT['virtual_hopf'])
        d2 = apply_move(d, enumerate_sites(d, MoveKind.V2_PLUS)[0])
        assert virtual_writhe(d2) == (3, 1)

    def test_components(self):
        assert components(parse(CORPUS_TEXT['hopf_pos'])) == 2
        assert components(parse(CORPUS_TEXT['trefoil'])) == 1
        assert components(parse(CORPUS_TEXT['unlink2'])) == 2
        assert components(parse(CORPUS_TEXT['hopf_plus_loop'])) == 3
        assert components(parse(CORPUS_TEXT['wen_circle'])) == 1

    def test_wen_count(self):
        assert wen_count(parse(CORPUS_TEXT['wen_hopf'])) == (1, 1)
        assert wen_count(parse(CORPUS_TEXT['wen_circle'])) == (2, 0)

    def test_stats_invariant_under_relabel_and_reorder(self):
        d = parse(CORPUS_TEXT['virtual_trefoil'])
        relabeled = Diagram(
            classical=tuple(ClassicalCrossing(
                c.sign, *('edge_' + e for e in
                          (c.over_in, c.over_out, c.under_in, c.under_out)))
                for c in reversed(d.classical)),
            virtual_x=tuple(VirtualCrossing(
                *('edge_' + e for e in (v.a_in, v.a_out, v.b_in, v.b_out)))
                for v in d.virtual_x),
            wens=d.wens, free_loops=d.free_loops)
        assert writhe(relabeled) == writhe(d)
        assert virtual_writhe(relabeled) == virtual_writhe(d)
        assert components(relabeled) == components(d)

    def test_disjoint_union_adds_stats(self):
        d1 = parse(CORPUS_TEXT['hopf_pos'])
        d2 = parse(CORPUS_TEXT['virtual_trefoil'])
        u = disjoint_union(d1, d2)
        assert validate(u) == []
        assert components(u) == components(d1) + components(d2)
        assert writhe(u) == writhe(d1) + writhe(d2)


class TestParsing:
    def test_hopf_roundtrip(self):
        text = CORPUS_TEXT['hopf_pos']
        d = parse(text)
        assert len(d.classical) == 2
        assert serialize(d) == text

    def test_loop(self):
        assert parse('loop\n').free_loops == 1

    def test_one_wen_circle_roundtrips(self):
        from weldskein.skein import CoefficientSystem, y_invariant
        d = parse('W a a\n')
        assert parse(serialize(d)) == d
        ext = CoefficientSystem.extended()
        three = parse('W a b\nW b c\nW c a\n')
        assert y_invariant(d, ext) == y_invariant(three, ext)
        assert y_invariant(d, ext).render() == '-2*s'

    def test_unknown_keyword_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse('loop\nQ 1 2\n')
        assert exc.value.line == 2

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse('X+ 1 2 3\n')

    def test_duplicate_slot_usage(self):
        with pytest.raises(ParseError):
            parse('X+ 1 2 3 4\nX+ 3 4 1 2\n')

    def test_comments_and_blanks_ignored(self):
        d = parse('# a circle\n\nloop  # trailing\n')
        assert d.free_loops == 1

    def test_corpus_roundtrips(self):
        for name, text in CORPUS_TEXT.items():
            d = parse(text)
            assert parse(serialize(d)) == d, name

    def test_random_diagram_roundtrips(self):
        base = parse(CORPUS_TEXT['wen_hopf'])
        for seed in range(12):
            d = scramble(base, seed=seed, n_moves=15, size_cap=12)
            assert parse(serialize(d)) == d

    def test_tangle_roundtrip(self):
        text = 'X+ e1 m m e2\nend 1 in e1\nend 2 out e2\n'
        t = parse_tangle(text)
        assert t.labels() == ('1', '2')
        from weldskein.diagram import serialize_tangle
        assert parse_tangle(serialize_tangle(t)) == t

    def test_tangle_direction_validated(self):
        with pytest.raises(ParseError):
            parse_tangle('end 1 sideways q\n')

    def test_diagram_parser_rejects_tangles(self):
        with pytest.raises(ParseError):
            parse('end 1 in q\n')


# -- parser fuzzing ---------------------------------------------------------------

KEYWORDS = ('X+', 'X-', 'V', 'W', 'L', 'loop', 'end', 'in', 'out')
LABELS = ('a', 'b', 'c', '1', '2', 'e1', 'm')
JUNK = st.text(st.characters(max_codepoint=0x2030), max_size=4)


def fuzz_lines():
    token = st.one_of(st.sampled_from(KEYWORDS), st.sampled_from(LABELS), JUNK)
    free = st.lists(token, max_size=6).map(' '.join)
    # well-formed vertex and endpoint lines over a few labels, so that some
    # texts parse, and lines with one argument too few or too many
    label = st.sampled_from(LABELS[:4])
    shaped = st.one_of(
        st.tuples(st.sampled_from(('X+', 'X-', 'V')), label, label, label, label),
        st.tuples(st.just('W'), label, label),
        st.tuples(st.just('end'), label, st.sampled_from(('in', 'out')), label),
        st.just(('loop',)),
    ).map(' '.join)
    arity = {'X+': 4, 'X-': 4, 'V': 4, 'W': 2, 'loop': 0, 'end': 3}
    misshaped = st.sampled_from(sorted(arity)).flatmap(
        lambda kw: st.sampled_from([n for n in (arity[kw] - 1, arity[kw] + 1) if n >= 0])
        .flatmap(lambda n: st.lists(label, min_size=n, max_size=n))
        .map(lambda args: ' '.join([kw, *args])))
    corpus = st.sampled_from([line for text in CORPUS_TEXT.values()
                              for line in text.splitlines()])
    line = st.one_of(free, shaped, misshaped, corpus)
    comment = st.one_of(st.just(''), JUNK.map(lambda junk: ' # ' + junk))
    return st.lists(st.tuples(line, comment).map(''.join), max_size=8)


@settings(max_examples=400, deadline=None)
@given(fuzz_lines(), st.sampled_from(['\n', '\r\n', '\n\n']))
def test_parsers_fail_cleanly_and_roundtrip(lines, sep):
    text = sep.join(lines)
    try:
        d = parse(text)
    except (ParseError, DiagramError):
        pass
    else:
        assert parse(serialize(d)) == d
    try:
        t = parse_tangle(text)
    except (ParseError, DiagramError):
        pass
    else:
        assert parse_tangle(serialize_tangle(t)) == t
