"""The generalized Reidemeister moves as local rewrites on abstract diagrams.

All patterns are transcribed in the braid-like position (strands oriented
the same way), which suffices by the Markov-style reduction; see
docs/abstract-codes.md for why pair insertions between arbitrary edges of an
abstract code are sound.

Insertion kinds apply to edges; removal and slide kinds match exact local
wiring.  Every application returns a fresh valid diagram.

The rewrites come in a few shapes: a kink (R1, V1, T1) or a cancelling pair
(R2, V2) inserted on edges or dissolved, a triangle slide of one strand
across a crossing (R3, V3, M, F1, which differ only in which crossings are
virtual), and the wen moves T2-T4.  A ``_Builder`` records each rewrite as
edits to the source diagram; it finds consumers through the same edge index
that matches removal and slide sites.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum

from weldskein.diagram import (ClassicalCrossing, Diagram, VirtualCrossing,
                               Wen, check_valid)


class MoveError(ValueError):
    """Raised when a site no longer matches the diagram it came from."""


class MoveKind(str, Enum):
    R1A_PLUS = 'r1a+'
    R1A_MINUS = 'r1a-'
    R1B_PLUS = 'r1b+'
    R1B_MINUS = 'r1b-'
    R2_PLUS = 'r2+'
    R2_MINUS = 'r2-'
    R3 = 'r3'
    V1_PLUS = 'v1+'
    V1_MINUS = 'v1-'
    V2_PLUS = 'v2+'
    V2_MINUS = 'v2-'
    V3 = 'v3'
    M = 'm'
    F1 = 'f1'
    T1_PLUS = 't1+'
    T1_MINUS = 't1-'
    T2 = 't2'
    T3 = 't3'
    T4 = 't4'

    def __str__(self):
        return self.value


INSERTION_KINDS = (MoveKind.R1A_PLUS, MoveKind.R1B_PLUS, MoveKind.V1_PLUS,
                   MoveKind.T1_PLUS, MoveKind.R2_PLUS, MoveKind.V2_PLUS)
REMOVAL_KINDS = (MoveKind.R1A_MINUS, MoveKind.R1B_MINUS, MoveKind.V1_MINUS,
                 MoveKind.T1_MINUS, MoveKind.R2_MINUS, MoveKind.V2_MINUS)
SLIDE_KINDS = (MoveKind.R3, MoveKind.V3, MoveKind.M, MoveKind.F1,
               MoveKind.T2, MoveKind.T3, MoveKind.T4)


@dataclass(frozen=True)
class MoveSite:
    kind: MoveKind
    anchors: tuple            # edge ids (insertions) or vertex indices
    variant: str = ''


# -- rewrite plumbing ----------------------------------------------------------

# the in-slot fields of each vertex kind, by strand (the slot of _edge_index)
_IN_FIELDS = {'c': ('over_in', 'under_in'), 'v': ('a_in', 'b_in'),
              'w': ('w_in',)}


class _Builder:
    """One rewrite of a diagram, recorded as edits to it.

    The source diagram is read, never copied: the builder records the
    vertices it removes and adds and the renamed in-slots of vertices that
    survive, and finds an edge's consumer through ``_edge_index``.  Renames
    only touch vertices of the source, so the calls may come in any order.
    """

    def __init__(self, d: Diagram):
        self.rows = {'c': d.classical, 'v': d.virtual_x, 'w': d.wens}
        self.into, self.out = _edge_index(d)
        self.removed: dict[str, set[int]] = {vk: set() for vk in 'cvw'}
        self.added: dict[str, list] = {vk: [] for vk in 'cvw'}
        # vertex kind -> index -> {in-slot field: new edge}
        self.renamed: dict[str, dict] = {vk: {} for vk in 'cvw'}
        self.free_loops = d.free_loops
        self.links: list[tuple[str, str]] = []
        self._counter = 0

    def fresh(self) -> str:
        while True:
            name = f'n{self._counter}'
            self._counter += 1
            if name not in self.into and name not in self.out:
                return name

    def remove(self, vk: str, i: int):
        """Drop vertex ``i`` of kind ``vk`` ('c', 'v' or 'w'); returns it."""
        self.removed[vk].add(i)
        return self.rows[vk][i]

    def add(self, vk: str, *slots: str, sign: int = 0) -> None:
        """Add a vertex of kind ``vk``; ``sign`` is read only for 'c'."""
        if vk == 'c':
            self.added[vk].append(ClassicalCrossing(sign, *slots))
        else:
            self.added[vk].append((VirtualCrossing if vk == 'v' else Wen)(*slots))

    def add_classical(self, sign, oi, oo, ui, uo) -> None:
        self.add('c', oi, oo, ui, uo, sign=sign)

    def link(self, consumed: str, produced: str) -> None:
        """Record that the strand arriving on ``consumed`` continues as
        ``produced`` through a dissolved vertex."""
        self.links.append((consumed, produced))

    def rewire_consumer(self, old: str, new: str) -> None:
        """Make the surviving vertex that consumes ``old`` consume ``new``."""
        vk, i, slot = self.into.get(old, _NO_VERTEX)
        if vk and i not in self.removed[vk]:
            fields = self.renamed[vk].setdefault(i, {})
            name = _IN_FIELDS[vk][slot]
            if name not in fields:
                fields[name] = new
                return
        raise MoveError(f'no live consumer of edge {old!r}')

    def finalize(self) -> Diagram:
        nxt = dict(self.links)
        if len(nxt) != len(self.links):
            raise MoveError('conflicting pass-through links')
        produced = set(nxt.values())
        for start in sorted(set(nxt) - produced):
            end = nxt.pop(start)
            while end in nxt:
                end = nxt.pop(end)
            self.rewire_consumer(end, start)
        # whatever remains is a union of closed cycles through dissolved vertices
        while nxt:
            first = next(iter(nxt))
            e = nxt.pop(first)
            while e != first:
                e = nxt.pop(e)
            self.free_loops += 1
        kept = []
        for vk in 'cvw':
            rows, removed, renamed = (self.rows[vk], self.removed[vk],
                                      self.renamed[vk])
            if removed or renamed:
                rows = tuple(replace(v, **renamed[i]) if i in renamed else v
                             for i, v in enumerate(rows) if i not in removed)
            kept.append(rows + tuple(self.added[vk]))
        return Diagram(*kept, free_loops=self.free_loops)


def _virtual_views(v: VirtualCrossing):
    """Both strand-role readings of a virtual crossing."""
    return ((v.a_in, v.a_out, v.b_in, v.b_out),
            (v.b_in, v.b_out, v.a_in, v.a_out))


# -- site enumeration -----------------------------------------------------------
#
# Insertion sites are counted, not listed: site i of a single-edge kind is
# the i-th edge of ``d.edges()`` (or the free-loop site at i = E), site i of
# a pair kind is the ordered pair divmod(i, E - 1) names.  Removal and slide
# kinds are matched by following edges through ``_edge_index``.

_EDGE_PAIR_KINDS = (MoveKind.R2_PLUS, MoveKind.V2_PLUS)


def _insertion_count(kind: MoveKind, edges: list[str], free_loops: int) -> int:
    """How many sites an insertion kind has on a diagram with ``edges``."""
    n = len(edges)
    if kind in _EDGE_PAIR_KINDS:
        return n * (n - 1)
    return n + (1 if free_loops else 0)


def _insertion_site(kind: MoveKind, edges: list[str], i: int) -> MoveSite:
    """The ``i``-th site of an insertion kind, in ``enumerate_sites`` order."""
    n = len(edges)
    if kind in _EDGE_PAIR_KINDS:
        q, r = divmod(i, n - 1)     # every edge but edges[q], in order
        return MoveSite(kind, (edges[q], edges[r + (r >= q)]))
    if i == n:
        # a crossing-free circle has no edges; kink it directly
        return MoveSite(kind, (), 'loop')
    return MoveSite(kind, (edges[i],))


_NO_VERTEX = ('', -1, -1)
_last_index: tuple = (None, None)


def _edge_index(d: Diagram):
    """Two maps, edge -> (vertex kind, index, slot), for the vertex that
    consumes the edge and the one that produces it.

    The vertex kind is 'c', 'v' or 'w'; slot 0 is the over strand of a
    classical crossing or the a strand of a virtual one, slot 1 the under
    or b strand, and a wen has slot 0.  So a virtual crossing consuming
    ``e`` at slot s has ``_virtual_views(v)[s][0] == e`` and
    ``_virtual_views(v)[1 - s][2] == e``; producing it, ``[s][1]`` and
    ``[1 - s][3]``.  A valid diagram has one of each per edge.

    A scramble step lists every removal and slide kind on one diagram and
    then rewrites it, and ``_Builder`` reads the index too (to find the
    consumer of an edge it splits or rejoins, and to avoid existing names),
    so the index of the last diagram asked for is kept and reused while the
    same object is asked for again.  Diagrams are immutable, so the kept
    index never goes stale and no caller can see it.
    """
    global _last_index
    last, maps = _last_index
    if last is d:
        return maps
    into: dict[str, tuple] = {}
    out: dict[str, tuple] = {}
    for i, c in enumerate(d.classical):
        into[c.over_in] = ('c', i, 0)
        into[c.under_in] = ('c', i, 1)
        out[c.over_out] = ('c', i, 0)
        out[c.under_out] = ('c', i, 1)
    for i, v in enumerate(d.virtual_x):
        into[v.a_in] = ('v', i, 0)
        into[v.b_in] = ('v', i, 1)
        out[v.a_out] = ('v', i, 0)
        out[v.b_out] = ('v', i, 1)
    for i, w in enumerate(d.wens):
        into[w.w_in] = ('w', i, 0)
        out[w.w_out] = ('w', i, 0)
    _last_index = (d, (into, out))
    return into, out


def enumerate_sites(d: Diagram, kind: MoveKind) -> list[MoveSite]:
    """All positions where ``kind`` applies, in deterministic order.

    Sites come sorted by anchors, then by variant in the order each kind's
    pattern meets them.  ``d`` must be valid: removal and slide kinds
    follow each edge to its one producer and one consumer.
    """
    C, V, W = d.classical, d.virtual_x, d.wens
    sites: list[MoveSite] = []

    if kind in INSERTION_KINDS:
        edges = d.edges()
        return [_insertion_site(kind, edges, i)
                for i in range(_insertion_count(kind, edges, d.free_loops))]

    if kind in (MoveKind.R1A_MINUS, MoveKind.R1B_MINUS):
        want = 1 if kind is MoveKind.R1A_MINUS else -1
        for i, c in enumerate(C):
            if c.sign == want and (c.over_out == c.under_in
                                   or c.under_out == c.over_in):
                sites.append(MoveSite(kind, (i,)))
        return sites

    if kind is MoveKind.V1_MINUS:
        for i, v in enumerate(V):
            if v.a_out == v.b_in or v.b_out == v.a_in:
                sites.append(MoveSite(kind, (i,)))
        return sites

    if kind is MoveKind.T2:
        for i, w in enumerate(W):
            for j, v in enumerate(V):
                for a, view in enumerate(_virtual_views(v)):
                    if w.w_out == view[0]:
                        sites.append(MoveSite(kind, (i, j), f'B{a}'))
                    if w.w_in == view[1]:
                        sites.append(MoveSite(kind, (i, j), f'A{a}'))
        return sites

    if kind is MoveKind.T3:
        for i, w in enumerate(W):
            for j, c in enumerate(C):
                if w.w_out == c.under_in:
                    sites.append(MoveSite(kind, (i, j), 'B'))
                if w.w_in == c.under_out:
                    sites.append(MoveSite(kind, (i, j), 'A'))
        return sites

    into, out = _edge_index(d)
    # (anchors, order within anchors, variant): sorting puts each kind's
    # variants of one anchor tuple in pattern order, L before R
    found = []

    if kind is MoveKind.T1_MINUS:
        # w1 feeds w2
        for i, w in enumerate(W):
            vk, j, _ = into.get(w.w_out, _NO_VERTEX)
            if vk == 'w' and j != i:
                found.append(((i, j), (), ''))

    elif kind is MoveKind.R2_MINUS:
        # c1's over and under strands both run straight into c2
        for i, c1 in enumerate(C):
            vk, j, slot = into.get(c1.over_out, _NO_VERTEX)
            if vk != 'c' or slot != 0 or j == i:
                continue
            c2 = C[j]
            if c1.sign == -c2.sign and c1.under_out == c2.under_in:
                found.append(((i, j), (), ''))

    elif kind is MoveKind.V2_MINUS:
        for i, v1 in enumerate(V):
            for k1, view1 in enumerate(_virtual_views(v1)):
                vk, j, k2 = into.get(view1[1], _NO_VERTEX)
                if vk == 'v' and j != i and \
                        _virtual_views(V[j])[k2][2] == view1[3]:
                    found.append(((i, j), (), f'{k1}{k2}'))

    elif kind is MoveKind.R3:
        for i, c1 in enumerate(C):
            # L: c1 over -> c2 over, c1 under -> c3 over, c2 under -> c3 under
            vj, j, sj = into.get(c1.over_out, _NO_VERTEX)
            vk, k, sk = into.get(c1.under_out, _NO_VERTEX)
            if (vj == vk == 'c' and sj == sk == 0 and len({i, j, k}) == 3
                    and c1.sign == C[j].sign == C[k].sign
                    and C[j].under_out == C[k].under_in):
                found.append(((i, j, k), (), 'L'))
            # R: c1 under -> c2 under, c1 over -> c3 under, c2 over -> c3 over
            vj, j, sj = into.get(c1.under_out, _NO_VERTEX)
            vk, k, sk = into.get(c1.over_out, _NO_VERTEX)
            if (vj == vk == 'c' and sj == sk == 1 and len({i, j, k}) == 3
                    and c1.sign == C[j].sign == C[k].sign
                    and C[j].over_out == C[k].over_in):
                found.append(((i, j, k), (), 'R'))

    elif kind is MoveKind.V3:
        for i, v1 in enumerate(V):
            for a1, w1 in enumerate(_virtual_views(v1)):
                # L: w1[1] == w2[0], w1[3] == w3[0], w2[3] == w3[2]
                vj, j, a2 = into.get(w1[1], _NO_VERTEX)
                vk, k, a3 = into.get(w1[3], _NO_VERTEX)
                if (vj == vk == 'v' and len({i, j, k}) == 3
                        and _virtual_views(V[j])[a2][3]
                        == _virtual_views(V[k])[a3][2]):
                    found.append(((i, j, k), (a1, a2, a3),
                                  f'L{a1}{a2}{a3}'))
                # R: w1[1] == w3[2], w1[3] == w2[2], w2[1] == w3[0]
                vk, k, s3 = into.get(w1[1], _NO_VERTEX)
                vj, j, s2 = into.get(w1[3], _NO_VERTEX)
                if vj == vk == 'v' and len({i, j, k}) == 3:
                    a2, a3 = 1 - s2, 1 - s3
                    if (_virtual_views(V[j])[a2][1]
                            == _virtual_views(V[k])[a3][0]):
                        found.append(((i, j, k), (a1, a2, a3),
                                      f'R{a1}{a2}{a3}'))

    elif kind is MoveKind.M:
        for i, v1 in enumerate(V):
            for a1, w1 in enumerate(_virtual_views(v1)):
                # both patterns need w1[1] == w2[0]
                vj, j, a2 = into.get(w1[1], _NO_VERTEX)
                if vj != 'v' or j == i:
                    continue
                w2 = _virtual_views(V[j])[a2]
                # L: w1[3] == c.over_in, w2[3] == c.under_in
                vk, k, slot = into.get(w1[3], _NO_VERTEX)
                if vk == 'c' and slot == 0 and w2[3] == C[k].under_in:
                    found.append(((i, j, k), (a1, a2), f'L{a1}{a2}'))
                # R: c.under_out == w1[2], c.over_out == w2[2]
                vk, k, slot = out.get(w1[2], _NO_VERTEX)
                if vk == 'c' and slot == 1 and C[k].over_out == w2[2]:
                    found.append(((i, j, k), (a1, a2), f'R{a1}{a2}'))

    elif kind is MoveKind.F1:
        for i, c1 in enumerate(C):
            if c1.sign != 1:
                continue
            # c1.over_out == c2.over_in
            vj, j, slot = into.get(c1.over_out, _NO_VERTEX)
            if vj != 'c' or slot != 0 or j == i or C[j].sign != 1:
                continue
            c2 = C[j]
            # L: view[0] == c1.under_out, view[2] == c2.under_out
            vk, k, a = into.get(c1.under_out, _NO_VERTEX)
            if vk == 'v' and _virtual_views(V[k])[a][2] == c2.under_out:
                found.append(((i, j, k), (a,), f'L{a}'))
            # R: view[1] == c2.under_in, view[3] == c1.under_in
            vk, k, a = out.get(c2.under_in, _NO_VERTEX)
            if vk == 'v' and _virtual_views(V[k])[a][3] == c1.under_in:
                found.append(((i, j, k), (a,), f'R{a}'))

    elif kind is MoveKind.T4:
        for i, c in enumerate(C):
            # out: c.over_out == w1.w_in, c.under_out == w2.w_in
            vj, j, _ = into.get(c.over_out, _NO_VERTEX)
            vk, k, _ = into.get(c.under_out, _NO_VERTEX)
            if vj == vk == 'w' and j != k:
                found.append(((i, j, k), (0,), 'out'))
            # in: w1.w_out == c.over_in, w2.w_out == c.under_in
            vj, j, _ = out.get(c.over_in, _NO_VERTEX)
            vk, k, _ = out.get(c.under_in, _NO_VERTEX)
            if vj == vk == 'w' and j != k:
                found.append(((i, j, k), (1,), 'in'))

    else:
        raise ValueError(f'unknown move kind {kind!r}')

    return [MoveSite(kind, anchors, variant)
            for anchors, _, variant in sorted(found)]


# -- application -----------------------------------------------------------------


def _is_insertion_site(d: Diagram, site: MoveSite) -> bool:
    """Whether ``site`` is in ``enumerate_sites(d, site.kind)``, an
    insertion kind, without listing the sites."""
    anchors = site.anchors
    if site.variant == 'loop':
        return (site.kind not in _EDGE_PAIR_KINDS and anchors == ()
                and bool(d.free_loops))
    if site.variant:
        return False
    edges = set(d.edges())
    if site.kind in _EDGE_PAIR_KINDS:
        return (len(anchors) == 2 and anchors[0] != anchors[1]
                and anchors[0] in edges and anchors[1] in edges)
    return len(anchors) == 1 and anchors[0] in edges


def apply_move(d: Diagram, site: MoveSite) -> Diagram:
    """Rewrite ``d`` at ``site``; raises MoveError for stale sites."""
    if site.kind in INSERTION_KINDS:
        fresh = _is_insertion_site(d, site)
    else:
        fresh = site in enumerate_sites(d, site.kind)
    if not fresh:
        raise MoveError(f'site {site} does not match the diagram')
    return _apply_unchecked(d, site)


# kink insertions: the kind and sign of the vertex inserted
_KINKS = {MoveKind.R1A_PLUS: ('c', 1), MoveKind.R1B_PLUS: ('c', -1),
          MoveKind.V1_PLUS: ('v', 0), MoveKind.T1_PLUS: ('w', 0)}
# removals: the kind of the anchored vertices
_REMOVALS = {MoveKind.R1A_MINUS: 'c', MoveKind.R1B_MINUS: 'c',
             MoveKind.R2_MINUS: 'c', MoveKind.V1_MINUS: 'v',
             MoveKind.V2_MINUS: 'v', MoveKind.T1_MINUS: 'w'}
# triangle slides: the kinds of the anchored vertices, in anchor order
_SLIDES = {MoveKind.R3: 'ccc', MoveKind.V3: 'vvv', MoveKind.M: 'vvc',
           MoveKind.F1: 'ccv'}


def _slide(b: _Builder, side: str, x, y, z) -> None:
    """Slide one strand across the crossing of the other two.

    ``x``, ``y`` and ``z`` are the matched vertices as (kind, sign, view),
    a view being (in0, out0, in1, out1): (over_in, over_out, under_in,
    under_out) for a classical crossing, one of ``_virtual_views`` for a
    virtual one.  Side L matches X1 = Y0, X3 = Z0, Y3 = Z2 and side R
    X3 = Y2, X1 = Z2, Y1 = Z0.  Each new vertex keeps the kind and sign of
    the matched vertex that crosses the same two strands.
    """
    X, Y, Z = x[2], y[2], z[2]
    fa, fb, fs = b.fresh(), b.fresh(), b.fresh()
    if side == 'L':
        rows = ((z, (X[2], fb, Y[2], fs)), (x, (X[0], fa, fs, Z[3])),
                (y, (fa, Y[1], fb, Z[1])))
    else:
        rows = ((y, (Y[0], fa, X[0], fb)), (z, (fa, Z[1], X[2], fs)),
                (x, (fb, Z[3], fs, Y[3])))
    for (vk, sign, _), row in rows:
        b.add(vk, *row, sign=sign)


def _apply_unchecked(d: Diagram, site: MoveSite) -> Diagram:
    b = _Builder(d)
    kind, anchors, variant = site.kind, site.anchors, site.variant

    if kind in _EDGE_PAIR_KINDS:
        vk = 'c' if kind is MoveKind.R2_PLUS else 'v'
        e, f = anchors
        me, e2, mf, f2 = b.fresh(), b.fresh(), b.fresh(), b.fresh()
        b.rewire_consumer(e, e2)
        b.rewire_consumer(f, f2)
        b.add(vk, e, me, f, mf, sign=1)
        b.add(vk, me, e2, mf, f2, sign=-1)

    elif kind in _KINKS:
        vk, sign = _KINKS[kind]
        if variant == 'loop':
            # the kinked circle runs e -> f1 -> e
            b.free_loops -= 1
            e = b.fresh()
            f1, f2 = b.fresh(), e
        else:
            (e,) = anchors
            f1, f2 = b.fresh(), b.fresh()
            b.rewire_consumer(e, f2)
        if vk == 'w':
            b.add('w', e, f1)
            b.add('w', f1, f2)
        else:
            b.add(vk, e, f1, f1, f2, sign=sign)

    elif kind in _REMOVALS:
        for i in anchors:
            v = b.remove(_REMOVALS[kind], i)
            for e_in, e_out in zip(v.in_slots, v.out_slots):
                b.link(e_in, e_out)

    elif kind in _SLIDES:
        view_digits = iter(variant[1:])
        matched = []
        for vk, i in zip(_SLIDES[kind], anchors):
            v = b.remove(vk, i)
            if vk == 'c':
                matched.append(('c', v.sign, (v.over_in, v.over_out,
                                              v.under_in, v.under_out)))
            else:
                view = _virtual_views(v)[int(next(view_digits))]
                matched.append(('v', 0, view))
        x, y, z = matched
        if variant[0] == 'R' and kind in (MoveKind.M, MoveKind.F1):
            x, y, z = z, x, y   # their matchers list the slid-over vertex last
        _slide(b, variant[0], x, y, z)

    elif kind is MoveKind.T2:
        i, j = anchors
        w = b.remove('w', i)
        view = _virtual_views(b.remove('v', j))[int(variant[1])]
        f = b.fresh()
        if variant[0] == 'B':
            b.add('v', w.w_in, f, view[2], view[3])
            b.add('w', f, view[1])
        else:
            b.add('w', view[0], f)
            b.add('v', f, w.w_out, view[2], view[3])

    elif kind is MoveKind.T3:
        i, j = anchors
        w, c = b.remove('w', i), b.remove('c', j)
        f = b.fresh()
        if variant == 'B':
            b.add_classical(c.sign, c.over_in, c.over_out, w.w_in, f)
            b.add('w', f, c.under_out)
        else:
            b.add('w', c.under_in, f)
            b.add_classical(c.sign, c.over_in, c.over_out, f, w.w_out)

    elif kind is MoveKind.T4:
        i, j, k = anchors
        c, w1, w2 = b.remove('c', i), b.remove('w', j), b.remove('w', k)
        g1, g2 = b.fresh(), b.fresh()
        if variant == 'out':
            b.add('w', c.over_in, g1)
            b.add('w', c.under_in, g2)
            b.add_classical(-c.sign, g2, w2.w_out, g1, w1.w_out)
        else:
            b.add_classical(-c.sign, w2.w_in, g1, w1.w_in, g2)
            b.add('w', g1, c.under_out)
            b.add('w', g2, c.over_out)

    else:
        raise ValueError(f'unknown move kind {kind!r}')

    out = b.finalize()
    check_valid(out)
    return out


# -- random equivalent-diagram generator ----------------------------------------


WEN_KINDS = (MoveKind.T1_PLUS, MoveKind.T1_MINUS, MoveKind.T2, MoveKind.T3,
             MoveKind.T4)


def scramble(d: Diagram, seed: int, n_moves: int, size_cap: int = 14,
             wen_moves: bool = True) -> Diagram:
    """Apply ``n_moves`` random applicable moves; equivalent by construction.

    Below the size cap, insertions are drawn 60% of the time; above it,
    removals 80% of the time, to keep state-sum cost bounded.  The cap is
    soft: above it no insertion is drawn (the walk ends early when no removal
    or slide applies), and one insertion adds at most two vertices, so the
    walk never grows past ``max(d.size(), size_cap) + 2`` vertices.
    Each step picks a kind uniformly among those with a site, then a site
    uniformly among that kind's.  Insertion sites are drawn by count and
    index and never listed; removal and slide kinds are listed by
    ``enumerate_sites``.  Either way the draw and the random stream are the
    same as picking from the full lists, so a seed gives the same walk.
    Reproducible for a fixed seed.  ``wen_moves=False`` keeps to the
    wen-free move set, which is what the nu != 1 welded families are
    invariant under.
    """
    rng = random.Random(seed)

    def allowed(kinds):
        if wen_moves:
            return kinds
        return tuple(k for k in kinds if k not in WEN_KINDS)

    insertion, removal, slide = (allowed(INSERTION_KINDS),
                                 allowed(REMOVAL_KINDS), allowed(SLIDE_KINDS))
    shrinking = removal + slide
    every = insertion + shrinking

    current = d
    for _ in range(n_moves):
        roll = rng.random()
        if current.size() <= size_cap:
            groups = (insertion if roll < 0.6 else shrinking, every)
        else:
            groups = (removal if roll < 0.8 else slide, shrinking)
        edges = None
        count: dict[MoveKind, int] = {}
        sites_of: dict[MoveKind, list[MoveSite]] = {}
        applied = False
        for group in groups:
            for k in group:
                if k in count:
                    continue
                if k in INSERTION_KINDS:
                    if edges is None:
                        edges = current.edges()
                    count[k] = _insertion_count(k, edges, current.free_loops)
                else:
                    sites_of[k] = enumerate_sites(current, k)
                    count[k] = len(sites_of[k])
            kinds = [k for k in group if count[k]]
            if not kinds:
                continue
            kind = rng.choice(kinds)
            i = rng.randrange(count[kind])
            site = (sites_of[kind][i] if kind in sites_of
                    else _insertion_site(kind, edges, i))
            current = _apply_unchecked(current, site)
            applied = True
            break
        if not applied:        # above the cap with no removal or slide
            break
    return current
