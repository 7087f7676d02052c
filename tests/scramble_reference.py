"""Reference oracle for the scrambler: nested-loop site lists and
kind-by-kind rewrites.

``reference_sites`` tries every pair or triple of vertices against each
move pattern, ``reference_apply`` rewrites a diagram with one branch per
move kind on a row-by-row copy of it, and ``reference_scramble`` builds the
full site list of every kind it may draw before picking one and applying it
with ``reference_apply``.  ``weldskein.moves`` counts insertion sites,
matches removal and slide kinds through an edge index and rewrites with one
branch per move shape instead; the tests hold it to the same lists, in the
same order, to the same rewrites and to the same walks for the same seeds.
"""
from __future__ import annotations

import random

from weldskein.diagram import (ClassicalCrossing, Diagram, VirtualCrossing,
                               Wen, check_valid)
from weldskein.moves import (INSERTION_KINDS, REMOVAL_KINDS, SLIDE_KINDS,
                             WEN_KINDS, MoveError, MoveKind, MoveSite,
                             _virtual_views)


def reference_sites(d: Diagram, kind: MoveKind) -> list[MoveSite]:
    """Every site of ``kind``, listed by the plain nested-loop patterns."""
    C, V, W = d.classical, d.virtual_x, d.wens
    sites: list[MoveSite] = []

    if kind in (MoveKind.R1A_PLUS, MoveKind.R1B_PLUS, MoveKind.V1_PLUS,
                MoveKind.T1_PLUS):
        sites = [MoveSite(kind, (e,)) for e in d.edges()]
        if d.free_loops:
            # a crossing-free circle has no edges; kink it directly
            sites.append(MoveSite(kind, (), 'loop'))
        return sites

    if kind in (MoveKind.R2_PLUS, MoveKind.V2_PLUS):
        edges = d.edges()
        return [MoveSite(kind, (e, f))
                for e in edges for f in edges if e != f]

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

    if kind is MoveKind.T1_MINUS:
        for i, w1 in enumerate(W):
            for j, w2 in enumerate(W):
                if i != j and w1.w_out == w2.w_in:
                    sites.append(MoveSite(kind, (i, j)))
        return sites

    if kind is MoveKind.R2_MINUS:
        for i, c1 in enumerate(C):
            for j, c2 in enumerate(C):
                if i == j or c1.sign != -c2.sign:
                    continue
                if c1.over_out == c2.over_in and c1.under_out == c2.under_in:
                    sites.append(MoveSite(kind, (i, j)))
        return sites

    if kind is MoveKind.V2_MINUS:
        for i, v1 in enumerate(V):
            for j, v2 in enumerate(V):
                if i == j:
                    continue
                for k1, view1 in enumerate(_virtual_views(v1)):
                    for k2, view2 in enumerate(_virtual_views(v2)):
                        if view1[1] == view2[0] and view1[3] == view2[2]:
                            sites.append(MoveSite(kind, (i, j), f'{k1}{k2}'))
        return sites

    if kind is MoveKind.R3:
        for i, c1 in enumerate(C):
            for j, c2 in enumerate(C):
                for k, c3 in enumerate(C):
                    if len({i, j, k}) < 3:
                        continue
                    if not (c1.sign == c2.sign == c3.sign):
                        continue
                    if (c1.over_out == c2.over_in and c1.under_out == c3.over_in
                            and c2.under_out == c3.under_in):
                        sites.append(MoveSite(kind, (i, j, k), 'L'))
                    if (c1.under_out == c2.under_in and c2.over_out == c3.over_in
                            and c1.over_out == c3.under_in):
                        sites.append(MoveSite(kind, (i, j, k), 'R'))
        return sites

    if kind is MoveKind.V3:
        for i, v1 in enumerate(V):
            for j, v2 in enumerate(V):
                for k, v3 in enumerate(V):
                    if len({i, j, k}) < 3:
                        continue
                    for a1, w1 in enumerate(_virtual_views(v1)):
                        for a2, w2 in enumerate(_virtual_views(v2)):
                            for a3, w3 in enumerate(_virtual_views(v3)):
                                if (w1[1] == w2[0] and w1[3] == w3[0]
                                        and w2[3] == w3[2]):
                                    sites.append(MoveSite(
                                        kind, (i, j, k), f'L{a1}{a2}{a3}'))
                                if (w1[1] == w3[2] and w1[3] == w2[2]
                                        and w2[1] == w3[0]):
                                    sites.append(MoveSite(
                                        kind, (i, j, k), f'R{a1}{a2}{a3}'))
        return sites

    if kind is MoveKind.M:
        for i, v1 in enumerate(V):
            for j, v2 in enumerate(V):
                if i == j:
                    continue
                for k, c in enumerate(C):
                    for a1, w1 in enumerate(_virtual_views(v1)):
                        for a2, w2 in enumerate(_virtual_views(v2)):
                            if (w1[1] == w2[0] and w1[3] == c.over_in
                                    and w2[3] == c.under_in):
                                sites.append(MoveSite(
                                    kind, (i, j, k), f'L{a1}{a2}'))
                            if (c.over_out == w2[2] and c.under_out == w1[2]
                                    and w1[1] == w2[0]):
                                sites.append(MoveSite(
                                    kind, (i, j, k), f'R{a1}{a2}'))
        return sites

    if kind is MoveKind.F1:
        for i, c1 in enumerate(C):
            for j, c2 in enumerate(C):
                if i == j or c1.sign != 1 or c2.sign != 1:
                    continue
                if c1.over_out != c2.over_in:
                    continue
                for k, v in enumerate(V):
                    for a, view in enumerate(_virtual_views(v)):
                        if view[0] == c1.under_out and view[2] == c2.under_out:
                            sites.append(MoveSite(kind, (i, j, k), f'L{a}'))
                        if view[1] == c2.under_in and view[3] == c1.under_in:
                            sites.append(MoveSite(kind, (i, j, k), f'R{a}'))
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

    if kind is MoveKind.T4:
        for i, c in enumerate(C):
            for j, w1 in enumerate(W):
                for k, w2 in enumerate(W):
                    if j == k:
                        continue
                    if c.over_out == w1.w_in and c.under_out == w2.w_in:
                        sites.append(MoveSite(kind, (i, j, k), 'out'))
                    if w1.w_out == c.over_in and w2.w_out == c.under_in:
                        sites.append(MoveSite(kind, (i, j, k), 'in'))
        return sites

    raise ValueError(f'unknown move kind {kind!r}')


# -- rewrites -------------------------------------------------------------------


class _Builder:
    """Mutable scratch copy of a diagram for one rewrite.

    Call order matters: rewire the surviving consumer of a split edge before
    adding the vertex that consumes the old edge id.
    """

    def __init__(self, d: Diagram):
        self.classical = [[c.sign, c.over_in, c.over_out, c.under_in, c.under_out]
                          for c in d.classical]
        self.virtual = [[v.a_in, v.a_out, v.b_in, v.b_out] for v in d.virtual_x]
        self.wens = [[w.w_in, w.w_out] for w in d.wens]
        self.removed_c: set[int] = set()
        self.removed_v: set[int] = set()
        self.removed_w: set[int] = set()
        self.free_loops = d.free_loops
        self.links: list[tuple[str, str]] = []
        self._ids = set()
        for row in self.classical:
            self._ids.update(row[1:])
        for row in self.virtual + self.wens:
            self._ids.update(row)
        self._counter = 0

    def fresh(self) -> str:
        while True:
            name = f'n{self._counter}'
            self._counter += 1
            if name not in self._ids:
                self._ids.add(name)
                return name

    def remove_classical(self, i: int) -> None:
        self.removed_c.add(i)

    def remove_virtual(self, i: int) -> None:
        self.removed_v.add(i)

    def remove_wen(self, i: int) -> None:
        self.removed_w.add(i)

    def add_classical(self, sign, oi, oo, ui, uo) -> None:
        self.classical.append([sign, oi, oo, ui, uo])
        self._ids.update((oi, oo, ui, uo))

    def add_virtual(self, ai, ao, bi, bo) -> None:
        self.virtual.append([ai, ao, bi, bo])
        self._ids.update((ai, ao, bi, bo))

    def add_wen(self, wi, wo) -> None:
        self.wens.append([wi, wo])
        self._ids.update((wi, wo))

    def link(self, consumed: str, produced: str) -> None:
        """Record that the strand arriving on ``consumed`` continues as
        ``produced`` through a dissolved vertex."""
        self.links.append((consumed, produced))

    def _live_in_slots(self):
        for i, row in enumerate(self.classical):
            if i not in self.removed_c:
                yield ('c', i, 1), row[1]
                yield ('c', i, 3), row[3]
        for i, row in enumerate(self.virtual):
            if i not in self.removed_v:
                yield ('v', i, 0), row[0]
                yield ('v', i, 2), row[2]
        for i, row in enumerate(self.wens):
            if i not in self.removed_w:
                yield ('w', i, 0), row[0]

    def rewire_consumer(self, old: str, new: str) -> None:
        for (kind, i, slot), edge in self._live_in_slots():
            if edge == old:
                row = {'c': self.classical, 'v': self.virtual, 'w': self.wens}[kind][i]
                row[slot] = new
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
        return Diagram(
            classical=tuple(ClassicalCrossing(*row) for i, row in
                            enumerate(self.classical) if i not in self.removed_c),
            virtual_x=tuple(VirtualCrossing(*row) for i, row in
                            enumerate(self.virtual) if i not in self.removed_v),
            wens=tuple(Wen(*row) for i, row in
                       enumerate(self.wens) if i not in self.removed_w),
            free_loops=self.free_loops,
        )


def reference_apply(d: Diagram, site: MoveSite) -> Diagram:
    b = _Builder(d)
    kind, anchors, variant = site.kind, site.anchors, site.variant
    C, V, W = d.classical, d.virtual_x, d.wens

    if kind in (MoveKind.R1A_PLUS, MoveKind.R1B_PLUS, MoveKind.V1_PLUS,
                MoveKind.T1_PLUS) and variant == 'loop':
        b.free_loops -= 1
        e, f1 = b.fresh(), b.fresh()
        if kind in (MoveKind.R1A_PLUS, MoveKind.R1B_PLUS):
            b.add_classical(1 if kind is MoveKind.R1A_PLUS else -1,
                            e, f1, f1, e)
        elif kind is MoveKind.V1_PLUS:
            b.add_virtual(e, f1, f1, e)
        else:
            b.add_wen(e, f1)
            b.add_wen(f1, e)

    elif kind in (MoveKind.R1A_PLUS, MoveKind.R1B_PLUS):
        (e,) = anchors
        f1, f2 = b.fresh(), b.fresh()
        b.rewire_consumer(e, f2)
        b.add_classical(1 if kind is MoveKind.R1A_PLUS else -1, e, f1, f1, f2)

    elif kind is MoveKind.V1_PLUS:
        (e,) = anchors
        f1, f2 = b.fresh(), b.fresh()
        b.rewire_consumer(e, f2)
        b.add_virtual(e, f1, f1, f2)

    elif kind is MoveKind.T1_PLUS:
        (e,) = anchors
        f1, f2 = b.fresh(), b.fresh()
        b.rewire_consumer(e, f2)
        b.add_wen(e, f1)
        b.add_wen(f1, f2)

    elif kind is MoveKind.R2_PLUS:
        e, f = anchors
        me, e2, mf, f2 = b.fresh(), b.fresh(), b.fresh(), b.fresh()
        b.rewire_consumer(e, e2)
        b.rewire_consumer(f, f2)
        b.add_classical(1, e, me, f, mf)
        b.add_classical(-1, me, e2, mf, f2)

    elif kind is MoveKind.V2_PLUS:
        e, f = anchors
        me, e2, mf, f2 = b.fresh(), b.fresh(), b.fresh(), b.fresh()
        b.rewire_consumer(e, e2)
        b.rewire_consumer(f, f2)
        b.add_virtual(e, me, f, mf)
        b.add_virtual(me, e2, mf, f2)

    elif kind in (MoveKind.R1A_MINUS, MoveKind.R1B_MINUS):
        (i,) = anchors
        c = C[i]
        b.remove_classical(i)
        b.link(c.over_in, c.over_out)
        b.link(c.under_in, c.under_out)

    elif kind is MoveKind.V1_MINUS:
        (i,) = anchors
        v = V[i]
        b.remove_virtual(i)
        b.link(v.a_in, v.a_out)
        b.link(v.b_in, v.b_out)

    elif kind is MoveKind.T1_MINUS:
        i, j = anchors
        b.remove_wen(i)
        b.remove_wen(j)
        b.link(W[i].w_in, W[i].w_out)
        b.link(W[j].w_in, W[j].w_out)

    elif kind is MoveKind.R2_MINUS:
        i, j = anchors
        for idx in (i, j):
            c = C[idx]
            b.remove_classical(idx)
            b.link(c.over_in, c.over_out)
            b.link(c.under_in, c.under_out)

    elif kind is MoveKind.V2_MINUS:
        i, j = anchors
        for idx in (i, j):
            v = V[idx]
            b.remove_virtual(idx)
            b.link(v.a_in, v.a_out)
            b.link(v.b_in, v.b_out)

    elif kind is MoveKind.R3:
        i, j, k = anchors
        c1, c2, c3 = C[i], C[j], C[k]
        s = c1.sign
        for idx in (i, j, k):
            b.remove_classical(idx)
        fa, fb, fs = b.fresh(), b.fresh(), b.fresh()
        if variant == 'L':
            b.add_classical(s, c1.under_in, fb, c2.under_in, fs)
            b.add_classical(s, c1.over_in, fa, fs, c3.under_out)
            b.add_classical(s, fa, c2.over_out, fb, c3.over_out)
        else:
            # c1 = B/S, c2 = A/S, c3 = A/B in the sigma2 sigma1 sigma2 order
            b.add_classical(s, c2.over_in, fa, c1.over_in, fb)
            b.add_classical(s, fa, c3.over_out, c1.under_in, fs)
            b.add_classical(s, fb, c3.under_out, fs, c2.under_out)

    elif kind is MoveKind.V3:
        i, j, k = anchors
        a1, a2, a3 = (int(ch) for ch in variant[1:])
        w1 = _virtual_views(V[i])[a1]
        w2 = _virtual_views(V[j])[a2]
        w3 = _virtual_views(V[k])[a3]
        for idx in (i, j, k):
            b.remove_virtual(idx)
        fa, fb, fs = b.fresh(), b.fresh(), b.fresh()
        # role names mirror the classical R3 rewrite
        if variant[0] == 'L':
            b.add_virtual(w1[2], fb, w2[2], fs)
            b.add_virtual(w1[0], fa, fs, w3[3])
            b.add_virtual(fa, w2[1], fb, w3[1])
        else:
            b.add_virtual(w2[0], fa, w1[0], fb)
            b.add_virtual(fa, w3[1], w1[2], fs)
            b.add_virtual(fb, w3[3], fs, w2[3])

    elif kind is MoveKind.M:
        i, j, k = anchors
        a1, a2 = (int(ch) for ch in variant[1:])
        w1 = _virtual_views(V[i])[a1]
        w2 = _virtual_views(V[j])[a2]
        c = C[k]
        b.remove_virtual(i)
        b.remove_virtual(j)
        b.remove_classical(k)
        fa, fb, fs = b.fresh(), b.fresh(), b.fresh()
        if variant[0] == 'L':
            b.add_classical(c.sign, w1[2], fb, w2[2], fs)
            b.add_virtual(w1[0], fa, fs, c.under_out)
            b.add_virtual(fa, w2[1], fb, c.over_out)
        else:
            b.add_virtual(w1[0], fa, c.over_in, fb)
            b.add_virtual(fa, w2[1], c.under_in, fs)
            b.add_classical(c.sign, fb, w2[3], fs, w1[3])

    elif kind is MoveKind.F1:
        i, j, k = anchors
        c1, c2 = C[i], C[j]
        view = _virtual_views(V[k])[int(variant[1])]
        b.remove_classical(i)
        b.remove_classical(j)
        b.remove_virtual(k)
        fa, fb, fs = b.fresh(), b.fresh(), b.fresh()
        if variant[0] == 'L':
            b.add_virtual(c1.under_in, fb, c2.under_in, fs)
            b.add_classical(1, c1.over_in, fa, fs, view[3])
            b.add_classical(1, fa, c2.over_out, fb, view[1])
        else:
            # matched c1 = A/S, c2 = A/B; restore A-over-B-then-S order
            b.add_classical(1, c1.over_in, fa, view[0], fb)
            b.add_classical(1, fa, c2.over_out, view[2], fs)
            b.add_virtual(fb, c2.under_out, fs, c1.under_out)

    elif kind is MoveKind.T2:
        i, j = anchors
        w = W[i]
        view = _virtual_views(V[j])[int(variant[1])]
        b.remove_wen(i)
        b.remove_virtual(j)
        f = b.fresh()
        if variant[0] == 'B':
            b.add_virtual(w.w_in, f, view[2], view[3])
            b.add_wen(f, view[1])
        else:
            b.add_wen(view[0], f)
            b.add_virtual(f, w.w_out, view[2], view[3])

    elif kind is MoveKind.T3:
        i, j = anchors
        w, c = W[i], C[j]
        b.remove_wen(i)
        b.remove_classical(j)
        f = b.fresh()
        if variant == 'B':
            b.add_classical(c.sign, c.over_in, c.over_out, w.w_in, f)
            b.add_wen(f, c.under_out)
        else:
            b.add_wen(c.under_in, f)
            b.add_classical(c.sign, c.over_in, c.over_out, f, w.w_out)

    elif kind is MoveKind.T4:
        i, j, k = anchors
        c, w1, w2 = C[i], W[j], W[k]
        b.remove_classical(i)
        b.remove_wen(j)
        b.remove_wen(k)
        g1, g2 = b.fresh(), b.fresh()
        if variant == 'out':
            b.add_wen(c.over_in, g1)
            b.add_wen(c.under_in, g2)
            b.add_classical(-c.sign, g2, w2.w_out, g1, w1.w_out)
        else:
            b.add_classical(-c.sign, w2.w_in, g1, w1.w_in, g2)
            b.add_wen(g1, c.under_out)
            b.add_wen(g2, c.over_out)

    else:
        raise ValueError(f'unknown move kind {kind!r}')

    out = b.finalize()
    check_valid(out)
    return out


def reference_scramble(d: Diagram, seed: int, n_moves: int, size_cap: int = 14,
             wen_moves: bool = True) -> Diagram:
    """The scrambler that lists every site of every kind it may draw."""
    rng = random.Random(seed)

    def allowed(kinds):
        if wen_moves:
            return kinds
        return tuple(k for k in kinds if k not in WEN_KINDS)

    current = d
    for _ in range(n_moves):
        roll = rng.random()
        if current.size() <= size_cap:
            groups = ([allowed(INSERTION_KINDS)] if roll < 0.6
                      else [allowed(REMOVAL_KINDS + SLIDE_KINDS)])
            groups.append(allowed(INSERTION_KINDS + REMOVAL_KINDS + SLIDE_KINDS))
        else:
            groups = ([allowed(REMOVAL_KINDS)] if roll < 0.8
                      else [allowed(SLIDE_KINDS)])
            groups.append(allowed(REMOVAL_KINDS + SLIDE_KINDS))
        applied = False
        sites_of: dict[MoveKind, list[MoveSite]] = {}
        for group in groups:
            for k in group:
                if k not in sites_of:
                    sites_of[k] = reference_sites(current, k)
            kinds = [k for k in group if sites_of[k]]
            if not kinds:
                continue
            sites = sites_of[rng.choice(kinds)]
            site = sites[rng.randrange(len(sites))]
            current = reference_apply(current, site)
            applied = True
            break
        if not applied:        # above the cap with no removal or slide
            break
    return current
