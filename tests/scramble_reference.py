"""Reference oracle for the scrambler: the nested-loop site lists.

``reference_sites`` tries every pair or triple of vertices against each
move pattern, and ``reference_scramble`` builds the full site list of every
kind it may draw before picking one.  ``weldskein.moves`` counts insertion
sites and matches removal and slide kinds through an edge index instead;
the tests hold it to the same lists, in the same order, and to the same
walks for the same seeds.
"""
from __future__ import annotations

import random

from weldskein.diagram import Diagram
from weldskein.moves import (INSERTION_KINDS, REMOVAL_KINDS, SLIDE_KINDS,
                             WEN_KINDS, MoveKind, MoveSite, _apply_unchecked,
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
            current = _apply_unchecked(current, site)
            applied = True
            break
        if not applied:        # above the cap with no removal or slide
            break
    return current
