"""The smoothing-state kernel, shared by closed diagrams and tangles.

Every classical crossing is resolved three ways, and the kernel counts the
``3^n`` resolved states by coefficient shape.  It walks the per-crossing
smoothing digits depth first with a union-find snapshot per level, so a
leaf only pays for the unions of its own branch.  Boundary nodes (tangle
endpoints) stay open: a class that holds one is a strand, not a loop, and
each key also records how the state joins the boundary nodes.
"""
from __future__ import annotations

from typing import Sequence


def smoothing_histogram(n_nodes: int,
                        crossing_nodes: Sequence[int],
                        signs: Sequence[int],
                        boundary_nodes: Sequence[int] = ()) -> dict[tuple, int]:
    """Count the 3^n smoothing states, grouped by coefficient shape.

    ``crossing_nodes`` holds 4 node ids per classical crossing (over_in,
    over_out, under_in, under_out); smoothing digit 0 virtualizes, 1 joins
    parallel to the orientations, 2 joins cup-cap.

    Returns a map (n_virtualized_pos, n_parallel_pos, n_virtualized_neg,
    n_parallel_neg, loops) -> number of states, where ``loops`` counts the
    closed components among the ``n_nodes`` nodes.  With ``boundary_nodes``
    each key gains a sixth entry, the canonical partition of the boundary:
    one ascending tuple of indices into ``boundary_nodes`` per class the
    state forms, ordered by first index.  Those classes are not loops.
    """
    n = len(signs)
    if len(crossing_nodes) != 4 * n:
        raise ValueError('need 4 node ids per crossing')
    boundary = tuple(boundary_nodes)
    if any(not 0 <= i < n_nodes for i in (*crossing_nodes, *boundary)):
        raise ValueError(f'node ids must lie in range({n_nodes})')
    hist: dict[tuple, int] = {}

    def find(parent: list[int], i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # stack entries: (depth, parent snapshot, merges, vp, ip, vn, inn)
    stack = [(0, list(range(n_nodes)), 0, 0, 0, 0, 0)]
    while stack:
        depth, parent, merges, vp, ip, vn, inn = stack.pop()
        if depth == n:
            if boundary:
                classes: dict[int, list[int]] = {}
                for pos, node in enumerate(boundary):
                    classes.setdefault(find(parent, node), []).append(pos)
                key = (vp, ip, vn, inn, n_nodes - merges - len(classes),
                       tuple(tuple(c) for c in classes.values()))
            else:
                key = (vp, ip, vn, inn, n_nodes - merges)
            hist[key] = hist.get(key, 0) + 1
            continue
        base = 4 * depth
        oi = crossing_nodes[base]
        oo = crossing_nodes[base + 1]
        ui = crossing_nodes[base + 2]
        uo = crossing_nodes[base + 3]
        positive = signs[depth] > 0
        for k in (0, 1, 2):
            if k == 0:
                pairs = ((oi, oo), (ui, uo))
            elif k == 1:
                pairs = ((oi, uo), (ui, oo))
            else:
                pairs = ((oi, ui), (oo, uo))
            p2 = parent[:]
            m2 = merges
            for u, v in pairs:
                ru = find(p2, u)
                rv = find(p2, v)
                if ru != rv:
                    p2[ru] = rv
                    m2 += 1
            stack.append((
                depth + 1, p2, m2,
                vp + (1 if k == 0 and positive else 0),
                ip + (1 if k == 1 and positive else 0),
                vn + (1 if k == 0 and not positive else 0),
                inn + (1 if k == 1 and not positive else 0),
            ))
    return hist
