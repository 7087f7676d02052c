"""The smoothing-state kernel, shared by closed diagrams and tangles.

Every classical crossing is resolved three ways, so a diagram has ``3^n``
resolved states; the kernel counts them by coefficient shape without
visiting them one by one.  It sweeps over the crossings in a fixed order
and keeps, for each way the states so far can connect the *frontier*
(the nodes already met that later crossings or the boundary still use),
a table of coefficient-shape counters.  A crossing extends every entry
three ways; a node leaves the frontier after its last crossing, and a
class of nodes that leaves it whole is a closed loop.  Entries that
connect the frontier alike merge, so the cost grows with the number of
frontier partitions, which is set by the frontier's width, not with
``3^n``.  Boundary nodes (tangle endpoints) stay on the frontier to the
end: a class that holds one is a strand, not a loop, and each key also
records how the state joins the boundary nodes.
"""
from __future__ import annotations

from typing import Sequence


def _sweep_order(crossing_nodes: Sequence[int], n: int) -> list[int]:
    """The order in which the kernel visits the ``n`` crossings.

    Greedy and deterministic: next comes the crossing with the most slots
    on nodes already met, ties going to the lowest index.  Keeping the
    crossings that close the frontier first keeps the frontier narrow.
    """
    if n <= 2:      # all scores are 0 at the first pick: 0, then 1
        return list(range(n))
    crossings_at: dict[int, list[int]] = {}
    for slot, node in enumerate(crossing_nodes):
        crossings_at.setdefault(node, []).append(slot >> 2)
    score = [0] * n
    todo = list(range(n))
    order = []
    seen: set[int] = set()
    while todo:
        j = max(todo, key=score.__getitem__)    # first maximum: lowest index
        todo.remove(j)
        order.append(j)
        for node in crossing_nodes[4 * j:4 * j + 4]:
            if node not in seen:
                seen.add(node)
                for k in crossings_at[node]:
                    score[k] += 1
    return order


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
    The order of the keys is unspecified.
    """
    n = len(signs)
    if len(crossing_nodes) != 4 * n:
        raise ValueError('need 4 node ids per crossing')
    boundary = tuple(boundary_nodes)
    nodes = (*crossing_nodes, *boundary)
    if nodes and (min(nodes) < 0 or max(nodes) >= n_nodes):
        raise ValueError(f'node ids must lie in range({n_nodes})')
    order = _sweep_order(crossing_nodes, n)
    last = {node: step          # node -> the sweep step of its last slot
            for step, j in enumerate(order)
            for node in crossing_nodes[4 * j:4 * j + 4]}
    for node in boundary:
        last[node] = n          # boundary nodes never leave the frontier

    # Counters packed into one int, fields of ``w`` bits from the lowest:
    # loops, vp, ip, vn, inn.  No field can exceed max(n, n_nodes).
    w = max(n, n_nodes, 1).bit_length()
    mask = (1 << w) - 1

    # layer: frontier partition (a class label per frontier node, labels
    # numbered by first appearance) -> {packed counters: states}
    layer: dict[tuple, dict[int, int]] = {(): {0: 1}}
    frontier: list[int] = []
    for step, j in enumerate(order):
        quad = crossing_nodes[4 * j:4 * j + 4]
        ext = frontier + [v for v in dict.fromkeys(quad) if v not in frontier]
        at = {v: i for i, v in enumerate(ext)}
        oi, oo, ui, uo = map(at.__getitem__, quad)
        keep = [i for i, v in enumerate(ext) if last[v] != step]
        drop = [i for i, v in enumerate(ext) if last[v] == step]
        fresh = len(ext) - len(frontier)
        shift = w if signs[j] > 0 else 3 * w
        joins = (((oi, oo), (ui, uo), 1 << shift),
                 ((oi, uo), (ui, oo), 1 << (shift + w)),
                 ((oi, ui), (oo, uo), 0))
        nxt: dict[tuple, dict[int, int]] = {}
        for state, table in layer.items():
            k = max(state) + 1 if state else 0
            base = state + tuple(range(k, k + fresh))
            for (p1, q1), (p2, q2), delta in joins:
                lab = base
                x, y = lab[p1], lab[q1]
                if x != y:
                    lab = [x if c == y else c for c in lab]
                x, y = lab[p2], lab[q2]
                if x != y:
                    lab = [x if c == y else c for c in lab]
                relabel: dict[int, int] = {}
                key = tuple([relabel.setdefault(lab[i], len(relabel))
                             for i in keep])
                if drop:        # classes left with no frontier node are loops
                    delta += len({lab[i] for i in drop}.difference(relabel))
                target = nxt.get(key)
                if target is None:
                    nxt[key] = target = {}
                get = target.get
                for packed, count in table.items():
                    packed += delta
                    target[packed] = get(packed, 0) + count
        layer = nxt
        frontier = [ext[i] for i in keep]

    const_loops = n_nodes - len(last)   # off the boundary and untouched
    # Only boundary nodes are left on the frontier, so distinct entries
    # give distinct boundary partitions and no key is met twice.
    hist: dict[tuple, int] = {}
    for state, table in layer.items():
        tail = ()
        if boundary:
            label = dict(zip(frontier, state))
            classes: dict[int, list[int]] = {}
            for pos, node in enumerate(boundary):
                # a boundary node no crossing touches is a class of its own
                classes.setdefault(label.get(node, -1 - node), []).append(pos)
            tail = (tuple(tuple(c) for c in classes.values()),)
        for packed, count in table.items():
            hist[(packed >> w & mask, packed >> 2 * w & mask,
                  packed >> 3 * w & mask, packed >> 4 * w,
                  (packed & mask) + const_loops) + tail] = count
    return hist
