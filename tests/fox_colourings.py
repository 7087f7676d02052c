"""Fox p-colourings: a move oracle that sees more than linking numbers.

Colour every edge of a wen-free diagram by Z/p.  A classical crossing
keeps the over strand's colour and sets under_out = 2*over_in - under_in;
a virtual crossing passes both colours through.  The colourings are the
solutions of that linear system, so their number is p^(nullity), times p
per free loop.  They factor through the knot quandle, which the welded
moves preserve, the forbidden move F1 included, and F2 does not (Kauffman,
*Virtual knot theory*, 1999; Fenn, Rimanyi and Rourke, *The
braid-permutation group*, 1997).  Y sees only the components and linking
numbers, so this count is what holds a rewrite that changes the knot type
but not the linking numbers.  Wens are left to Y: T4 swaps the over and
under roles, so no colour rule for a wen survives the wen moves.
"""
from __future__ import annotations

from weldskein.diagram import Diagram


def colouring_count(d: Diagram, p: int) -> int:
    """The number of Fox p-colourings of a wen-free diagram, p prime."""
    if d.wens:
        raise ValueError('Fox colourings are defined here for wen-free diagrams')
    index = {e: i for i, e in enumerate(d.edges())}
    rows = []           # (edge, coefficient) pairs, summed per edge below
    for c in d.classical:
        rows.append(((c.over_out, 1), (c.over_in, -1)))
        rows.append(((c.under_out, 1), (c.over_in, -2), (c.under_in, 1)))
    for v in d.virtual_x:
        rows.append(((v.a_out, 1), (v.a_in, -1)))
        rows.append(((v.b_out, 1), (v.b_in, -1)))
    # sparse row reduction mod p; pivots[col] is a reduced row led by col
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        vec: dict[int, int] = {}
        for e, k in row:
            vec[index[e]] = (vec.get(index[e], 0) + k) % p
        vec = {col: k for col, k in vec.items() if k}
        while vec:          # a loop edge (e -> e) leaves an empty row
            col = min(vec)
            if col not in pivots:
                inv = pow(vec[col], -1, p)
                pivots[col] = {c: k * inv % p for c, k in vec.items()}
                break
            f = vec[col]
            for c, k in pivots[col].items():
                k = (vec.get(c, 0) - f * k) % p
                if k:
                    vec[c] = k
                else:
                    vec.pop(c, None)
    return p ** (len(index) - len(pivots) + d.free_loops)
