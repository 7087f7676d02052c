"""Write a ring of linked components as a diagram file.

    python tests/ring_link.py ring.wld 60

Component u is one circle, clasped to component u + 1 (mod k) by one
positive classical crossing, so the graph of nonzero linking numbers is a
single cycle through all k components.  ``eval`` sweeps it with a frontier
of at most three components; a cut sum over all 2^(k - 1) sides would not
finish.
"""
import sys


def ring_rows(k: int) -> list[str]:
    # row u: component u passes over from cu.a to cu.b, and component
    # v = u + 1 passes under from cv.b back to cv.a
    return [f'X+ c{u}.a c{u}.b c{(u + 1) % k}.b c{(u + 1) % k}.a'
            for u in range(k)]


if __name__ == '__main__':
    path, k = sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 60
    if k < 2:
        sys.exit('a ring needs at least 2 components')
    with open(path, 'w') as fh:
        fh.write('\n'.join(ring_rows(k)) + '\n')
