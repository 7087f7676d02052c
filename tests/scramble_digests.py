"""The frozen scrambler reference's walks, stored as digests.

``reference_scramble`` is frozen code, so its walks cannot change; the
tests compare the live scrambler with one sha256 per (diagram, size cap,
wen moves) instead of re-running the reference on every walk.  A digest
covers the serialized results of the walks of seeds 0-199, 15 moves each.
Regenerate the file only when the corpus or the walk parameters change:

    PYTHONPATH=src python tests/scramble_digests.py
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from weldskein.diagram import Diagram, parse, serialize

HERE = Path(__file__).resolve().parent
DIGEST_PATH = HERE / 'golden' / 'scramble-reference.json'
SEEDS = range(200)
N_MOVES = 15
CAPS = (12, 6)


def case_key(name: str, size_cap: int, wen_moves: bool) -> str:
    return f'{name} cap={size_cap} wen_moves={wen_moves}'


def walks_digest(scramble, d: Diagram, size_cap: int, wen_moves: bool) -> str:
    """sha256 over every seed's serialized walk result, in seed order."""
    h = hashlib.sha256()
    for seed in SEEDS:
        out = scramble(d, seed, N_MOVES, size_cap, wen_moves)
        h.update(f'seed {seed}\n{serialize(out)}\0'.encode())
    return h.hexdigest()


def stored_digests() -> dict[str, str]:
    return json.loads(DIGEST_PATH.read_text())


def main() -> None:
    sys.path.insert(0, str(HERE))
    from conftest import CORPUS_TEXT
    from scramble_reference import reference_scramble
    digests = {}
    for name, text in sorted(CORPUS_TEXT.items()):
        for size_cap in CAPS:
            for wen_moves in (True, False):
                digests[case_key(name, size_cap, wen_moves)] = walks_digest(
                    reference_scramble, parse(text), size_cap, wen_moves)
    DIGEST_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + '\n')


if __name__ == '__main__':
    main()
