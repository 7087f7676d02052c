"""verify-moves output, byte for byte, in every mode.

The files under ``tests/golden/`` hold the stdout of ``verify-moves`` for
the generic family, the welded family with nu = 1, -1 and symbolic nu, and
the extended family, each plain and with ``--json``.  Regenerate them only
for an intended change of output:

    PYTHONPATH=src python -m weldskein.cli verify-moves --mode welded --nu -1 \\
        -o tests/golden/verify-moves-welded-nu-1.txt
"""
from pathlib import Path

import pytest

from weldskein import cli

GOLDEN = Path(__file__).resolve().parent / 'golden'

MODES = {
    'generic': ['--mode', 'generic'],
    'welded-nu1': ['--mode', 'welded', '--nu', '1'],
    'welded-nu-1': ['--mode', 'welded', '--nu', '-1'],
    'welded-sym': ['--mode', 'welded', '--nu', 'sym'],
    'extended': ['--mode', 'extended'],
}


@pytest.mark.parametrize('as_json', (False, True), ids=('plain', 'json'))
@pytest.mark.parametrize('mode', sorted(MODES))
def test_verify_moves_output_is_golden(mode, as_json, capsys):
    argv = ['verify-moves', *MODES[mode]] + (['--json'] if as_json else [])
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ''
    path = GOLDEN / f'verify-moves-{mode}.{"json" if as_json else "txt"}'
    assert out.encode('utf-8') == path.read_bytes()
