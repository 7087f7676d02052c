import json
import os
import subprocess
import sys
from fractions import Fraction as QQ
from pathlib import Path

import pytest

from weldskein import cli, statesum
from weldskein import moves as mv
from weldskein.algebra import (DeltaFraction, LaurentPoly, Polynomial,
                               to_alpha_beta)
from weldskein.diagram import parse
from weldskein.skein import CoefficientSystem, bracket, y_invariant

from conftest import CORPUS_TEXT


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in CORPUS_TEXT.items():
        p = tmp_path / f'{name}.wld'
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(*argv):
    return cli.main(list(argv))


class TestEval:
    def test_unlink_value(self, files, capsys):
        assert run('eval', files['unlink2']) == 0
        assert capsys.readouterr().out.strip() == '4'

    def test_virtual_hopf_welded_family(self, files, capsys):
        assert run('eval', files['virtual_hopf'], '--mode', 'welded',
                   '--nu', '-1') == 0
        assert capsys.readouterr().out.strip() \
            == '(-4*a^2 + 4*a*b*r) / (b^2 - a^2)'

    def test_lambda_form(self, files, capsys):
        assert run('eval', files['virtual_hopf'], '--form', 'lambda',
                   '--set', 'r=1', '--set', 's=1') == 0
        assert capsys.readouterr().out.strip() == '4'

    def test_lambda_unknot_oracle(self, files, capsys):
        # oracle: the bracket of a lone circle is t = -2, writhe 0
        circle = bracket(parse(CORPUS_TEXT['unknot']),
                         CoefficientSystem.extended())
        assert circle == DeltaFraction.from_int(-2)
        assert run('eval', files['unknot'], '--form', 'lambda') == 0
        assert capsys.readouterr().out \
            == LaurentPoly.const(-2, ('lambda',)).render() + '\n'

    def test_lambda_unlink_already_degree_zero(self, files, capsys):
        assert run('eval', files['unlink2'], '--form', 'lambda') == 0
        assert capsys.readouterr().out \
            == LaurentPoly.const(4, ('lambda',)).render() + '\n'

    def test_lambda_virtual_hopf_against_independent_expansion(self, files,
                                                                capsys):
        # oracle: the three smoothing states of the single crossing, written
        # out with plain fraction arithmetic
        a, b, r = (Polynomial.var(n) for n in 'abr')
        t = DeltaFraction(Polynomial.const(-2))
        states = (DeltaFraction(a) * t * t,
                  DeltaFraction(b) * t * DeltaFraction(r),
                  DeltaFraction(b) * t * DeltaFraction(r))
        total = DeltaFraction.from_int(0)
        for s in states:
            total = total + s
        oracle = DeltaFraction(r) * DeltaFraction(-(r * a) - b, 1) * total
        oracle = oracle.substitute({'r': 1, 's': 1})
        lp = to_alpha_beta(oracle)
        assert lp.homogeneous_degree() == 0
        assert run('eval', files['virtual_hopf'], '--form', 'lambda',
                   '--set', 'r=1', '--set', 's=1') == 0
        assert capsys.readouterr().out == lp.dehomogenize().render() + '\n'

    def test_lambda_requires_unit_r_s(self, files, capsys):
        assert run('eval', files['unknot'], '--form', 'lambda',
                   '--set', 'r=2') == 1
        assert "--set expects r=1|-1 or s=1|-1, got 'r=2'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize('sets', (('r=1', 'r=-1'), ('s=1', 's=1')))
    def test_repeated_set_name_rejected(self, files, capsys, sets):
        name = sets[0][0]
        assert run('eval', files['hopf_pos'], '--json', '--set', sets[0],
                   '--set', sets[1]) == 1
        out, err = capsys.readouterr()
        assert out == ''
        assert err == f'error: --set gives {name} more than once\n'

    @pytest.mark.parametrize('name, cs, family', (
        ('wen_hopf', CoefficientSystem.extended(), ('--mode', 'extended')),
        ('braid_link', CoefficientSystem.welded(1),
         ('--mode', 'welded', '--nu', '1')),
        ('braid_link', CoefficientSystem.welded(-1),
         ('--mode', 'welded', '--nu', '-1')),
        ('virtual_trefoil', CoefficientSystem.welded(None),
         ('--mode', 'welded', '--nu', 'sym'))))
    def test_eval_runs_no_state_sum(self, files, capsys, monkeypatch, name,
                                    cs, family):
        expected = y_invariant(parse(CORPUS_TEXT[name]), cs).render()

        def no_kernel(*args):
            raise AssertionError('eval reached the state-sum kernel')

        monkeypatch.setattr(statesum, 'smoothing_histogram', no_kernel)
        assert run('eval', files[name], *family) == 0
        assert capsys.readouterr().out == expected + '\n'

    def test_lambda_requires_extended(self, files, capsys):
        assert run('eval', files['hopf_pos'], '--mode', 'welded', '--nu', '-1',
                   '--form', 'lambda') == 1

    def test_lambda_inhomogeneous_image_exits_2(self, files, capsys,
                                                 monkeypatch):
        # no diagram reaches this today: a degree-2 image stands in for an
        # evaluator bug
        lp = LaurentPoly(('alpha', 'beta'), {(1, 1, 0, 0): QQ(3, 2)})
        monkeypatch.setattr(cli, 'to_alpha_beta', lambda value: lp)
        assert run('eval', files['trefoil'], '--form', 'lambda') == 2
        out, err = capsys.readouterr()
        assert out == ''
        assert err == 'error: not homogeneous of degree 0: 3/2*alpha*beta\n'

    def test_wens_rejected_under_welded_minus(self, files, capsys):
        assert run('eval', files['wen_hopf'], '--mode', 'welded',
                   '--nu', '-1') == 1
        err = capsys.readouterr().err
        assert 'nu = 1' in err

    def test_missing_file(self, capsys, tmp_path):
        assert run('eval', str(tmp_path / 'none.wld')) == 1

    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path):
        p = tmp_path / 'bad.wld'
        p.write_bytes(b'\xffX+ 1 2 2 1\n')
        assert run('eval', str(p)) == 1
        out, err = capsys.readouterr()
        assert out == ''
        assert err == (f'error: {p}: not UTF-8 text '
                       f'(byte 0xff at offset 0)\n')

    def test_unwritable_output_is_an_input_error(self, files, capsys,
                                                 tmp_path):
        out = tmp_path / 'no' / 'such' / 'out.txt'
        assert run('eval', files['unlink2'], '-o', str(out)) == 1
        out_text, err = capsys.readouterr()
        assert out_text == ''
        assert err.startswith(f'error: cannot write {out}: ')

    def test_parse_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / 'broken.wld'
        p.write_text('X+ 1 2 3\n')
        assert run('eval', str(p)) == 1

    def test_json_output_stable(self, files, capsys):
        assert run('eval', files['unlink2'], '--json') == 0
        first = capsys.readouterr().out
        assert run('eval', files['unlink2'], '--json') == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload['value'] == '4'
        assert payload['family'] == 'extended (nu=1)'

    def test_output_file(self, files, tmp_path):
        out = tmp_path / 'value.txt'
        assert run('eval', files['unlink2'], '-o', str(out)) == 0
        assert out.read_text().strip() == '4'

    def test_threads_flag_same_answer(self, files, capsys):
        assert run('eval', files['trefoil'], '--mode', 'welded',
                   '--nu', 'sym') == 0
        one = capsys.readouterr().out
        assert run('eval', files['trefoil'], '--mode', 'welded',
                   '--nu', 'sym', '--threads', '4') == 0
        assert capsys.readouterr().out == one


class TestInfo:
    def test_hopf(self, files, capsys):
        assert run('info', files['hopf_pos'], '--json') == 0
        data = json.loads(capsys.readouterr().out)
        assert data['writhe'] == 2
        assert data['virtual_writhe'] == 0
        assert data['wens'] == 0
        assert data['components'] == 2

    def test_virtual_hopf(self, files, capsys):
        assert run('info', files['virtual_hopf'], '--json') == 0
        data = json.loads(capsys.readouterr().out)
        assert (data['writhe'], data['virtual_writhe'],
                data['components']) == (1, 1, 2)

    def test_loop_file(self, files, capsys):
        assert run('info', files['unknot'], '--json') == 0
        assert json.loads(capsys.readouterr().out)['components'] == 1


class TestScramble:
    def test_deterministic_and_equivalent(self, files, tmp_path, capsys):
        out1 = tmp_path / 's1.wld'
        out2 = tmp_path / 's2.wld'
        for out in (out1, out2):
            assert run('scramble', files['hopf_pos'], '--seed', '11',
                       '--moves', '25', '--size-cap', '12',
                       '-o', str(out)) == 0
        assert out1.read_text() == out2.read_text()
        # scramble walks the full extended move set, so compare there
        from weldskein.skein import CoefficientSystem, y_invariant
        d0 = parse(CORPUS_TEXT['hopf_pos'])
        d1 = parse(out1.read_text())
        cs = CoefficientSystem.extended()
        assert y_invariant(d1, cs) == y_invariant(d0, cs)


    @pytest.mark.parametrize('moves, code', [('-3', 1), ('0', 0)])
    def test_negative_moves_rejected(self, files, capsys, moves, code):
        assert run('scramble', files['hopf_pos'], '--moves', moves) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ('', 'error: --moves must be at least 0, '
                                      'got -3\n')
        else:
            assert out == CORPUS_TEXT['hopf_pos'] + '\n'

    def test_negative_size_cap_rejected(self, files, capsys):
        assert run('scramble', files['hopf_pos'], '--size-cap', '-1') == 1
        assert capsys.readouterr() == (
            '', 'error: --size-cap must be at least 0, got -1\n')


class TestCheckInvariance:
    @pytest.mark.parametrize('option', ['--trials', '--moves', '--size-cap'])
    def test_negative_counts_rejected(self, files, capsys, option):
        assert run('check-invariance', files['kink_pos'], option, '-2',
                   '--json') == 1
        out, err = capsys.readouterr()
        assert out == ''
        assert err == f'error: {option} must be at least 0, got -2\n'

    def test_zero_trials_pass(self, files, capsys):
        assert run('check-invariance', files['kink_pos'], '--trials', '0',
                   '--json') == 0
        data = json.loads(capsys.readouterr().out)
        assert (data['ok'], data['trials']) == (True, 0)

    def test_passes_on_unknot(self, files, capsys):
        assert run('check-invariance', files['kink_pos'], '--trials', '10',
                   '--moves', '20', '--mode', 'welded', '--nu', 'sym') == 0
        assert 'ok:' in capsys.readouterr().out

    def test_passes_on_hopf_extended(self, files, capsys):
        assert run('check-invariance', files['wen_hopf'], '--trials', '8',
                   '--moves', '15', '--json') == 0
        data = json.loads(capsys.readouterr().out)
        assert data['ok'] is True

    def test_wen_circle_scrambles(self, tmp_path, capsys):
        # T1- and V1- can leave a one-wen circle 'W a a' mid-scramble
        path = tmp_path / 'wen3.wld'
        path.write_text('W a b\nW b c\nW c a\n')
        for seed in range(100):
            assert run('check-invariance', str(path), '--trials', '1',
                       '--moves', '15', '--size-cap', '12',
                       '--seed', str(seed)) == 0, seed
        capsys.readouterr()

    def test_corrupted_move_table_detected(self, files, capsys, monkeypatch):
        # negative control: break R2 pair insertion so it inserts two
        # same-sign crossings, then expect a reported mismatch
        real = mv._apply_unchecked

        def corrupted(d, site):
            if site.kind is mv.MoveKind.R2_PLUS:
                from weldskein.moves import _Builder
                b = _Builder(d)
                e, f = site.anchors
                me, e2, mf, f2 = b.fresh(), b.fresh(), b.fresh(), b.fresh()
                b.rewire_consumer(e, e2)
                b.rewire_consumer(f, f2)
                b.add_classical(1, e, me, f, mf)
                b.add_classical(1, me, e2, mf, f2)
                return b.finalize()
            return real(d, site)

        monkeypatch.setattr(mv, '_apply_unchecked', corrupted)
        code = run('check-invariance', files['hopf_pos'], '--trials', '40',
                   '--moves', '12', '--mode', 'welded', '--nu', 'sym', '--json')
        assert code == 2
        data = json.loads(capsys.readouterr().out)
        assert data['ok'] is False
        assert data['failures'][0]['seed'] is not None


class TestVerifyMoves:
    def test_generic_emits_systems(self, capsys):
        assert run('verify-moves') == 0
        out = capsys.readouterr().out
        assert 'a*y + b*x = 0' in out
        assert 'a*x + b*y - 1 = 0' in out
        assert 'a*z*r + b*z + c*x*r + c*y + c*z*t = 0' in out

    def test_solved_families(self, capsys):
        assert run('verify-moves', '--mode', 'extended', '--json') == 0
        data = json.loads(capsys.readouterr().out)
        assert data['all_as_expected'] is True
        t4 = next(m for m in data['moves'] if m['move'] == 't4')
        assert t4['satisfied'] is True

        assert run('verify-moves', '--mode', 'welded', '--nu', '-1',
                   '--json') == 0
        data = json.loads(capsys.readouterr().out)
        assert data['all_as_expected'] is True
        t4 = next(m for m in data['moves'] if m['move'] == 't4')
        assert t4['satisfied'] is False and t4['residuals']

        assert run('verify-moves', '--mode', 'welded', '--nu', '1',
                   '--json') == 0
        data = json.loads(capsys.readouterr().out)
        assert data['all_as_expected'] is True
        assert all(m['satisfied'] is not False for m in data['moves'])
        t4 = next(m for m in data['moves'] if m['move'] == 't4')
        assert t4['satisfied'] is True and not t4['residuals']

        assert run('verify-moves', '--mode', 'welded', '--nu', 'sym',
                   '--json') == 0
        data = json.loads(capsys.readouterr().out)
        assert data['all_as_expected'] is True
        t4 = next(m for m in data['moves'] if m['move'] == 't4')
        assert t4['satisfied'] is False and t4['residuals']

    def test_generic_mode_rejects_nu(self, capsys):
        for nu in ('1', '-1', 'sym'):
            assert run('verify-moves', '--mode', 'generic', '--nu', nu) == 1
            out, err = capsys.readouterr()
            assert out == ''
            assert err == ('error: generic mode takes no --nu; '
                           'use --mode welded\n')


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / 'src'
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, '-m', 'weldskein', 'verify-moves', '--mode', 'welded',
         '--nu', '-1', '--json'],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data['family'] == 'welded (nu=-1)'
    assert data['all_as_expected'] is True
    proc = subprocess.run([sys.executable, '-m', 'weldskein', 'verify-moves',
                           '--mode', 'generic', '--nu', '1'],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith('error: generic mode takes no --nu')
