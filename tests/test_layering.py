"""Package modules use each other only through public names.

A ``_``-prefixed name is private to the module that defines it.  This test
reads every module of ``src/weldskein`` and fails if one imports such a
name from another weldskein module, or reaches one as an attribute of an
imported weldskein module (``statesum._sweep_order``).
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / 'src' / 'weldskein'


def _private_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    modules: set[str] = set()         # local names bound to weldskein modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or '').startswith('weldskein'):
                continue
            for alias in node.names:
                if alias.name.startswith('_'):
                    found.append(f'line {node.lineno}: imports {alias.name}')
                elif node.module == 'weldskein':
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith('weldskein'):
                    modules.add(alias.asname or alias.name.split('.')[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith('_')
                and isinstance(node.value, ast.Name)
                and node.value.id in modules and not node.attr.startswith('__')):
            found.append(f'line {node.lineno}: uses {node.value.id}.{node.attr}')
    return found


def test_no_private_cross_module_names():
    modules = sorted(PACKAGE.glob('*.py'))
    assert modules
    found = {p.name: uses for p in modules if (uses := _private_uses(p))}
    assert found == {}
