"""Static guards on the package sources: modules use each other's public
names only, no thread or process pools come back without a measurement
that shows they pay, and no module pulls in an import that startup pays for."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bicforge"


def _imports():
    paths = sorted(SRC.glob("*.py"))
    assert {p.name for p in paths} >= {"cli.py", "criterion.py", "solver.py"}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield f"{path.name}:{node.lineno}", node


def test_no_private_import_between_package_modules():
    bad = [f"{where} from {'.' * node.level}{node.module or ''} import {alias.name}"
           for where, node in _imports()
           if isinstance(node, ast.ImportFrom) and node.level > 0
           for alias in node.names if alias.name.startswith("_")]
    assert not bad


def test_no_concurrent_futures():
    bad = []
    for where, node in _imports():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level == 0 and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        bad += [f"{where} {name}" for name in names
                if name == "concurrent" or name.startswith("concurrent.")]
    assert not bad


def test_no_scipy_signal():
    # scipy.signal adds about 0.45 s to a ~0.7 s `import bicforge.cli`; the
    # criterion's chirp-z transform is written on scipy.fft for that reason
    bad = []
    for where, node in _imports():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level == 0 and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        bad += [f"{where} {name}" for name in names
                if name == "scipy.signal" or name.startswith("scipy.signal.")]
    assert not bad
