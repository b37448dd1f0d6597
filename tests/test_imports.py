import ast
from pathlib import Path

import weylzeros

PACKAGE = Path(weylzeros.__file__).resolve().parent

# private names montecarlo imports so that perfbench can patch its spans there
ALLOWED = {
    ("montecarlo", "dists", "_from_uniforms"),
    ("montecarlo", "roots", "_hunt_same_sign_cell"),
    ("montecarlo", "roots", "_refined_metric_min"),
    ("montecarlo", "roots", "_suspicious_cells"),
}


def private_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.endswith("__"):
                    yield path.stem, node.module, name


def test_no_private_imports_between_modules():
    found = {imp for path in sorted(PACKAGE.glob("*.py")) for imp in private_imports(path)}
    assert found <= ALLOWED, sorted(found - ALLOWED)
