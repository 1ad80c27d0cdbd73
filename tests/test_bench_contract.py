"""The names the benchmark reaches into src by, checked without running it.

bench/tracer.py wraps each (owner, attr) of its WRAPPED table through
owner.__dict__, and bench/*.py import sqatk names directly, so a src
refactor that moves or renames one of them breaks only the traced bench
run. These tests read bench/ and change nothing in it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_sqatk_import_in_bench_resolves():
    """Each `from sqatk... import name` and `import sqatk...` in bench/*.py."""
    checked, missing = 0, []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sqatk":
                module = importlib.import_module(node.module)
                names = [alias.name for alias in node.names]
                missing += [f"{path.name}: {node.module}.{n}" for n in names if not hasattr(module, n)]
                checked += len(names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "sqatk":
                        importlib.import_module(alias.name)
                        checked += 1
    assert checked > 0 and missing == []


def test_every_wrapped_name_is_in_its_owners_own_dict():
    wrapped = _load_tracer().WRAPPED
    assert wrapped
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in wrapped if attr not in vars(owner)]
    assert missing == []
