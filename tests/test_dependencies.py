"""The package's runtime dependency is NumPy alone: src imports nothing
else outside the standard library, and scoring a clip through the CLI
loads no SciPy module. Training sets the thread count of the OpenBLAS
that NumPy's wheel bundles, through the calls pinned here."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sqatk
from sqatk import parallel
from sqatk.checkpoint import save_checkpoint
from sqatk.cli import main
from sqatk.synth import generate_corpus
from sqatk.transformer import SpectrogramTransformer, desk_config

SRC = Path(sqatk.__file__).resolve().parent
ALLOWED = sys.stdlib_module_names | {"numpy"}

# Runs the CLI with its arguments, then names every scipy module loaded.
SCORE_SCRIPT = """
import sys
from sqatk.cli import main
code = main(sys.argv[1:])
print("scipy modules:", sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
sys.exit(code)
"""


def _absolute_imports(path: Path):
    """The top-level name of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_src_imports_only_numpy_and_the_standard_library():
    foreign = sorted(
        f"{path.name}: {name}"
        for path in SRC.glob("*.py")
        for name in _absolute_imports(path)
        if name not in ALLOWED
    )
    assert foreign == []


def test_scoring_a_clip_loads_no_scipy(tmp_path):
    manifest = generate_corpus(tmp_path / "corpus", n_clips=1, seed=0, duration_s=1.0)
    assert main(["featurize", "--manifest", str(manifest), "--out", str(tmp_path / "feats")]) == 0
    model = SpectrogramTransformer(desk_config(max_duration_s=1.0))
    ckpt = tmp_path / "ast.ckpt"
    save_checkpoint(ckpt, model.kind, model.config_echo(), {k: p.data for k, p in model.params.items()})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    argv = ["predict", "--ckpt", str(ckpt), "--manifest", str(manifest), "--features", str(tmp_path / "feats"),
            "--out", str(tmp_path / "pred.csv")]
    result = subprocess.run(
        [sys.executable, "-c", SCORE_SCRIPT, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "scipy modules: []"
    assert (tmp_path / "pred.csv").is_file()


def test_numpy_bundles_an_openblas_whose_thread_count_can_be_set():
    """fit pins OpenBLAS to one thread through the get and set calls of
    numpy.libs/libscipy_openblas64_-*.so; without them it trains on one
    worker. The calls reach the library NumPy's matmul runs on, the one
    bench/run.py reads the thread count of."""
    calls = parallel._openblas_thread_calls()
    assert calls is not None
    get, set_ = calls
    previous = get()
    try:
        for count in (1, 2):
            set_(count)
            assert get() == count
    finally:
        set_(previous)
    assert get() == previous
