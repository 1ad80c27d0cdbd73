"""The names the benchmark reaches into src by, checked without running it.

bench/tracer.py wraps each (owner, attr) of its WRAPPED table through
owner.__dict__, and bench/*.py import sqatk names directly, so a src
refactor that moves or renames one of them breaks only the traced bench
run, and so do a flag or config key that bench/workloads.py passes.
These tests read bench/ and change nothing in it.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from sqatk import cli
from sqatk import frontend as fe

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


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_bench_stage_argv_parses_and_every_config_key_is_accepted(tmp_path, monkeypatch):
    """A CLI flag or config key that the bench passes and src drops makes
    every bench run exit 2 or 1; here it fails without running one."""
    workloads = _load_workloads(monkeypatch)
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS.values():
        prepared = workloads.Prepared(manifest=tmp_path / "manifest.csv", config=tmp_path / "model.cfg",
                                      checkpoint=tmp_path / "score.ckpt")
        stages = workloads.stage_argv(workload, prepared, tmp_path / "it")
        assert [stage for stage, _ in stages] == list(workload.stages)
        for stage, argv in stages:
            assert parser.parse_args(argv).command == stage
        prepared.config.write_text(workload.config_text())
        assert cli.load_config_file(prepared.config)  # raises CliError on an unknown key


def test_the_clip_length_the_tracer_adds_up_is_an_audio_clip_property():
    """tracer.py's frontend.audio_s count reads each decoded clip's duration_s."""
    assert fe.AudioClip(np.zeros(480), 48000).duration_s == 0.01
