"""What a cold ``python -m repro <cmd>`` loads, checked in fresh processes.

Every check here starts a new interpreter, because an in-process test
runs after other tests have already imported the whole package: a
missing deferred import or a stray eager one would pass there and still
break (or slow down) a user's first command.  The import-set checks
compare module names, never timings.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
REPO_ROOT = os.path.dirname(SRC_ROOT)

#: Every ``python -m repro`` subcommand.
SUBCOMMANDS = (
    "compile",
    "run",
    "analyze",
    "attack",
    "bench",
    "suite",
    "chaos",
    "campaign",
    "profile",
    "scenarios",
    "serve",
    "loadgen",
    "top",
    "audit",
)

#: Modules (and their submodules) a ``run`` or ``attack`` job never
#: executes, so it must not load them either.
OFF_THE_RUN_PATH = (
    "repro.hardware.tracec",
    "repro.hardware.blockc",
    "repro.perf",
    "repro.metrics",
    "repro.robustness",
    "repro.serve",
    "repro.workloads.generator",
    "repro.workloads.nginx",
    "repro.attacks.bruteforce",
    "repro.observability.aggregate",
    "repro.observability.audit",
    "repro.observability.slo",
    "repro.ir.parser",
    "multiprocessing",
)

#: Runs ``python -m repro ARGS...`` through runpy, then writes the names
#: in ``sys.modules`` and the exit code to the file named by argv[1].
_RUN_AND_LIST = """
import json, runpy, sys
out, args = sys.argv[1], sys.argv[2:]
sys.argv = ["repro", *args]
code = 0
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

#: Runs the statement in argv[2], then lists ``sys.modules`` as above.
_EXEC_AND_LIST = """
import json, sys
exec(sys.argv[2])
with open(sys.argv[1], "w") as handle:
    json.dump({"code": 0, "modules": sorted(sys.modules)}, handle)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT
    env.pop("REPRO_INTERPRETER", None)
    return env


def _fresh(argv, timeout=120):
    return subprocess.run(
        [sys.executable, *argv],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO_ROOT,
    )


def _loaded(tmp_path, script, *args):
    """(exit code, loaded module names) of one fresh process."""
    out = tmp_path / "modules.json"
    proc = _fresh(["-c", script, str(out), *args])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    return report["code"], set(report["modules"])


def _off_path(modules):
    return sorted(
        name
        for name in modules
        for prefix in OFF_THE_RUN_PATH
        if name == prefix or name.startswith(prefix + ".")
    )


@pytest.fixture(scope="module")
def quickstart_path(tmp_path_factory):
    """The README quickstart victim (``examples/quickstart.py``) as a file."""
    path = os.path.join(REPO_ROOT, "examples", "quickstart.py")
    spec = importlib.util.spec_from_file_location("quickstart_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    target = tmp_path_factory.mktemp("cold") / "quickstart.c"
    target.write_text(module.SOURCE)
    return str(target)


class TestImportSet:
    def test_import_repro_loads_no_submodule(self, tmp_path):
        _, modules = _loaded(tmp_path, _EXEC_AND_LIST, "import repro")
        loaded = sorted(name for name in modules if name.startswith("repro."))
        assert loaded == []

    def test_run_loads_only_what_it_runs(self, tmp_path, quickstart_path):
        code, modules = _loaded(
            tmp_path, _RUN_AND_LIST, "run", quickstart_path, "--scheme", "pythia"
        )
        assert code == 0
        assert _off_path(modules) == []

    def test_attack_loads_only_what_it_runs(self, tmp_path):
        code, modules = _loaded(tmp_path, _RUN_AND_LIST, "attack", "pac_reuse")
        assert code == 0
        assert _off_path(modules) == []

    def test_serve_worker_preloads_trace_tier_and_scenarios(self, tmp_path):
        _, modules = _loaded(tmp_path, _EXEC_AND_LIST, "import repro.serve.worker")
        assert "repro.hardware.tracec" in modules
        assert "repro.attacks.scenarios" in modules


class TestFreshProcessSmoke:
    def test_subcommand_list_is_complete(self):
        parser = build_parser()
        commands = next(
            action.choices
            for action in parser._actions
            if action.dest == "command"
        )
        assert sorted(commands) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help(self, command):
        proc = _fresh(["-m", "repro", command, "--help"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"usage: repro {command}")

    def test_scenarios(self):
        proc = _fresh(["-m", "repro", "scenarios"])
        assert proc.returncode == 0, proc.stderr
        assert "pac_reuse" in proc.stdout
        assert "[campaign family" in proc.stdout

    def test_compile(self, quickstart_path):
        proc = _fresh(["-m", "repro", "compile", quickstart_path])
        assert proc.returncode == 0, proc.stderr
        assert "define i64 @main()" in proc.stdout

    def test_analyze(self, quickstart_path):
        proc = _fresh(["-m", "repro", "analyze", quickstart_path])
        assert proc.returncode == 0, proc.stderr
        assert "refined (Pythia) set:" in proc.stdout

    def test_run_trace_interpreter(self, quickstart_path):
        proc = _fresh(
            [
                "-m",
                "repro",
                "run",
                quickstart_path,
                "--interpreter",
                "trace",
                "--input",
                "alice",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert "hello alice" in proc.stdout
        assert "[pythia] status=ok" in proc.stderr
