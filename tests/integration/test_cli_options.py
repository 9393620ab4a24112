"""The CLI's flag surface, pinned subcommand by subcommand.

Perfbench, CI and the test suite call ``python -m repro`` flags by
name, so every subcommand's option table -- option strings, dest,
default, type, choices, action, nargs, metavar, and the ``func`` it
dispatches to -- is held here as literal data.  A refactor of
``build_parser`` must leave this table unchanged.  ``repro bench``'s
report is pinned line for line as well.
"""

import argparse
import os

import pytest

from repro.cli import build_parser, main

BENCHMARKS = (
    "500.perlbench_r",
    "502.gcc_r",
    "505.mcf_r",
    "508.namd_r",
    "510.parest_r",
    "511.povray_r",
    "519.lbm_r",
    "520.omnetpp_r",
    "523.xalancbmk_r",
    "525.x264_r",
    "526.blender_r",
    "531.deepsjeng_r",
    "538.imagick_r",
    "541.leela_r",
    "557.xz_r",
    "nginx",
)
INTERPRETERS = ("decoded", "reference", "trace")
SCHEMES = ("vanilla", "cpa", "pythia", "dfi")

#: ``serve --workers`` defaults to the host's CPU count, clamped to 2..4.
WORKERS = max(2, min(4, os.cpu_count() or 2))

#: argparse action class -> the ``action=`` name that declares it.
ACTIONS = {
    argparse._StoreAction: "store",
    argparse._StoreTrueAction: "store_true",
    argparse._AppendAction: "append",
}

#: subcommand -> (func name, [(option strings, dest, default, type name,
#: choices, action, nargs, metavar), ...]) in declaration order.
OPTION_TABLE = {
    "compile": (
        "cmd_compile",
        [
            ((), "source", None, None, None, "store", None, None),
            (("--name",), "name", "module", None, None, "store", None, None),
            (("--mem2reg",), "mem2reg", False, None, None, "store_true", 0, None),
        ],
    ),
    "run": (
        "cmd_run",
        [
            ((), "source", None, None, None, "store", None, None),
            (("--name",), "name", "module", None, None, "store", None, None),
            (("--scheme",), "scheme", "pythia", None, SCHEMES, "store", None, None),
            (("--fields",), "fields", False, None, None, "store_true", 0, None),
            (("--seed",), "seed", 2024, "int", None, "store", None, None),
            (("--input",), "input", None, None, None, "append", None, None),
            (
                ("--interpreter",),
                "interpreter",
                None,
                None,
                INTERPRETERS,
                "store",
                None,
                None,
            ),
            (("--timings",), "timings", False, None, None, "store_true", 0, None),
            (
                ("--profile-out",),
                "profile_out",
                None,
                None,
                None,
                "store",
                None,
                "FILE",
            ),
            (("--profile-in",), "profile_in", None, None, None, "store", None, "FILE"),
            (("--trace-out",), "trace_out", None, None, None, "store", None, "FILE"),
            (
                ("--metrics-out",),
                "metrics_out",
                None,
                None,
                None,
                "store",
                None,
                "FILE",
            ),
            (("--events-out",), "events_out", None, None, None, "store", None, "FILE"),
        ],
    ),
    "analyze": (
        "cmd_analyze",
        [
            ((), "source", None, None, None, "store", None, None),
            (("--name",), "name", "module", None, None, "store", None, None),
            (("--verbose",), "verbose", False, None, None, "store_true", 0, None),
        ],
    ),
    "attack": (
        "cmd_attack",
        [
            ((), "scenario", None, None, None, "store", None, None),
        ],
    ),
    "bench": (
        "cmd_bench",
        [
            ((), "benchmark", None, None, BENCHMARKS, "store", None, "BENCHMARK"),
            (("--seed",), "seed", 2024, "int", None, "store", None, None),
            (
                ("--interpreter",),
                "interpreter",
                None,
                None,
                INTERPRETERS,
                "store",
                None,
                None,
            ),
            (("--profile-in",), "profile_in", None, None, None, "store", None, "FILE"),
            (("--trace-out",), "trace_out", None, None, None, "store", None, "FILE"),
            (
                ("--metrics-out",),
                "metrics_out",
                None,
                None,
                None,
                "store",
                None,
                "FILE",
            ),
            (("--events-out",), "events_out", None, None, None, "store", None, "FILE"),
        ],
    ),
    "suite": (
        "cmd_suite",
        [
            ((), "benchmark", None, None, None, "store", "*", "BENCHMARK"),
            (("--seed",), "seed", 2024, "int", None, "store", None, None),
            (("--jobs",), "jobs", 1, "int", None, "store", None, None),
            (
                ("--interpreter",),
                "interpreter",
                None,
                None,
                INTERPRETERS,
                "store",
                None,
                None,
            ),
            (
                ("--cache-dir",),
                "cache_dir",
                ".repro-cache",
                None,
                None,
                "store",
                None,
                None,
            ),
            (("--no-cache",), "no_cache", False, None, None, "store_true", 0, None),
            (("--timeout",), "timeout", None, "float", None, "store", None, None),
            (("--retries",), "retries", 0, "int", None, "store", None, None),
            (("--keep-going",), "keep_going", False, None, None, "store_true", 0, None),
            (("--manifest",), "manifest", None, None, None, "store", None, "FILE"),
            (("--trace-out",), "trace_out", None, None, None, "store", None, "FILE"),
            (
                ("--metrics-out",),
                "metrics_out",
                None,
                None,
                None,
                "store",
                None,
                "FILE",
            ),
            (("--events-out",), "events_out", None, None, None, "store", None, "FILE"),
        ],
    ),
    "chaos": (
        "cmd_chaos",
        [
            (("--plan",), "plan", None, None, None, "store", None, "FILE"),
            (
                ("--workload",),
                "workload",
                "nginx",
                None,
                BENCHMARKS,
                "store",
                None,
                "BENCHMARK",
            ),
            (("--seed",), "seed", 2024, "int", None, "store", None, None),
            (
                ("--interpreter",),
                "interpreter",
                None,
                None,
                INTERPRETERS,
                "store",
                None,
                None,
            ),
            (("--manifest",), "manifest", None, None, None, "store", None, "FILE"),
            (("--trace-out",), "trace_out", None, None, None, "store", None, "FILE"),
            (
                ("--metrics-out",),
                "metrics_out",
                None,
                None,
                None,
                "store",
                None,
                "FILE",
            ),
            (("--events-out",), "events_out", None, None, None, "store", None, "FILE"),
        ],
    ),
    "campaign": (
        "cmd_campaign",
        [
            (("--seed",), "seed", 2024, "int", None, "store", None, None),
            (("--budget",), "budget", 200, "int", None, "store", None, None),
            (
                ("--families",),
                "families",
                None,
                None,
                None,
                "store",
                None,
                "NAME[,NAME...]",
            ),
            (("--matrix-out",), "matrix_out", None, None, None, "store", None, "FILE"),
            (("--manifest",), "manifest", None, None, None, "store", None, "FILE"),
            (("--no-reduce",), "no_reduce", False, None, None, "store_true", 0, None),
            (("--trace-out",), "trace_out", None, None, None, "store", None, "FILE"),
            (
                ("--metrics-out",),
                "metrics_out",
                None,
                None,
                None,
                "store",
                None,
                "FILE",
            ),
            (("--events-out",), "events_out", None, None, None, "store", None, "FILE"),
        ],
    ),
    "profile": (
        "cmd_profile",
        [
            ((), "source", None, None, None, "store", None, None),
            (("--name",), "name", "module", None, None, "store", None, None),
            (("--scheme",), "scheme", "pythia", None, SCHEMES, "store", None, None),
            (("--seed",), "seed", 2024, "int", None, "store", None, None),
            (("--input",), "input", None, None, None, "append", None, None),
            (
                ("--interpreter",),
                "interpreter",
                None,
                None,
                INTERPRETERS,
                "store",
                None,
                None,
            ),
            (("--top",), "top", 10, "int", None, "store", None, None),
            (
                ("--profile-out",),
                "profile_out",
                None,
                None,
                None,
                "store",
                None,
                "FILE",
            ),
        ],
    ),
    "scenarios": (
        "cmd_scenarios",
        [
        ],
    ),
    "serve": (
        "cmd_serve",
        [
            (("--socket",), "socket", None, None, None, "store", None, "PATH"),
            (("--port",), "port", None, "int", None, "store", None, None),
            (("--workers",), "workers", WORKERS, "int", None, "store", None, None),
            (("--timeout",), "timeout", 60.0, "float", None, "store", None, None),
            (
                ("--drain-timeout",),
                "drain_timeout",
                30.0,
                "float",
                None,
                "store",
                None,
                None,
            ),
            (("--max-modules",), "max_modules", 32, "int", None, "store", None, None),
            (
                ("--cache-dir",),
                "cache_dir",
                ".repro-cache",
                None,
                None,
                "store",
                None,
                None,
            ),
            (("--no-cache",), "no_cache", False, None, None, "store_true", 0, None),
            (("--debug-ops",), "debug_ops", False, None, None, "store_true", 0, None),
            (("--slo",), "slo", None, None, None, "store", None, "FILE"),
            (("--trace-out",), "trace_out", None, None, None, "store", None, "FILE"),
            (
                ("--metrics-out",),
                "metrics_out",
                None,
                None,
                None,
                "store",
                None,
                "FILE",
            ),
            (("--events-out",), "events_out", None, None, None, "store", None, "FILE"),
        ],
    ),
    "loadgen": (
        "cmd_loadgen",
        [
            (("--socket",), "socket", None, None, None, "store", None, "PATH"),
            (("--port",), "port", None, "int", None, "store", None, None),
            (("--requests",), "requests", 200, "int", None, "store", None, None),
            (("--concurrency",), "concurrency", 8, "int", None, "store", None, None),
            (("--duration",), "duration", None, "float", None, "store", None, None),
            (("--mix",), "mix", None, None, None, "store", None, "OP=W[,OP=W...]"),
            (("--variants",), "variants", 3, "int", None, "store", None, None),
            (
                ("--size",),
                "size",
                "3s",
                None,
                ("3s", "30s", "300s"),
                "store",
                None,
                None,
            ),
            (
                ("--interpreter",),
                "interpreter",
                "trace",
                None,
                INTERPRETERS,
                "store",
                None,
                None,
            ),
            (("--seed",), "seed", 2024, "int", None, "store", None, None),
            (
                ("--connect-wait",),
                "connect_wait",
                10.0,
                "float",
                None,
                "store",
                None,
                None,
            ),
            (("--max-p99-ms",), "max_p99_ms", None, "float", None, "store", None, None),
            (("--report-out",), "report_out", None, None, None, "store", None, "FILE"),
            (("--events-out",), "events_out", None, None, None, "store", None, "FILE"),
        ],
    ),
    "top": (
        "cmd_top",
        [
            (("--socket",), "socket", None, None, None, "store", None, "PATH"),
            (("--port",), "port", None, "int", None, "store", None, None),
            (("--interval",), "interval", 2.0, "float", None, "store", None, None),
            (("--frames",), "frames", None, "int", None, "store", None, None),
            (("--once",), "once", False, None, None, "store_true", 0, None),
        ],
    ),
    "audit": (
        "cmd_audit",
        [
            ((), "events", None, None, None, "store", None, None),
            (("--json-out",), "json_out", None, None, None, "store", None, "FILE"),
        ],
    ),
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _option_table(parser: argparse.ArgumentParser) -> tuple:
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        rows.append(
            (
                tuple(action.option_strings),
                action.dest,
                action.default,
                getattr(action.type, "__name__", action.type),
                tuple(action.choices) if action.choices is not None else None,
                ACTIONS.get(type(action), type(action).__name__),
                action.nargs,
                action.metavar,
            )
        )
    return parser._defaults["func"].__name__, rows


def test_subcommand_set_and_order():
    assert list(_subparsers(build_parser())) == list(OPTION_TABLE)


@pytest.mark.parametrize("command", list(OPTION_TABLE))
def test_option_table(command):
    subparser = _subparsers(build_parser())[command]
    func, rows = OPTION_TABLE[command]
    assert _option_table(subparser) == (func, rows)


#: ``repro bench 519.lbm_r`` stdout: cycles and overheads are
#: deterministic (seeded CPU, generated program), so the whole report
#: is pinned line for line.
BENCH_LBM_STDOUT = [
    "519.lbm_r: 420 IR instructions",
    "  vanilla  cycles=      7743",
    "  cpa      cycles=      9597 overhead=  23.9% pa=402",
    "  pythia   cycles=      8283 overhead=   7.0% pa=36",
    "  dfi      cycles=     11380 overhead=  47.0% pa=0",
]


def test_bench_stdout_lines(capsys):
    code = main(["bench", "519.lbm_r"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == BENCH_LBM_STDOUT


def test_bench_benign_failure_is_one_line_exit_2(capsys, monkeypatch):
    """A scheme whose benign run fails (here: a step limit no program
    fits in) ends ``bench`` with exit 2 and one diagnostic line."""
    from repro.hardware.cpu import CPU

    original_init = CPU.__init__

    def tiny_step_limit(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.max_steps = 50

    monkeypatch.setattr(CPU, "__init__", tiny_step_limit)
    code = main(["bench", "519.lbm_r"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == BENCH_LBM_STDOUT[:1]
    (line,) = captured.err.splitlines()
    assert line == (
        "repro: error: 519.lbm_r/vanilla: benign execution failed "
        "(limit: exceeded 50 steps)"
    )
