"""End-to-end daemon tests: one subprocess, every op, the error taxonomy."""

from __future__ import annotations

import json

import pytest

from repro.serve import ServeClient

from .conftest import TINY_SOURCE


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One shared daemon + connected client for this module's tests.

    The request-level tests are read-only against daemon state (no
    shutdown, no crash ops), so sharing one boot keeps the module fast.
    """
    import os
    import subprocess
    import sys

    import repro
    from repro.serve import wait_for_server

    tmp_path = tmp_path_factory.mktemp("serve")
    socket_path = str(tmp_path / "serve.sock")
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            "--workers",
            "2",
            "--cache-dir",
            str(tmp_path / "cache"),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    wait_for_server(socket_path=socket_path, deadline_s=30)
    client = ServeClient(socket_path=socket_path).connect()
    yield client
    client.close()
    proc.terminate()
    proc.wait(timeout=15)


def test_ping_reports_protocol(live):
    response = live.request("ping")
    assert response["status"] == "ok"
    assert response["result"] == {"pong": True, "protocol": "repro-serve-v1"}


def test_run_executes_and_reports_architecture(live):
    response = live.request(
        "run", source=TINY_SOURCE, scheme="pythia", interpreter="trace"
    )
    assert response["status"] == "ok"
    result = response["result"]
    assert result["ok"] and result["status"] == "ok"
    assert result["output"] == "acc=877\n"
    assert result["cycles"] > 0 and result["steps"] > 0
    assert result["interpreter"] == "trace"


def test_block_interpreter_is_rejected(live):
    response = live.request(
        "run", source=TINY_SOURCE, scheme="pythia", interpreter="block"
    )
    assert response["status"] == "error"
    assert response["code"] == 2
    assert response["error"]["type"] == "UnknownInterpreterError"


def test_warm_compile_is_byte_identical_to_cold(live):
    source = TINY_SOURCE.replace("i * 3", "i * 5")
    cold = live.request("compile", source=source, scheme="dfi", emit_module=True)
    warm = live.request("compile", source=source, scheme="dfi", emit_module=True)
    assert cold["status"] == warm["status"] == "ok"
    assert cold["result"]["registry"] == "cold"
    assert warm["result"]["registry"] == "warm"
    assert warm["result"]["module"] == cold["result"]["module"]
    assert warm["result"]["module_digest"] == cold["result"]["module_digest"]
    # the warm response body differs from cold only in the warmth marker
    trimmed = {k: v for k, v in cold["result"].items() if k not in ("registry", "timings")}
    trimmed_warm = {
        k: v for k, v in warm["result"].items() if k not in ("registry", "timings")
    }
    assert trimmed == trimmed_warm


def test_run_responses_are_deterministic_across_temperature(live):
    source = TINY_SOURCE.replace("i * 3", "i * 7")
    cold = live.request("run", source=source, scheme="pythia", seed=11)
    warm = live.request("run", source=source, scheme="pythia", seed=11)
    assert cold["result"] == warm["result"] or {
        k: v for k, v in cold["result"].items() if k != "registry"
    } == {k: v for k, v in warm["result"].items() if k != "registry"}


def test_attack_op_replays_scenarios(live):
    blocked = live.request("attack", scenario="privilege_escalation", scheme="pythia")
    assert blocked["status"] == "ok"
    assert blocked["result"]["outcome"] in ("blocked", "trapped", "detected")
    landed = live.request("attack", scenario="privilege_escalation", scheme="vanilla")
    assert landed["status"] == "ok"
    assert landed["result"]["outcome"] == "success"


def test_profile_op_returns_report(live):
    response = live.request("profile", source=TINY_SOURCE, scheme="vanilla")
    assert response["status"] == "ok"
    assert "block_counts" in response["result"]["report"]


def test_stats_op_counts_requests(live):
    before = live.request("stats")["result"]
    live.request("ping")
    after = live.request("stats")["result"]
    assert after["requests"] >= before["requests"] + 2
    assert after["workers"] == 2


# -- the error taxonomy over the wire ------------------------------------------


def test_frontend_rejection_is_code_4(live):
    response = live.request("run", source="int main( {", scheme="pythia")
    assert response["status"] == "error"
    assert response["code"] == 4
    assert response["error"]["type"] in ("ParseError", "LexError", "SemaError")


def test_unknown_scheme_is_code_3(live):
    response = live.request("run", source=TINY_SOURCE, scheme="mte")
    assert response["status"] == "error"
    assert response["code"] == 3
    assert "unknown scheme" in response["error"]["message"]


def test_unknown_scenario_is_code_3(live):
    response = live.request("attack", scenario="does_not_exist")
    assert response["status"] == "error"
    assert response["code"] == 3


def test_unknown_op_is_code_3(live):
    response = live.request("explode")
    assert response["status"] == "error"
    assert response["code"] == 3
    assert "unknown op" in response["error"]["message"]


def test_missing_field_is_code_3(live):
    response = live.request("run")
    assert response["status"] == "error"
    assert response["code"] == 3
    assert "requires" in response["error"]["message"]


def test_malformed_line_is_answered_not_fatal(live):
    response = live.send_raw_line(b"this is not json\n")
    assert response["status"] == "error"
    assert response["code"] == 3
    assert response["id"] is None
    # the connection survives the garbage line
    assert live.request("ping")["status"] == "ok"


def test_debug_crash_is_rejected_without_debug_ops(live):
    response = live.request("_debug_crash", source=TINY_SOURCE)
    assert response["status"] == "error"
    assert response["code"] == 3
