"""repro.attacks -- the attacker's side of the evaluation.

Scripted payload injection at input channels, the paper's attack
scenarios as runnable MiniC programs, and the canary brute-force model
of §4.4.
"""

from .. import _lazy_exports

__all__ = [
    "AttackController",
    "BruteForceOutcome",
    "build_scenarios",
    "empirical_success_rate",
    "expected_tries",
    "first_order_probability",
    "Injection",
    "overflow_payload",
    "Payload",
    "Scenario",
    "simulate_bruteforce",
    "success_probability",
]

# Every export loads on first use (PEP 562): replaying a scenario never
# loads the brute-force model.
_LAZY = {
    "BruteForceOutcome": "bruteforce",
    "empirical_success_rate": "bruteforce",
    "expected_tries": "bruteforce",
    "first_order_probability": "bruteforce",
    "simulate_bruteforce": "bruteforce",
    "success_probability": "bruteforce",
    "AttackController": "controller",
    "Injection": "controller",
    "Payload": "controller",
    "overflow_payload": "controller",
    "Scenario": "scenarios",
    "build_scenarios": "scenarios",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)
