"""repro.workloads -- benchmark program synthesis.

Per-benchmark statistical profiles for the paper's 15 SPEC applications
plus nginx, the deterministic MiniC program generator realising them,
and the nginx-style transfer-rate workload.
"""

from .. import _lazy_exports

__all__ = [
    "ALL_PROFILES",
    "BenchmarkProfile",
    "DURATION_BATCHES",
    "GeneratedProgram",
    "generate_program",
    "get_profile",
    "NGINX_PROFILE",
    "nginx_program",
    "NginxRun",
    "ProgramGenerator",
    "profile_names",
    "run_nginx",
    "SPEC_PROFILES",
    "transfer_rate_overhead",
]

# Every export loads on first use (PEP 562): listing profile names never
# loads the program generator or the nginx workload.
_LAZY = {
    "GeneratedProgram": "generator",
    "ProgramGenerator": "generator",
    "generate_program": "generator",
    "DURATION_BATCHES": "nginx",
    "NginxRun": "nginx",
    "nginx_program": "nginx",
    "run_nginx": "nginx",
    "transfer_rate_overhead": "nginx",
    "ALL_PROFILES": "profiles",
    "BenchmarkProfile": "profiles",
    "NGINX_PROFILE": "profiles",
    "SPEC_PROFILES": "profiles",
    "get_profile": "profiles",
    "profile_names": "profiles",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)
