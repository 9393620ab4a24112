"""The public API surface: everything the README promises."""

import importlib

import pytest

import repro

#: Packages whose ``__init__`` re-exports some or all names lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.hardware",
    "repro.attacks",
    "repro.workloads",
    "repro.observability",
    "repro.robustness",
    "repro.ir",
)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_lazy_package_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        listed = dir(package)
        for name in package.__all__:
            getattr(package, name)  # AttributeError when it cannot resolve
            assert name in listed, name
        stale = set(package._LAZY) - set(package.__all__)
        assert not stale, f"_LAZY entries missing from __all__: {sorted(stale)}"

    def test_version(self):
        assert repro.__version__

    def test_schemes_constant(self):
        assert repro.SCHEMES == ("vanilla", "cpa", "pythia", "dfi")

    def test_readme_quickstart(self):
        """The exact flow the README's quickstart shows."""
        source = """
        int main() {
            char name[16];
            char role[16];
            strcpy(role, "user");
            gets(name);
            if (strncmp(role, "root", 4) == 0) { return 1; }
            return 0;
        }
        """
        module = repro.compile_source(source)
        protected = repro.protect(module, scheme="pythia")
        result = repro.CPU(protected.module).run(inputs=[b"alice"])
        assert result.ok

        attack = repro.AttackController().add(
            "gets", repro.overflow_payload(b"eve", 16, b"root\x00")
        )
        attacked = repro.CPU(protected.module, attack=attack).run()
        assert attacked.detected

    def test_analysis_entry_points(self, listing1_module):
        report = repro.analyze_module(repro.clone_module(listing1_module))
        assert report.refined_variables
        security = repro.build_security_report(report)
        assert security.total_branches >= 1

    def test_workload_entry_points(self):
        profile = repro.get_profile("519.lbm_r")
        program = repro.generate_program(profile)
        measurement = repro.measure_program(
            program, schemes=("vanilla", "pythia")
        )
        assert measurement.runtime_overhead("pythia") > 0

    def test_scenarios_entry_point(self):
        scenarios = repro.build_scenarios()
        assert len(scenarios) == 9

    def test_ir_roundtrip_entry_points(self, listing1_module):
        text = repro.print_module(listing1_module)
        module = repro.parse_module(text)
        repro.verify_module(module)
