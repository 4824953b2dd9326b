"""Built-in verification battery: all checks pass, reports are reproducible,
and a deliberately corrupted dependency is caught."""

import dataclasses
import json
from types import SimpleNamespace

import pytest

import slipflow.critical
import slipflow.spectrum
import slipflow.verification
from slipflow.findings import write_report
from slipflow.numerics import build_basis
from slipflow.verification import CHECK_NAMES, verify_all


@pytest.fixture(scope="module")
def report():
    return verify_all(seed=0)


class TestBattery:
    def test_every_check_passes(self, report):
        failed = [c.name for c in report if c.status != "ok"]
        assert failed == []

    def test_names_match_the_exported_list(self, report):
        assert tuple(c.name for c in report) == CHECK_NAMES
        assert len(CHECK_NAMES) == 14

    def test_margins_are_within_budget(self, report):
        for c in report:
            assert c.bound == 1.0, c.name
            assert 0.0 <= c.value <= 1.0, c.name

    def test_coinciding_branches_are_held_to_the_gram_allowances(self, report):
        # the cluster case k = 16, mu = 0.5 mu_c, slip (1, 1) on the 48-function
        # basis: its two coinciding rates stay A-orthogonal to roundoff
        detail = {c.name: c for c in report}["eigenfunction_quality"].detail
        assert detail["cluster_norm_defect"] <= 1e-10
        assert detail["cluster_orthogonality_defect"] <= 1e-10

    def test_report_structure(self, report, tmp_path):
        # each check is a finding whose value is its margin
        written = json.loads(write_report(tmp_path / "r.json", report, seed=0).read_text())
        assert written["seed"] == 0
        for c in written["findings"]:
            assert set(c) == {"name", "value", "bound", "status", "cause", "detail"}


class TestDeterminism:
    def test_reports_are_byte_identical(self, report):
        again = verify_all(seed=0)
        a = json.dumps([c._asdict() for c in report], sort_keys=True)
        b = json.dumps([c._asdict() for c in again], sort_keys=True)
        assert a == b

    def test_battery_builds_each_basis_once(self, report, monkeypatch):
        real = slipflow.verification.build_basis
        sizes = []

        def counting(N):
            sizes.append(N)
            return real(N)

        monkeypatch.setattr(slipflow.verification, "build_basis", counting)
        checks = verify_all(seed=0)
        assert sorted(sizes) == [48, 64]
        assert [c.value for c in checks] == [c.value for c in report]

    def test_verify_all_matches_report(self, report, tmp_path):
        written = json.loads(write_report(tmp_path / "r.json", report).read_text())
        assert [c["name"] for c in written["findings"]] == [c.name for c in report]
        assert [c["value"] for c in written["findings"]] == [c.value for c in report]


class TestTamperDetection:
    def test_corrupted_closed_form_is_flagged(self, monkeypatch):
        # scale the closed-form threshold by 1%; the cross-validation checks
        # must notice because the variational threshold no longer agrees
        real = slipflow.critical.mu_c_closed_form
        monkeypatch.setattr(
            slipflow.critical,
            "mu_c_closed_form",
            lambda k, slip: 1.01 * real(k, slip),
        )
        tampered = verify_all(seed=0)
        failed = {c.name for c in tampered if c.status == "fail"}
        assert "critical_variational_agreement" in failed
        assert "critical_closed_form" in failed

    def test_count_above_the_inertia_bound_is_named(self, monkeypatch):
        # a spectrum with a positive rate reads a Galerkin count of 3, which
        # two excused marginal branches would match to one root; the oracle
        # check still fails on the inertia bound of 2
        solve = slipflow.verification.solve_spectrum
        roots = slipflow.spectrum.determinant_roots

        def three(pencil):
            spec = solve(pencil)
            return dataclasses.replace(spec, positive_count=3) if spec.positive_count else spec

        monkeypatch.setattr(slipflow.verification, "solve_spectrum", three)
        monkeypatch.setattr(slipflow.spectrum, "determinant_roots",
                            lambda prob: dataclasses.replace(roots(prob), marginal=2))
        check = slipflow.verification.check_spectrum_oracle
        margin, detail = check(SimpleNamespace(basis64=build_basis(64)))
        assert margin == 2.0
        causes = detail["inertia_violations"]
        assert len(causes) == 3
        cause = ": positive count 3 exceeds 2, the inertia bound"
        assert all(c.endswith(cause) for c in causes)
        assert causes[0].startswith("k = 1, mu = 0.5:")
