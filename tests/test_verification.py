"""Built-in verification battery: all checks pass, reports are reproducible,
and a deliberately corrupted dependency is caught."""

import json

import pytest

import slipflow.critical
import slipflow.verification
from slipflow.verification import CHECK_NAMES, verification_report, verify_all


@pytest.fixture(scope="module")
def report():
    return verification_report(seed=0)


class TestBattery:
    def test_every_check_passes(self, report):
        assert report["all_passed"] is True
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == []

    def test_names_match_the_exported_list(self, report):
        assert tuple(c["name"] for c in report["checks"]) == CHECK_NAMES
        assert len(CHECK_NAMES) == 14

    def test_margins_are_within_budget(self, report):
        for c in report["checks"]:
            assert c["margin"] <= 1.0, c["name"]
            assert c["margin"] >= 0.0, c["name"]

    def test_report_structure(self, report):
        assert report["seed"] == 0
        assert isinstance(report["tool_version"], str)
        for c in report["checks"]:
            assert set(c) == {"name", "passed", "margin", "detail"}


class TestDeterminism:
    def test_reports_are_byte_identical(self, report):
        again = verification_report(seed=0)
        a = json.dumps(report, sort_keys=True)
        b = json.dumps(again, sort_keys=True)
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
        assert [c.margin for c in checks] == [c["margin"] for c in report["checks"]]

    def test_verify_all_matches_report(self, report):
        checks = verify_all(seed=0)
        assert [c.name for c in checks] == [c["name"] for c in report["checks"]]
        assert [c.margin for c in checks] == [c["margin"] for c in report["checks"]]


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
        tampered = verification_report(seed=0)
        assert tampered["all_passed"] is False
        failed = {c["name"] for c in tampered["checks"] if not c["passed"]}
        assert "critical_variational_agreement" in failed
        assert "critical_closed_form" in failed
