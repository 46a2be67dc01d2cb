import math

import pytest

from biquat import clinalg
from biquat.verify import verify_suite


class TestVerifySuite:
    def test_all_laws_pass(self):
        report = verify_suite(seed=7, trials=5, size=3)
        failing = [law.name for law in report.laws if not law.passed]
        assert failing == []
        assert report.all_passed

    def test_deterministic_render(self):
        a = verify_suite(seed=11, trials=3, size=2).render()
        b = verify_suite(seed=11, trials=3, size=2).render()
        assert a == b

    def test_seed_changes_samples_not_structure(self):
        a = verify_suite(seed=1, trials=2, size=2)
        b = verify_suite(seed=2, trials=2, size=2)
        assert [l.name for l in a.laws] == [l.name for l in b.laws]

    def test_exact_laws_have_zero_residual(self):
        report = verify_suite(seed=3, trials=4, size=3)
        for law in report.laws:
            if law.tolerance == 0.0:
                assert law.max_residual == 0.0, law.name

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_suite(trials=0)
        with pytest.raises(ValueError):
            verify_suite(size=0)

    def test_report_mentions_measured_exponent(self):
        report = verify_suite(seed=5, trials=2, size=2)
        law = next(l for l in report.laws if l.name == "det.scaling-exponent")
        assert law.note == "measured exponent n"

    def test_a_raising_trial_is_a_failed_law(self, monkeypatch):
        # A conjugated determinant makes the scaling probe raise; the law
        # fails with an infinite residual and the suite still reports.
        det = clinalg.det
        monkeypatch.setattr(clinalg, "det", lambda m: det(m).conjugate())
        report = verify_suite(seed=42, trials=5, size=3)
        failing = {law.name: law for law in report.laws if not law.passed}
        assert "det.triangular" in failing and not report.all_passed
        law = failing["det.scaling-exponent"]
        assert math.isinf(law.max_residual)
        assert law.note.startswith("raised ValueError: measured ratio")
        assert "result: FAIL" in report.render().splitlines()

    @pytest.mark.parametrize("size", [3, 5])
    def test_similarity_gate_fails_when_every_fingerprint_matches(self, monkeypatch, size):
        # the same-trace negative is the one the central traces cannot decide
        monkeypatch.setattr(clinalg, "fingerprints_match", lambda fa, fb, gap: True)
        report = verify_suite(seed=42, trials=20, size=size)
        assert [law.name for law in report.laws if not law.passed] == ["spectral.similarity-detection"]


class TestLawHelpers:
    HELPERS = (
        "cayley_hamilton_residual",
        "charpoly_coefficient_scale",
        "scaling_exponent_probe",
        "triangular_central_det",
    )

    def test_helpers_live_in_verify_not_in_the_package(self):
        import biquat
        import biquat.verify

        for name in self.HELPERS:
            assert callable(getattr(biquat.verify, name)), name
            assert not hasattr(biquat, name), name
            assert name not in biquat.__all__
        assert not hasattr(biquat, "NotTriangularError")
        assert "NotTriangularError" not in biquat.__all__
        assert biquat.verify.NotTriangularError is biquat.errors.NotTriangularError
