"""The reproduction audit: every quantitative claim in the paper."""

import pytest

from repro.harness.claims import (
    CLAIMS,
    FUNCTIONAL_CLAIMS,
    render_audit,
    verify_claims,
    verify_functional_claims,
)


@pytest.fixture(scope="module")
def timing_audit():
    return verify_claims(images=64)


def test_every_timing_claim_passes(timing_audit):
    failures = [r for r in timing_audit if not r.passed]
    assert not failures, render_audit(failures)


def test_audit_covers_all_registered_claims(timing_audit):
    assert len(timing_audit) == len(CLAIMS)
    assert len({r.claim.claim_id for r in timing_audit}) == len(CLAIMS)


def test_anchored_claims_are_tight(timing_audit):
    """Calibration anchors must deviate by well under a percent."""
    anchored = {"cpu-single-latency", "gpu-single-latency",
                "vpu-single-latency"}
    for r in timing_audit:
        if r.claim.claim_id in anchored:
            paper = r.claim.paper_value
            assert abs(r.measured - paper) < 0.01 * abs(paper), \
                r.claim.claim_id


def test_claims_carry_quotes():
    for claim in CLAIMS + FUNCTIONAL_CLAIMS:
        assert claim.quote
        assert claim.section.startswith(("§", "abstract"))


def test_functional_claims_pass():
    results = verify_functional_claims(scale="smoke")
    failures = [r for r in results if not r.passed]
    assert not failures, render_audit(failures)
    assert len(results) == len(FUNCTIONAL_CLAIMS)


def test_render_audit(timing_audit):
    text = render_audit(timing_audit)
    assert "claims verified" in text
    assert f"{len(CLAIMS)}/{len(CLAIMS)}" in text
