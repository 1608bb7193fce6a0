"""Derivation plumbing and the three stem reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stemcert
from stemcert.derivation import (
    DerivationStep,
    StemReport,
    StepStatus,
    replay_step,
    report_from_json,
    report_to_json,
)
from stemcert.errors import VerificationError
from stemcert.reports import build_stem_report, eta_order_chain


# --------------------------------------------------------------------------
# Step and report invariants
# --------------------------------------------------------------------------


def test_computed_step_requires_check_evidence():
    with pytest.raises(ValueError):
        DerivationStep(claim="x", status=StepStatus.COMPUTED, citation="y")
    for evidence in (
        {"value": 1},
        {"check": "jorder_triple", "inputs": {"t": 2}},
        {"check": "jorder_triple", "inputs": [2], "outputs": {"value": 24}},
    ):
        with pytest.raises(ValueError):
            DerivationStep(claim="x", status=StepStatus.COMPUTED, citation="y", evidence=evidence)


def test_asserted_step_carries_no_evidence():
    with pytest.raises(ValueError):
        DerivationStep(
            claim="x",
            status=StepStatus.PAPER_ASSERTED,
            citation="y",
            evidence={"check": "anything"},
        )


def test_replay_rejects_unknown_check():
    step = DerivationStep(
        claim="x",
        status=StepStatus.COMPUTED,
        citation="y",
        evidence={"check": "no_such_check", "inputs": {}, "outputs": {}},
    )
    with pytest.raises(VerificationError):
        replay_step(step, {})


def test_report_requires_the_known_conclusions():
    # The conclusion is what the last computed step outputs, for stems 1-3.
    asserted = DerivationStep("eta^2 is essential", StepStatus.PAPER_ASSERTED, "EHP")
    with pytest.raises(ValueError, match="must output its stem, order, generator"):
        StemReport((asserted,))
    steps = build_stem_report(3).steps
    # Without order_pin the last computed step, fg_congruence, names no order.
    with pytest.raises(ValueError, match="must output its stem, order, generator"):
        StemReport(tuple(s for s in steps if s is not steps[-2]))
    pin = steps[-2]
    stem_four = DerivationStep(
        pin.claim,
        pin.status,
        pin.citation,
        {**pin.evidence, "outputs": {**pin.evidence["outputs"], "stem": 4}},
    )
    with pytest.raises(ValueError, match="stem must be 1, 2 or 3"):
        StemReport((*steps[:-2], stem_four))


# --------------------------------------------------------------------------
# The three reports
# --------------------------------------------------------------------------


EXPECTED = {1: ("Z2", "eta"), 2: ("Z2", "eta^2"), 3: ("Z24", "nu")}


@pytest.mark.parametrize("stem", [1, 2, 3])
def test_reports_conclude_correctly_and_replay(stem):
    report = build_stem_report(stem)
    assert (report.group, report.generator) == EXPECTED[stem]
    assert report.replay() is True
    assert len(report.computed_steps()) >= 1
    assert len(report.asserted_steps()) >= 1


def test_stem_two_ehp_step_is_asserted():
    report = build_stem_report(2)
    asserted_texts = [
        (s.claim + " " + s.citation).lower() for s in report.asserted_steps()
    ]
    assert any("ehp" in text for text in asserted_texts)


def test_build_stem_report_rejects_other_stems():
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            build_stem_report(bad)


# --------------------------------------------------------------------------
# Serialization: exact round trip
# --------------------------------------------------------------------------


@pytest.mark.parametrize("stem", [1, 2, 3])
def test_report_json_round_trip_is_exact(stem):
    report = build_stem_report(stem)
    blob = report_to_json(report)
    # through an actual JSON string, as the CLI emits it
    recovered = report_from_json(json.loads(json.dumps(blob)))
    assert recovered == report
    assert recovered.replay() is True


def test_tampered_report_fails_replay():
    blob = report_to_json(build_stem_report(3))
    for step in blob["steps"]:
        if step["evidence"] and "value" in step["evidence"]["outputs"]:
            step["evidence"]["outputs"]["value"] = 23
            break
    else:
        pytest.fail("expected a step with a 'value' output")
    with pytest.raises(VerificationError):
        report_from_json(blob).replay()


def test_replay_rejects_a_claim_its_check_does_not_state():
    blob = json.loads(json.dumps(report_to_json(build_stem_report(3))))
    (step,) = [s for s in blob["steps"] if s["evidence"] and s["evidence"]["check"] == "order_pin"]
    step["claim"] = "the order of nu divides 7; the only such number is 7"
    with pytest.raises(VerificationError, match="the check claims"):
        report_from_json(blob).replay()


@pytest.mark.parametrize("stem", [1, 2, 3])
def test_editing_any_computed_claim_fails_replay(stem):
    blob = json.loads(json.dumps(report_to_json(build_stem_report(stem))))
    for i, step in enumerate(blob["steps"]):
        if step["status"] == "Computed":
            steps = [dict(s) for s in blob["steps"]]
            steps[i]["claim"] = step["claim"].replace(" ", "  ", 1)
            with pytest.raises(VerificationError, match="the check claims"):
                report_from_json({**blob, "steps": steps}).replay()


# A value for every input and output of every Computed step, keyed by
# (stem, check, "inputs" or "outputs", field).  Each makes the step's claim
# false.  Lists of Adams indices become empty: the e-invariant does not
# depend on the index, so any non-empty list of indices keeps the claim true.
ETA_CHAIN_TAMPERS = {
    ("einv_nonsplit", "inputs", "space"): "hp2",
    ("einv_nonsplit", "inputs", "ks"): [],
    ("einv_nonsplit", "outputs", "e"): "1/3",
    ("einv_nonsplit", "outputs", "verdict"): "Splits",
    ("eta_square_identity", "outputs", "a"): -2,
    ("eta_square_identity", "outputs", "b"): 3,
    ("ko_realify_eta_square", "outputs", "trivial_rank"): 0,
    ("ko_realify_eta_square", "outputs", "hopf_count"): 3,
    ("ko_realify_eta_square", "outputs", "rank"): 3,
    ("ko_realify_eta_square", "outputs", "reduced"): 1,
    ("order_bracket_first_stem", "outputs", "e"): "1/3",
    ("order_bracket_first_stem", "outputs", "lower"): 3,
    ("order_bracket_first_stem", "outputs", "upper"): 3,
    ("order_bracket_first_stem", "outputs", "stem"): 2,
    ("order_bracket_first_stem", "outputs", "order"): 3,
    ("order_bracket_first_stem", "outputs", "generator"): "nu",
}
TAMPERS = {
    **{(stem, *key): value for stem in (1, 2) for key, value in ETA_CHAIN_TAMPERS.items()},
    (2, "composite_killed_by_two", "outputs", "multiplier"): 4,
    (2, "composite_killed_by_two", "outputs", "stem"): 1,
    (2, "composite_killed_by_two", "outputs", "order"): 4,
    (2, "composite_killed_by_two", "outputs", "generator"): "eta",
    (3, "jorder_triple", "inputs", "t"): 4,
    (3, "jorder_triple", "outputs", "value"): 23,
    (3, "einv_lower_bound", "inputs", "space"): "s2-smash-cp2",
    (3, "einv_lower_bound", "inputs", "ks"): [],
    (3, "einv_lower_bound", "outputs", "e"): "1/6",
    (3, "einv_lower_bound", "outputs", "lower"): 24,
    (3, "fg_congruence", "inputs", "n"): 2,
    (3, "fg_congruence", "inputs", "nonequiv"): [24, 0],
    (3, "fg_congruence", "inputs", "equiv"): [12, 0],
    (3, "fg_congruence", "outputs", "B"): 12,
    (3, "fg_congruence", "outputs", "cells_equiv"): [48, 52],
    (3, "fg_congruence", "outputs", "cells_nonequiv"): [96, 100],
    (3, "fg_congruence", "outputs", "nonzero_multiple"): 24,
    (3, "order_pin", "outputs", "upper"): 48,
    (3, "order_pin", "outputs", "lower_multiple"): 24,
    (3, "order_pin", "outputs", "not_dividing"): 24,
    (3, "order_pin", "outputs", "stem"): 2,
    (3, "order_pin", "outputs", "order"): 12,
    (3, "order_pin", "outputs", "generator"): "eta",
}


def test_tamper_table_covers_every_evidence_field():
    fields = {
        (stem, step.evidence["check"], part, key)
        for stem in (1, 2, 3)
        for step in build_stem_report(stem).computed_steps()
        for part in ("inputs", "outputs")
        for key in step.evidence[part]
    }
    assert fields == set(TAMPERS)


# A field name is unique within its step (a claim is formatted from inputs
# and outputs together), so (stem, check, field) names each tamper.
@pytest.mark.parametrize(
    "stem,check,part,field", list(TAMPERS), ids=[f"{s}-{c}-{f}" for s, c, _, f in TAMPERS]
)
def test_every_single_field_tamper_fails_replay(stem, check, part, field):
    blob = json.loads(json.dumps(report_to_json(build_stem_report(stem))))
    (evidence,) = [
        s["evidence"]
        for s in blob["steps"]
        if s["evidence"] and s["evidence"]["check"] == check
    ]
    assert evidence[part][field] != TAMPERS[stem, check, part, field]
    evidence[part][field] = TAMPERS[stem, check, part, field]
    with pytest.raises(VerificationError):
        report_from_json(blob).replay()


def _moves_and_deletions(steps):
    """Each computed step deleted, and moved to the other end of ``steps``:
    the last to the front, any other to the back."""
    last = max(i for i, s in enumerate(steps) if s["status"] == "Computed")
    for i, step in enumerate(steps):
        if step["status"] == "Computed":
            rest = steps[:i] + steps[i + 1:]
            yield rest
            yield [step, *rest] if i == last else [*rest, step]


@pytest.mark.parametrize("stem", [1, 2, 3])
def test_deleting_or_moving_any_computed_step_fails_replay(stem):
    blob = json.loads(json.dumps(report_to_json(build_stem_report(stem))))
    cases = list(_moves_and_deletions(blob["steps"]))
    assert len(cases) == 2 * len(build_stem_report(stem).computed_steps())
    for steps in cases:
        # A report whose last computed step concludes nothing is refused when
        # it is read back; any other fails when it replays.
        with pytest.raises((ValueError, VerificationError)):
            report_from_json({**blob, "steps": steps}).replay()


@pytest.mark.parametrize("field,value", [("stem", 2), ("group", "Z4"), ("generator", "eta^2")])
def test_report_from_json_rejects_a_conclusion_its_steps_do_not_reach(field, value):
    blob = json.loads(json.dumps(report_to_json(build_stem_report(1))))
    blob[field] = value
    with pytest.raises(VerificationError, match="last computed step"):
        report_from_json(blob)


# --------------------------------------------------------------------------
# The order-2 chain
# --------------------------------------------------------------------------


def test_eta_order_chain_shape():
    earlier = {}
    steps = eta_order_chain(earlier)
    assert len(steps) == 5
    statuses = [s.status for s in steps]
    assert statuses.count(StepStatus.COMPUTED) == 4
    assert statuses.count(StepStatus.PAPER_ASSERTED) == 1
    # The chain records each computed step's outputs for the steps after it.
    assert earlier == {s.evidence["check"]: s.evidence["outputs"] for s in steps if s.evidence}
    assert earlier["order_bracket_first_stem"]["order"] == 2


def test_eta_order_chain_replays():
    earlier = {}
    for step in eta_order_chain({}):
        assert replay_step(step, earlier) is True
    assert earlier["order_bracket_first_stem"]["generator"] == "eta"


def test_chain_replay_detects_tampering():
    step = eta_order_chain({})[1]
    tampered = type(step)(
        claim=step.claim,
        status=step.status,
        citation=step.citation,
        evidence={**step.evidence, "outputs": {**step.evidence["outputs"], "b": 3}},
    )
    with pytest.raises(VerificationError):
        replay_step(tampered, {})


def test_a_step_replays_only_after_the_steps_it_reads():
    bracket = eta_order_chain({})[-1]
    with pytest.raises(VerificationError, match="einv_nonsplit"):
        replay_step(bracket, {})


def test_number_theory_module_loads_no_report_machinery():
    code = (
        "import json, sys, stemcert.jorder\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('stemcert'))))"
    )
    # The child imports the same ``stemcert`` as this suite.
    package_parent = str(Path(stemcert.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(json.loads(proc.stdout))
    assert "stemcert.jorder" in loaded
    assert not loaded & {"stemcert.derivation", "stemcert.einv", "stemcert.kring"}
