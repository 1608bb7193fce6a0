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
    with pytest.raises(ValueError):
        DerivationStep(
            claim="x",
            status=StepStatus.COMPUTED,
            citation="y",
            evidence={"value": 1},
        )


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
        evidence={"check": "no_such_check"},
    )
    with pytest.raises(VerificationError):
        replay_step(step)


def test_report_requires_the_known_conclusions():
    with pytest.raises(ValueError):
        StemReport(stem=1, group="Z24", generator="eta", steps=())
    with pytest.raises(ValueError):
        StemReport(stem=4, group="Z2", generator="eta", steps=())


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
        if step["evidence"] and "value" in step["evidence"]:
            step["evidence"]["value"] = "23"
            break
    else:
        pytest.fail("expected a step with a 'value' evidence key")
    with pytest.raises(VerificationError):
        report_from_json(blob).replay()


# A value for every evidence field other than ``check`` of every Computed
# step, keyed by (stem, check, field).  Each makes the step's claim false.
# Lists of Adams indices become empty: the e-invariant does not depend on the
# index, so any non-empty list of indices keeps the claim true.
TAMPERS = {
    (1, "einv_nonsplit", "space"): "hp2",
    (1, "einv_nonsplit", "ks"): [],
    (1, "einv_nonsplit", "verdict"): "Splits",
    (1, "einv_nonsplit", "e"): "1/3",
    (1, "eta_square_identity", "a"): -2,
    (1, "eta_square_identity", "b"): 3,
    (1, "ko_realify_eta_square", "trivial_rank"): 0,
    (1, "ko_realify_eta_square", "hopf_count"): 3,
    (1, "ko_realify_eta_square", "rank"): 3,
    (1, "ko_realify_eta_square", "reduced"): 1,
    (1, "order_bracket_first_stem", "space"): "hp2",
    (1, "order_bracket_first_stem", "ks"): [],
    (1, "order_bracket_first_stem", "e"): "1/3",
    (1, "order_bracket_first_stem", "lower"): 3,
    (1, "order_bracket_first_stem", "upper"): 3,
    (2, "composite_killed_by_two", "space"): "hp2",
    (2, "composite_killed_by_two", "order_of_eta"): 3,
    (2, "composite_killed_by_two", "multiplier"): 4,
    (3, "jorder_triple", "t"): 4,
    (3, "jorder_triple", "value"): "23",
    (3, "einv_lower_bound", "space"): "s2-smash-cp2",
    (3, "einv_lower_bound", "ks"): [],
    (3, "einv_lower_bound", "e"): "1/6",
    (3, "einv_lower_bound", "lower"): 24,
    (3, "fg_congruence", "n"): 2,
    (3, "fg_congruence", "B"): "12",
    (3, "fg_congruence", "nonequiv"): [24, 0],
    (3, "fg_congruence", "equiv"): [12, 0],
    (3, "fg_congruence", "cells_equiv"): [48, 52],
    (3, "fg_congruence", "cells_nonequiv"): [96, 100],
    (3, "order_pin", "upper"): 48,
    (3, "order_pin", "lower_multiple"): 24,
    (3, "order_pin", "not_dividing"): 24,
    (3, "order_pin", "order"): 12,
}

# Tampers that still replay: these checks do not derive their inputs from the
# steps before them (ROADMAP item 7, reports as checked dataflow).
UNCAUGHT = {
    (2, "composite_killed_by_two", "multiplier"): "any multiple of 2 passes",
    (3, "order_pin", "lower_multiple"): "24 also leaves 24 as the only candidate",
}


def test_tamper_table_covers_every_evidence_field():
    fields = {
        (stem, step.evidence["check"], key)
        for stem in (1, 2, 3)
        for step in build_stem_report(stem).computed_steps()
        for key in step.evidence
        if key != "check"
    }
    assert fields == set(TAMPERS)


@pytest.mark.parametrize(
    "stem,check,field",
    [
        pytest.param(
            *key,
            marks=pytest.mark.xfail(strict=True, reason=UNCAUGHT[key])
            if key in UNCAUGHT
            else (),
        )
        for key in TAMPERS
    ],
    ids=lambda part: str(part),
)
def test_every_single_field_tamper_fails_replay(stem, check, field):
    blob = json.loads(json.dumps(report_to_json(build_stem_report(stem))))
    (evidence,) = [
        s["evidence"]
        for s in blob["steps"]
        if s["evidence"] and s["evidence"]["check"] == check
    ]
    assert evidence[field] != TAMPERS[stem, check, field]
    evidence[field] = TAMPERS[stem, check, field]
    with pytest.raises(VerificationError):
        report_from_json(blob).replay()


# --------------------------------------------------------------------------
# The order-2 chain
# --------------------------------------------------------------------------


def test_eta_order_chain_shape():
    steps = eta_order_chain()
    assert len(steps) == 4
    statuses = [s.status for s in steps]
    assert statuses.count(StepStatus.COMPUTED) == 3
    assert statuses.count(StepStatus.PAPER_ASSERTED) == 1


def test_eta_order_chain_replays():
    for step in eta_order_chain():
        assert replay_step(step) is True


def test_chain_replay_detects_tampering():
    step = eta_order_chain()[0]
    tampered = type(step)(
        claim=step.claim,
        status=step.status,
        citation=step.citation,
        evidence={**step.evidence, "b": 3},
    )
    with pytest.raises(VerificationError):
        replay_step(tampered)


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
