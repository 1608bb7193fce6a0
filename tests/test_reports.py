"""Derivation plumbing and the three stem reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stemcert
from stemcert.derivation import (
    COMPUTED,
    PAPER_ASSERTED,
    cited,
    replay,
    replay_step,
    stem_report,
)
from stemcert.errors import VerificationError
from stemcert.reports import build_stem_report, eta_order_chain


def _read_back(stem):
    """The stem's report as ``report --json`` prints it and a reader parses it."""
    return json.loads(json.dumps(build_stem_report(stem)))


def _computed(report):
    return [s for s in report["steps"] if s["status"] == COMPUTED]


def _asserted(report):
    return [s for s in report["steps"] if s["status"] == PAPER_ASSERTED]


# --------------------------------------------------------------------------
# Step and report invariants
# --------------------------------------------------------------------------


def test_computed_step_requires_check_evidence():
    for evidence in (
        None,
        {"value": 1},
        {"check": "jorder_triple", "inputs": {"t": 2}},
        {"check": "jorder_triple", "inputs": [2], "outputs": {"value": 24}},
    ):
        step = {"claim": "x", "status": COMPUTED, "citation": "y", "evidence": evidence}
        with pytest.raises(VerificationError, match="needs evidence"):
            replay_step(step, {})


def test_asserted_step_carries_no_evidence():
    step = {**cited("x", "y"), "evidence": {"check": "anything"}}
    with pytest.raises(VerificationError, match="carries no evidence"):
        replay_step(step, {})
    assert replay_step(cited("x", "y"), {}) is True


def test_replay_rejects_unknown_check():
    step = {
        "claim": "x",
        "status": COMPUTED,
        "citation": "y",
        "evidence": {"check": "no_such_check", "inputs": {}, "outputs": {}},
    }
    with pytest.raises(VerificationError):
        replay_step(step, {})


def test_report_requires_the_known_conclusions():
    # The conclusion is what the last computed step outputs, for stems 1-3.
    with pytest.raises(VerificationError, match="must output its stem, order, generator"):
        stem_report([cited("eta^2 is essential", "EHP")])
    steps = build_stem_report(3)["steps"]
    # Without order_pin the last computed step, fg_congruence, names no order.
    with pytest.raises(VerificationError, match="must output its stem, order, generator"):
        stem_report([s for s in steps if s is not steps[-2]])
    pin = steps[-2]
    stem_four = {
        **pin,
        "evidence": {**pin["evidence"], "outputs": {**pin["evidence"]["outputs"], "stem": 4}},
    }
    with pytest.raises(VerificationError, match="stem must be 1, 2 or 3"):
        stem_report([*steps[:-2], stem_four])


def _evidence(report, check):
    (step,) = [s for s in _computed(report) if s["evidence"]["check"] == check]
    return step["evidence"]


def _drop_concluding_step(report):
    report["steps"] = [s for s in report["steps"] if s not in _computed(report)[-1:]]


# Each edit makes the stem-3 report, as read back from JSON, malformed.
MALFORMED = {
    "unknown-status": lambda r: r["steps"][0].update(status="Checked"),
    "status-of-another-case": lambda r: r["steps"][0].update(status="computed"),
    "evidence-on-cited-step": lambda r: _asserted(r)[0].update(
        evidence={"check": "jorder_triple", "inputs": {"t": 2}, "outputs": {"value": 24}}
    ),
    "computed-without-evidence": lambda r: r["steps"][0].update(evidence=None),
    "evidence-without-check": lambda r: _evidence(r, "jorder_triple").pop("check"),
    "evidence-without-inputs": lambda r: _evidence(r, "jorder_triple").pop("inputs"),
    "evidence-without-outputs": lambda r: _evidence(r, "jorder_triple").pop("outputs"),
    "evidence-with-an-extra-key": lambda r: _evidence(r, "jorder_triple").update(n=1),
    "inputs-as-list": lambda r: _evidence(r, "jorder_triple").update(inputs=[2]),
    "outputs-as-list": lambda r: _evidence(r, "jorder_triple").update(outputs=[24]),
    "step-without-citation": lambda r: r["steps"][0].pop("citation"),
    "step-as-list": lambda r: r["steps"].__setitem__(0, list(r["steps"][0].values())),
    "concluding-step-deleted": _drop_concluding_step,
    "concluding-stem-four": lambda r: _evidence(r, "order_pin")["outputs"].update(stem=4),
    "no-steps": lambda r: r.update(steps=[]),
    "steps-as-dict": lambda r: r.update(steps=dict(enumerate(r["steps"]))),
    "report-without-generator": lambda r: r.pop("generator"),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED)
def test_malformed_report_fails_replay(edit):
    report = _read_back(3)
    edit(report)
    with pytest.raises(VerificationError):
        replay(report)


@pytest.mark.parametrize(
    "stem,check,field,value,stated",
    [
        (1, "order_bracket_first_stem", "stem", True, ("stem", True)),
        (3, "order_pin", "order", 24.0, ("group", "Z24.0")),
    ],
    ids=["stem-true", "order-float"],
)
def test_replay_compares_outputs_as_json(stem, check, field, value, stated):
    # True == 1 and 24.0 == 24 in Python, but not in the JSON a report is.
    report = _read_back(stem)
    _evidence(report, check)["outputs"][field] = value
    report[stated[0]] = stated[1]
    with pytest.raises(VerificationError, match="computed"):
        replay(report)


# --------------------------------------------------------------------------
# The three reports
# --------------------------------------------------------------------------


EXPECTED = {1: ("Z2", "eta"), 2: ("Z2", "eta^2"), 3: ("Z24", "nu")}


@pytest.mark.parametrize("stem", [1, 2, 3])
def test_reports_conclude_correctly_and_replay(stem):
    report = build_stem_report(stem)
    assert (report["stem"], report["group"], report["generator"]) == (stem, *EXPECTED[stem])
    assert replay(report) is True
    assert len(_computed(report)) >= 1
    assert len(_asserted(report)) >= 1


def test_stem_two_ehp_step_is_asserted():
    report = build_stem_report(2)
    asserted_texts = [
        (s["claim"] + " " + s["citation"]).lower() for s in _asserted(report)
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
    # through an actual JSON string, as the CLI emits it
    recovered = _read_back(stem)
    assert recovered == build_stem_report(stem)
    assert replay(recovered) is True


def test_tampered_report_fails_replay():
    report = _read_back(3)
    for step in _computed(report):
        if "value" in step["evidence"]["outputs"]:
            step["evidence"]["outputs"]["value"] = 23
            break
    else:
        pytest.fail("expected a step with a 'value' output")
    with pytest.raises(VerificationError):
        replay(report)


def test_replay_rejects_a_claim_its_check_does_not_state():
    report = _read_back(3)
    (step,) = [s for s in _computed(report) if s["evidence"]["check"] == "order_pin"]
    step["claim"] = "the order of nu divides 7; the only such number is 7"
    with pytest.raises(VerificationError, match="the check claims"):
        replay(report)


@pytest.mark.parametrize("stem", [1, 2, 3])
def test_editing_any_computed_claim_fails_replay(stem):
    report = _read_back(stem)
    for i, step in enumerate(report["steps"]):
        if step["status"] == COMPUTED:
            steps = [dict(s) for s in report["steps"]]
            steps[i]["claim"] = step["claim"].replace(" ", "  ", 1)
            with pytest.raises(VerificationError, match="the check claims"):
                replay({**report, "steps": steps})


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
        (stem, step["evidence"]["check"], part, key)
        for stem in (1, 2, 3)
        for step in _computed(build_stem_report(stem))
        for part in ("inputs", "outputs")
        for key in step["evidence"][part]
    }
    assert fields == set(TAMPERS)


# A field name is unique within its step (a claim is formatted from inputs
# and outputs together), so (stem, check, field) names each tamper.
@pytest.mark.parametrize(
    "stem,check,part,field", list(TAMPERS), ids=[f"{s}-{c}-{f}" for s, c, _, f in TAMPERS]
)
def test_every_single_field_tamper_fails_replay(stem, check, part, field):
    report = _read_back(stem)
    evidence = _evidence(report, check)
    assert evidence[part][field] != TAMPERS[stem, check, part, field]
    evidence[part][field] = TAMPERS[stem, check, part, field]
    with pytest.raises(VerificationError):
        replay(report)


def _moves_and_deletions(steps):
    """Each computed step deleted, and moved to the other end of ``steps``:
    the last to the front, any other to the back."""
    last = max(i for i, s in enumerate(steps) if s["status"] == COMPUTED)
    for i, step in enumerate(steps):
        if step["status"] == COMPUTED:
            rest = steps[:i] + steps[i + 1:]
            yield rest
            yield [step, *rest] if i == last else [*rest, step]


@pytest.mark.parametrize("stem", [1, 2, 3])
def test_deleting_or_moving_any_computed_step_fails_replay(stem):
    report = _read_back(stem)
    cases = list(_moves_and_deletions(report["steps"]))
    assert len(cases) == 2 * len(_computed(report))
    for steps in cases:
        with pytest.raises(VerificationError):
            replay({**report, "steps": steps})


@pytest.mark.parametrize(
    "field,value",
    [("stem", 2), ("stem", True), ("group", "Z4"), ("generator", "eta^2")],
    ids=["stem-2", "stem-True", "group-Z4", "generator-eta^2"],
)
def test_report_from_json_rejects_a_conclusion_its_steps_do_not_reach(field, value):
    report = _read_back(1)
    report[field] = value
    with pytest.raises(VerificationError, match="last computed step"):
        replay(report)


# --------------------------------------------------------------------------
# The order-2 chain
# --------------------------------------------------------------------------


def test_eta_order_chain_shape():
    earlier = {}
    steps = eta_order_chain(earlier)
    assert len(steps) == 5
    statuses = [s["status"] for s in steps]
    assert statuses.count(COMPUTED) == 4
    assert statuses.count(PAPER_ASSERTED) == 1
    # The chain records each computed step's outputs for the steps after it.
    assert earlier == {
        s["evidence"]["check"]: s["evidence"]["outputs"] for s in steps if s["evidence"]
    }
    assert earlier["order_bracket_first_stem"]["order"] == 2


def test_eta_order_chain_replays():
    earlier = {}
    for step in eta_order_chain({}):
        assert replay_step(step, earlier) is True
    assert earlier["order_bracket_first_stem"]["generator"] == "eta"


def test_chain_replay_detects_tampering():
    step = eta_order_chain({})[1]
    evidence = step["evidence"]
    tampered = {**step, "evidence": {**evidence, "outputs": {**evidence["outputs"], "b": 3}}}
    with pytest.raises(VerificationError):
        replay_step(tampered, {})


def test_a_step_replays_only_after_the_steps_it_reads():
    bracket = eta_order_chain({})[-1]
    with pytest.raises(VerificationError, match="einv_nonsplit"):
        replay_step(bracket, {})


@pytest.mark.parametrize("stem", [1, 2, 3])
def test_a_fresh_interpreter_replays_a_printed_report(stem):
    # Only ``derivation`` is imported: replay must find the checks itself.
    code = (
        "import json, sys\n"
        "from stemcert.derivation import replay\n"
        "print(replay(json.load(sys.stdin)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps(build_stem_report(stem)),
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def _child_env():
    """The environment of a child that imports the same ``stemcert`` as this suite."""
    package_parent = str(Path(stemcert.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")])
    )
    return env


def test_number_theory_module_loads_no_report_machinery():
    code = (
        "import json, sys, stemcert.jorder\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('stemcert'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(),
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert "stemcert.jorder" in loaded
    assert not loaded & {"stemcert.derivation", "stemcert.einv", "stemcert.kring"}
