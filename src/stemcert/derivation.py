"""Derivation reports: steps tagged Computed or PaperAsserted, with replay.

A report is the JSON object that ``report --json`` prints: ``{"stem",
"group", "generator", "steps"}``, each step ``{"claim", "status",
"citation", "evidence"}``.  A ``Computed`` step is one run of a registered
check ``fn(inputs, earlier) -> outputs``: ``inputs`` holds the step's literal
parameters, ``earlier`` maps the check name of each computed step before it
to that step's outputs, and the outputs are JSON-native (lists, ints,
``"p/q"`` strings).  Its evidence ``{"check", "inputs", "outputs"}`` is
recorded by running the check (:func:`computed_step`), and its claim is the
check's registered template formatted from the inputs and outputs;
:func:`replay_step` reruns the check and requires exactly the recorded
outputs and the claim they format to.  A ``PaperAsserted`` step
(:func:`cited`) carries no evidence — it records a statement taken from the
published literature (cited by ``citation``) that this package deliberately
does not recompute, and is never presented as computed.  A report concludes
what its last computed step outputs: the stem, the order of the group and
its generator; :func:`replay` checks a report read back from JSON.
"""

from __future__ import annotations

import json
from typing import Callable

from .errors import VerificationError

__all__ = [
    "COMPUTED",
    "PAPER_ASSERTED",
    "cited",
    "computed_step",
    "register_check",
    "replay",
    "replay_step",
    "stem_report",
]

COMPUTED = "Computed"
PAPER_ASSERTED = "PaperAsserted"

_CHECKS: dict = {}


def register_check(name: str, claim: str) -> Callable:
    """Decorator registering ``fn(inputs, earlier) -> outputs`` as the check
    ``name`` of ``Computed`` steps, whose claim is ``claim`` formatted with
    ``str.format`` from the inputs and outputs."""

    def decorate(fn: Callable[[dict, dict], dict]) -> Callable[[dict, dict], dict]:
        if name in _CHECKS:
            raise ValueError(f"duplicate check name {name!r}")
        _CHECKS[name] = (fn, claim)
        return fn

    return decorate


def computed_step(earlier: dict, check: str, inputs: dict, citation: str) -> dict:
    """Run ``check`` on ``inputs`` and ``earlier``, add its outputs to
    ``earlier`` and return the step, with the check's claim formatted from
    the inputs and outputs so that each number it quotes is one the check
    computed.  ``citation`` points at the implementing operation."""
    fn, template = _CHECKS[check]
    outputs = fn(inputs, earlier)
    earlier[check] = outputs
    evidence = {"check": check, "inputs": inputs, "outputs": outputs}
    claim = template.format(**inputs, **outputs)
    return {"claim": claim, "status": COMPUTED, "citation": citation, "evidence": evidence}


def cited(claim: str, citation: str) -> dict:
    """A ``PaperAsserted`` step: ``claim`` rests on the literature source
    ``citation`` and carries no evidence."""
    return {"claim": claim, "status": PAPER_ASSERTED, "citation": citation, "evidence": None}


def _conclusion(steps: list) -> tuple:
    """The stem, group and generator that the last computed step outputs."""
    computed = [s["evidence"]["outputs"] for s in steps if s["status"] == COMPUTED]
    outputs = computed[-1] if computed else {}
    if not {"stem", "order", "generator"} <= outputs.keys():
        raise VerificationError(
            "a report's last Computed step must output its stem, order, generator"
        )
    if outputs["stem"] not in (1, 2, 3):
        raise VerificationError(f"stem must be 1, 2 or 3, got {outputs['stem']}")
    return outputs["stem"], f"Z{outputs['order']}", outputs["generator"]


def stem_report(steps) -> dict:
    """The report of ``steps``, stating what its last computed step concludes."""
    stem, group, generator = _conclusion(steps)
    return {"stem": stem, "group": group, "generator": generator, "steps": list(steps)}


def replay_step(step: dict, earlier: dict) -> bool:
    """Re-verify a step from scratch.

    A computed step reruns its check on its inputs and on ``earlier``, the
    outputs of the computed steps before it, and raises
    ``VerificationError`` unless that gives exactly the recorded outputs and
    they format the check's claim template to the step's claim; it then adds
    the outputs to ``earlier``.  Asserted steps pass; a step of any other
    shape raises ``VerificationError``.
    """
    if not (isinstance(step, dict) and step.keys() == {"claim", "status", "citation", "evidence"}):
        raise VerificationError(f"a step is {{claim, status, citation, evidence}}: {step!r}")
    status, evidence = step["status"], step["evidence"]
    if status == PAPER_ASSERTED:
        if evidence is not None:
            raise VerificationError(f"a PaperAsserted step carries no evidence: {step['claim']}")
        return True
    if status != COMPUTED:
        raise VerificationError(f"a step is Computed or PaperAsserted, got {status!r}")
    if not (
        isinstance(evidence, dict)
        and evidence.keys() == {"check", "inputs", "outputs"}
        and isinstance(evidence["inputs"], dict)
        and isinstance(evidence["outputs"], dict)
    ):
        raise VerificationError(
            f"a Computed step needs evidence {{check, inputs, outputs}}: {step['claim']}"
        )
    # Importing reports registers the checks, also in an interpreter that
    # has only read a report back from JSON.
    from . import reports  # noqa: F401

    name, inputs, recorded = evidence["check"], evidence["inputs"], evidence["outputs"]
    if name not in _CHECKS:
        raise VerificationError(f"no check registered under {name!r}")
    fn, template = _CHECKS[name]
    # Evidence read back from JSON may hold inputs the check rejects or miss
    # an earlier step it reads: that is a failed replay, not a usage error.
    try:
        outputs = fn(inputs, earlier)
        claim = template.format(**inputs, **outputs)
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise VerificationError(f"replay failed for step: {step['claim']}: {exc!r}") from exc
    # As JSON, so that true is not 1 and 2.0 is not 2.
    if json.dumps(outputs, sort_keys=True) != json.dumps(recorded, sort_keys=True):
        raise VerificationError(
            f"replay failed for step: {step['claim']}: computed {outputs}, recorded {recorded}"
        )
    if claim != step["claim"]:
        raise VerificationError(
            f"replay failed for step: {step['claim']}: the check claims {claim}"
        )
    earlier[name] = outputs
    return True


def replay(report: dict) -> bool:
    """Replay every step of ``report`` in order, then require the stem,
    group and generator it states to be what its last computed step
    concludes; raises ``VerificationError`` on the first failure."""
    if not (
        isinstance(report, dict)
        and report.keys() == {"stem", "group", "generator", "steps"}
        and isinstance(report["steps"], list)
    ):
        raise VerificationError("a report is {stem, group, generator, steps}, its steps a list")
    earlier: dict = {}
    for step in report["steps"]:
        replay_step(step, earlier)
    stated = (report["stem"], report["group"], report["generator"])
    derived = _conclusion(report["steps"])
    if json.dumps(stated) != json.dumps(derived):
        raise VerificationError(f"the report states {stated}, its last computed step {derived}")
    return True
