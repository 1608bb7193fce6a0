"""Tests of the benchmark itself: every oracle accepts a real CLI output and
rejects a deliberately wrong one, and BENCHMARK.json names exactly the
metrics ``run.py`` prints.

Run with ``python3 -m pytest perfbench``.
"""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
from oracles import OracleError

# Outputs recorded from ``python -m stemcert.cli --json ...``.
JORDER_T2 = {"m": "24", "methods": ["gcd", "closed", "bernoulli"], "stable": True, "t": 2}
BERNOULLI_12 = {"n": 12, "value": "-691/2730"}
ADAMS_HP2_K3 = {"coeffs": ["9", "6"], "space": "hp2"}
ADAMS_CP2_K3 = {"coeffs": ["3", "3"], "space": "cp2"}
ADAMS_SMASH_HP3_K5 = {"coeffs": ["125", "250", "175"], "space": "s2-smash-hp3"}
EINV_HP2 = {"c": 1, "e": "1/12", "k": 2, "modulus": 12, "verdict": "DoesNotSplit"}
FEDER_GITLER = {"Bn": "24", "equivalent": True, "k": 5, "l": 29, "n": 1}
THOM = {"bottom": 3, "cells": [6, 8, 10], "family": "complex", "label": "CP^5/CP^2", "suspension": 0, "top": 5}
LIFT = {"loop": "gamma", "monodromy": -1, "steps": 1024, "turns": 1}
REPORT_3 = {
    "generator": "nu",
    "group": "Z24",
    "stem": 3,
    "steps": [{"status": "Computed"}, {"status": "PaperAsserted"}],
}
LINKING = {
    "max_deviation": 1e-05,
    "samples": 1024,
    "seed": 0,
    "trials": [1.000005, 1.000002, 1.00001, 0.999992],
    "unlinked_control": 0.0,
}

CASES = [
    (oracles.check_jorder, JORDER_T2, {"t": 2}),
    (oracles.check_bernoulli, BERNOULLI_12, {"n": 12}),
    (oracles.check_adams, ADAMS_HP2_K3, {"space": "hp2", "k": 3, "elem": "phi"}),
    (oracles.check_adams, ADAMS_CP2_K3, {"space": "cp2", "k": 3, "elem": "mu"}),
    (oracles.check_adams, ADAMS_SMASH_HP3_K5, {"space": "s2-smash-hp3", "k": 5, "elem": "phi*nu"}),
    (oracles.check_einv, EINV_HP2, {"space": "hp2"}),
    (oracles.check_feder_gitler, FEDER_GITLER, {"k": 5, "l": 29}),
    (oracles.check_thom, THOM, {"family": "complex", "n": 2, "mult": 3, "suspend": 0}),
    (oracles.check_lift, LIFT, {"loop": "gamma", "steps": 1024}),
    (oracles.check_report, REPORT_3, {"stem": 3}),
    (oracles.check_linking, LINKING, {"trials": 4, "samples": 1024}),
]


@pytest.mark.parametrize("check, payload, kwargs", CASES)
def test_real_output_passes_with_added_keys(check, payload, kwargs):
    check(payload, **kwargs)
    check({**payload, "meta": {"version": "0.1.0"}}, **kwargs)


def _mutated(payload, key, value):
    out = copy.deepcopy(payload)
    out[key] = value
    return out


@pytest.mark.parametrize(
    "check, payload, kwargs",
    [
        (oracles.check_jorder, _mutated(JORDER_T2, "m", "12"), {"t": 2}),
        (oracles.check_jorder, _mutated(JORDER_T2, "stable", False), {"t": 2}),
        (oracles.check_bernoulli, _mutated(BERNOULLI_12, "value", "-692/2730"), {"n": 12}),
        (oracles.check_adams, _mutated(ADAMS_HP2_K3, "coeffs", ["9", "7"]), {"space": "hp2", "k": 3, "elem": "phi"}),
        (oracles.check_adams, _mutated(ADAMS_CP2_K3, "coeffs", ["4", "3"]), {"space": "cp2", "k": 3, "elem": "mu"}),
        (
            oracles.check_adams,
            _mutated(ADAMS_SMASH_HP3_K5, "coeffs", ["125", "250", "176"]),
            {"space": "s2-smash-hp3", "k": 5, "elem": "phi*nu"},
        ),
        (oracles.check_einv, _mutated(EINV_HP2, "e", "1/24"), {"space": "hp2"}),
        (oracles.check_einv, _mutated(EINV_HP2, "verdict", "Splits"), {"space": "hp2"}),
        (oracles.check_feder_gitler, _mutated(FEDER_GITLER, "equivalent", False), {"k": 5, "l": 29}),
        (oracles.check_thom, _mutated(THOM, "cells", [4, 6, 8]), {"family": "complex", "n": 2, "mult": 3, "suspend": 0}),
        (oracles.check_lift, _mutated(LIFT, "monodromy", 1), {"loop": "gamma", "steps": 1024}),
        (oracles.check_report, _mutated(REPORT_3, "group", "Z12"), {"stem": 3}),
        (oracles.check_report, _mutated(REPORT_3, "steps", [{"status": "PaperAsserted"}]), {"stem": 3}),
        (oracles.check_linking, _mutated(LINKING, "trials", [1.0, 1.0, 1.03, 1.0]), {"trials": 4, "samples": 1024}),
        (oracles.check_linking, _mutated(LINKING, "unlinked_control", 0.5), {"trials": 4, "samples": 1024}),
        (oracles.check_linking, _mutated(LINKING, "max_deviation", 0.01), {"trials": 4, "samples": 1024}),
    ],
)
def test_wrong_value_is_rejected(check, payload, kwargs):
    with pytest.raises(OracleError):
        check(payload, **kwargs)


def test_bernoulli_rejects_changed_low_digit_of_a_long_numerator():
    value = oracles.bernoulli(300)
    good = {"n": 300, "value": f"{value.numerator}/{value.denominator}"}
    oracles.check_bernoulli(good, n=300)
    bad = f"{value.numerator + 1}/{value.denominator}"
    with pytest.raises(OracleError):
        oracles.check_bernoulli({"n": 300, "value": bad}, n=300)


def test_tangent_number_bernoulli_matches_known_values():
    known = {0: 1, 2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
             10: Fraction(5, 66), 12: Fraction(-691, 2730), 14: Fraction(7, 6), 30: Fraction(8615841276005, 14322)}
    assert {n: oracles.bernoulli(n) for n in known} == known


def test_j_order_matches_adams_values():
    # m(t) for t = 2, 4, 6, 8: the orders of the image of J in stems 3, 7, 11, 15.
    assert [oracles.j_order(t) for t in (2, 4, 6, 8)] == [24, 240, 504, 480]


def test_chebyshev_closed_form_matches_laurent_expansion():
    # t^k + t^-k - 2 as a polynomial in x = t + 1/t - 2, from the recurrence
    # P_(k+1) = (x + 2) P_k - P_(k-1) on coefficient lists.
    prev, cur = [2], [2, 1]  # P_0 = 2, P_1 = x + 2
    for k in range(1, 31):
        expected = [cur[0] - 2] + cur[1:]
        assert expected[0] == 0
        assert oracles.hp_adams_coefficients(k, k) == expected[1:]
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += 2 * c
            nxt[i + 1] += c
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_inputs_depend_only_on_seed_and_pass(workload):
    build = run.WORKLOADS[workload]
    assert [i.argv for i in build(7, 3)] == [i.argv for i in build(7, 3)]
    assert [i.argv for i in build(7, 3)] != [i.argv for i in build(8, 3)]
