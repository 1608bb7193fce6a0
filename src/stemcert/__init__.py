"""Exact-arithmetic certificates for the first three stable homotopy stems.

The package computes, with integer and rational arithmetic wherever the
mathematics is exact, the invariants that pin down the stable homotopy
groups in degrees one to three: Adams operations on small projective
spaces and spheres, e-invariants of two-cell complexes, J-order bounds by
three independent methods, stable equivalences of stunted projective
spaces, and floating-point geometric witnesses (Hopf fiber linking,
rotation-loop monodromy) with explicit tolerances.
"""

import importlib

# Public name -> defining submodule.  ``__getattr__`` imports a submodule the
# first time one of its names is read, so ``import stemcert`` (and the exact
# subcommands) never load numpy, ``hopf`` or ``_kernels`` unless asked to.
_EXPORTS = {
    name: submodule
    for submodule, names in {
        "derivation": (
            "DerivationStep",
            "StemReport",
            "StepStatus",
            "replay_step",
            "report_from_json",
            "report_to_json",
        ),
        "einv": (
            "ObstructionCertificate",
            "TwoCellModel",
            "Verdict",
            "conjugacy_witness",
            "e_invariant",
            "order_lower_bound",
            "splitting_verdict",
            "two_cell_from",
        ),
        "errors": ("ResamplePole", "VerificationError"),
        "exact": (
            "BigInt",
            "BigRational",
            "padic_valuation",
        ),
        "hopf": (
            "Quaternion",
            "fiber_curve",
            "fiber_linking",
            "gauss_linking",
            "hopf_map",
            "qmul",
            "rot_from_quat",
            "stereographic",
        ),
        "jorder": (
            "KOClassS2",
            "StuntedSpace",
            "bernoulli",
            "eta_order_chain",
            "feder_gitler_equivalent",
            "ko_s2_realify",
            "m_closed_form",
            "m_via_bernoulli",
            "nu_order_bound",
            "stabilized_gcd",
            "thom_space",
        ),
        "kring": (
            "AdamsMatrix",
            "RingElement",
            "RingModel",
            "adams",
            "adams_matrix",
            "laurent_to_phi",
            "make_ring",
            "mul",
            "parse_space",
        ),
        "reports": ("build_stem_report",),
        "so3": (
            "BallPoint",
            "Rotation3",
            "ball_to_rotation",
            "homotopy_H",
            "lift_loop",
            "loop_matrices",
            "loop_point",
            "matrix_path",
            "quat_from_rot",
        ),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = [
    "AdamsMatrix",
    "BallPoint",
    "BigInt",
    "BigRational",
    "DerivationStep",
    "KOClassS2",
    "ObstructionCertificate",
    "Quaternion",
    "ResamplePole",
    "RingElement",
    "RingModel",
    "Rotation3",
    "StemReport",
    "StepStatus",
    "StuntedSpace",
    "TwoCellModel",
    "Verdict",
    "VerificationError",
    "adams",
    "adams_matrix",
    "ball_to_rotation",
    "bernoulli",
    "build_stem_report",
    "conjugacy_witness",
    "e_invariant",
    "eta_order_chain",
    "feder_gitler_equivalent",
    "fiber_curve",
    "fiber_linking",
    "gauss_linking",
    "homotopy_H",
    "hopf_map",
    "ko_s2_realify",
    "laurent_to_phi",
    "lift_loop",
    "loop_matrices",
    "loop_point",
    "m_closed_form",
    "m_via_bernoulli",
    "make_ring",
    "matrix_path",
    "mul",
    "nu_order_bound",
    "order_lower_bound",
    "padic_valuation",
    "parse_space",
    "qmul",
    "quat_from_rot",
    "replay_step",
    "report_from_json",
    "report_to_json",
    "rot_from_quat",
    "splitting_verdict",
    "stabilized_gcd",
    "stereographic",
    "thom_space",
    "two_cell_from",
]


def __getattr__(name: str):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
