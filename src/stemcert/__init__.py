"""Exact-arithmetic certificates for the first three stable homotopy stems.

The package computes, with integer and rational arithmetic wherever the
mathematics is exact, the invariants that pin down the stable homotopy
groups in degrees one to three: Adams operations on small projective
spaces and spheres, e-invariants of two-cell complexes, J-order bounds by
three independent methods, stable equivalences of stunted projective
spaces, and geometric witnesses: Hopf fiber linking by integer
determinants, with the disc crossings of their round stereographic images
as an exact reference and a floating-point Gauss integral as its oracle,
and rotation-loop monodromy, with explicit tolerances.
"""

import importlib

# Public name -> defining submodule.  ``__getattr__`` imports a submodule the
# first time one of its names is read, so ``import stemcert`` (and the exact
# subcommands) never load ``hopf`` or ``_kernels`` unless asked to.
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
        "exact": ("padic_valuation",),
        "hopf": (
            "circle_linking",
            "fiber_curve",
            "fiber_determinant",
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
        "reports": ("build_stem_report", "eta_order_chain"),
        "so3": (
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

__all__ = sorted(_EXPORTS)


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
