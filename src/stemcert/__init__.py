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
Each public name is imported from the module that defines it.
"""

__version__ = "0.1.0"
