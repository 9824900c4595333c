"""Numerical laboratory for algebraic curvature operators on R^4.

Curvature operators are symmetric 6x6 matrices acting on the two-forms
Lambda^2 R^4 in the fixed orthonormal basis e12, e13, e14, e23, e24, e34.
The package provides the bivector algebra, the irreducible decomposition,
positive-isotropic-curvature style cone margins for either orientation,
the quadratic curvature vector field with its ODE integrator, and the
symmetry-group machinery (factor averages, boundary witnesses).

The package re-exports nothing; import the submodules lambda2, curvature,
cones, flow, group_actions and cli.
"""

__version__ = "0.1.0"
