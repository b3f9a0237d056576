"""Kahan maps for quadratic vector fields.

Birational discretization of quadratic ODEs, a catalog of rigid-body type
systems on e(3)* plus a planar family, conserved quantities and invariant
measures of the resulting maps, and numerical detection of
Hirota-Kimura-style null-space bases along orbits.
"""

from kahanmaps.hkbasis import WronskianBasisSpec, conjugate_pairs, hk_nullspace, iterate_orbit
from kahanmaps.integrals import eval_I0
from kahanmaps.quadfield import kahan_step
from kahanmaps.systems import KirchhoffParams, build_system

__version__ = "0.1.0"
