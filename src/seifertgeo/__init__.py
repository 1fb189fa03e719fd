"""Exact classification of geometries on small Seifert fibered spaces.

The package computes Seifert invariants over the rationals, decides the
Thurston geometry of the underlying manifold and of conemanifold
structures along exceptional fibres, and applies both to Dehn surgeries
on torus knots.  All decisions are made in integer or rational
arithmetic; floats appear only in reported curvature parameters and in
plot output.

Public names are imported from their home module on first access
(PEP 562), so ``import seifertgeo`` loads no submodule and a one-shot
command loads only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

# The benchmark harness (perfbench/worker.py) records this in every result.
BACKEND = "python"

# Home module -> the public names it defines.  Every key also resolves as
# a submodule.
_HOMES = {
    "arith": "Handedness PiRational fiber_coeffs",
    "base2d": "BasePoint base_limits classify_triangle curvature_parameter",
    "cone3d": "ConeStructure FamilyDimension classify_cone family_dimension sphericity_limits",
    "kernel": "RegionClass",
    "seifert": "FamilyId FamilyKind GeometryType NO_STRUCTURE SeifertSignature euler_number homology_order"
    " identify_family lens_params manifold_geometry named_family normalize orbifold_euler_char",
    "surgery": "SurgerySpec TorusKnot atlas brieskorn_surgery classify_surgery_cone line_of_surgery"
    " nil_admissible spherical_orbifold_angles surgery_of_line surgery_signature x_limits",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}


def __getattr__(name):
    if name in _HOMES:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_HOMES))


__all__ = ["BACKEND", *sorted(_HOME)]
