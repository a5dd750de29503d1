"""Lewis-Riesenfeld invariants and Dyson maps for PT-symmetric coupled
oscillators on the symplectic sp(4) algebra.

The public names below resolve on first access (PEP 562): ``import
sp4lr`` loads no submodule, and ``sp4lr.expm``, say, imports
``sp4lr.numerics`` and nothing more.  A submodule is reachable as an
attribute, ``sp4lr.point_transform``, after a bare ``import sp4lr``.
"""

import importlib

__version__ = "0.1.0"

# each public name, listed under the submodule that defines it
_EXPORTS = {
    "algebra": (
        "GeneratorId",
        "adjoint",
        "commutator",
        "from_matrix",
        "matrix_of",
        "parity_action",
        "pt_map",
        "structure_constants",
        "to_matrix",
    ),
    "errors": (
        "ArctanhDomain",
        "ChiPlusZero",
        "ConfigInvalid",
        "DegenerateAlpha",
        "EqualFrequencies",
        "GridTooCoarse",
        "NonCommuting",
        "ProfileDomain",
        "ProjectionLeak",
        "Sp4lrError",
        "StepNotConverged",
    ),
    "hamiltonian": (
        "CoupledOscillatorParams",
        "Regime",
        "build_H_modified",
        "classify_regime",
        "instantaneous_eigenvalues",
    ),
    "lr_ode": (
        "ClosedFormParams",
        "assemble_invariant",
        "closed_form_c",
        "closed_form_on_grid",
        "evolve",
        "invariant_matrix",
        "involution_residuals",
        "lr_residual",
    ),
    "numerics": ("central_diff", "cumulative_simpson", "eig4", "expm"),
    "point_transform": (
        "DysonStatic",
        "EPState",
        "PointTransformParams",
        "dyson_static",
        "dyson_time",
        "ep_state",
        "hermitian_hamiltonian_h",
        "hermitian_invariant_Ih",
        "invariant_IH",
        "pde_constraint_residuals",
        "pushforward",
        "target_coefficients",
        "tdde_residual",
    ),
    "profiles": ("ScalarProfile",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "crosschecks")

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
