"""Monotone (quantum Fisher) metrics on density matrices.

Evaluates the sesquilinear form K(A, B) determined by a symmetric,
-1-homogeneous kernel c(x, y), with kernels built from closed-form
families, canonical integral representations over piecewise-constant
weights, or operator monotone functions. Ships samplers and property
suites that exercise the defining axioms, including contraction under
completely positive trace-preserving maps.

``import monometric`` loads the core: ``errors``, ``linalg``, ``monotone``,
``chentsov`` and ``metric``. The harness modules ``channels``,
``quadrature``, ``sampling`` and ``verify`` load on first use of one of
their names or of the module itself.
"""

import importlib

from .chentsov import (
    BridgeMC,
    CanonicalMC,
    FromMonotone,
    MCAxiomReport,
    MCFunction,
    c_from_f,
    check_mc_axioms,
    eval_bridge,
    eval_canonical_c,
    normalize_C0,
)
from .errors import (
    DegenerateSample,
    DimensionMismatch,
    DomainError,
    MonometricError,
    NoConvergence,
    NotAState,
    NotHermitian,
    QuadratureFailure,
)
from .linalg import HermitianEigen, hermitian_eig, matrix_function, min_eigenvalue
from .metric import DensityMatrix, MetricSpec, metric_form, metric_quadratic
from .monotone import (
    CanonicalMonotone,
    ConstantOne,
    ExpOrderFunction,
    ExtendedWeight,
    GammaFamily,
    Identity,
    KuboAndo,
    MonotoneFunction,
    OperatorMonotoneReport,
    WeightFunction,
    check_functional_equation,
    check_operator_monotone,
    closed_form_kernel_integral,
    eval_canonical_f,
    eval_exp_order,
    eval_gamma_family,
    eval_kubo_ando,
    extend_weight,
    maximal_function,
    minimal_function,
    normalize_beta,
    sharp,
    sqrt_function,
    tilde,
    to_monotone,
)

# The one owner of deferred loading: each harness module and the public
# names it defines. ``__getattr__`` reads a name from its module on every
# access and binds nothing here, so the module stays the one holder of the
# name and a patch of the module is seen through the package too.
_DEFERRED = {
    "channels": ("KrausChannel", "TrialResult", "apply_channel", "monotonicity_trial", "random_channel"),
    "quadrature": ("DEFAULT_QUAD", "QuadratureConfig", "integrate"),
    "sampling": (),
    "verify": ("PropertyResult", "SuiteReport", "VerificationReport", "run_verification"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "BridgeMC",
    "CanonicalMC",
    "CanonicalMonotone",
    "ConstantOne",
    "DEFAULT_QUAD",
    "DegenerateSample",
    "DensityMatrix",
    "DimensionMismatch",
    "DomainError",
    "ExpOrderFunction",
    "ExtendedWeight",
    "FromMonotone",
    "GammaFamily",
    "HermitianEigen",
    "Identity",
    "KrausChannel",
    "KuboAndo",
    "MCAxiomReport",
    "MCFunction",
    "MetricSpec",
    "MonometricError",
    "MonotoneFunction",
    "NoConvergence",
    "NotAState",
    "NotHermitian",
    "OperatorMonotoneReport",
    "PropertyResult",
    "QuadratureConfig",
    "QuadratureFailure",
    "SuiteReport",
    "TrialResult",
    "VerificationReport",
    "WeightFunction",
    "apply_channel",
    "c_from_f",
    "check_functional_equation",
    "check_mc_axioms",
    "check_operator_monotone",
    "closed_form_kernel_integral",
    "eval_bridge",
    "eval_canonical_c",
    "eval_canonical_f",
    "eval_exp_order",
    "eval_gamma_family",
    "eval_kubo_ando",
    "extend_weight",
    "hermitian_eig",
    "integrate",
    "matrix_function",
    "maximal_function",
    "metric_form",
    "metric_quadratic",
    "min_eigenvalue",
    "minimal_function",
    "monotonicity_trial",
    "normalize_C0",
    "normalize_beta",
    "random_channel",
    "run_verification",
    "sharp",
    "sqrt_function",
    "tilde",
    "to_monotone",
]


def __getattr__(name):
    if name in _DEFERRED:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_DEFERRED, *_HOME})
