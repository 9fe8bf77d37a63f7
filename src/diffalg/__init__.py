"""Exact-arithmetic kernel for difference algebra.

Decision procedures for sigma-separability, strongly sigma-etale detection,
strong cores, limit degrees, benign towers and their decomposition chains,
difference Hopf checks, and compatibility of difference field extensions,
all over exactly represented base fields.

The public names below load on first use (PEP 562), so importing the
package, or one submodule such as `diffalg.cli`, loads no other submodule.
A name is read from its defining module on every access and never cached
here, so a name rebound there is seen here too.
"""

import importlib

_EXPORTS = {
    "exactfield": """DifferenceField FieldError FrobeniusDescriptor FunctionField
        GaloisField PrimeField Rationals ShiftField field_make is_inversive
        sigma_apply""",
    "poly": """FactorList Poly factor_over_finite_field is_irreducible is_separable
        poly_gcd roots sigma_twist""",
    "findiff": """CoreResult FinSigmaAlgebra Idempotent PeriodicityResult
        RestrictedAutomationError SigmaAlgebraMorphism ValidationReport
        ZeroRingError algebra_validate base_change is_etale is_periodic
        is_sigma_reduced is_sigma_separable is_strongly_sigma_etale
        primitive_idempotents quotient_by_sigma_ideal restrict_scalars
        sigma_subalgebra_generated splitting_extension strong_core
        tensor_product twist_and_psi""",
    "diffpoly": """LevelAlgebra Presentation TruncatedQuotient
        UnsupportedPresentationError classify_idempotent
        level_primitive_idempotents periodic_idempotents_truncated
        sigma_kernel_slice strong_core_truncated truncate""",
    "towers": """BabbittChain InconsistentDynamicsError LimitDegreeReport
        NotGaloisError TowerError TowerExtension babbitt_search babbitt_verify
        benign_make compatible core_sradicial_over_strong_core_check
        field_sigma_radicial_over inversive_closure is_sigma_radicial
        limit_degree stacked_radical_tower strong_core_finite_ext
        tower_from_json tower_make tower_to_json""",
    "hopf": """SigmaHopf TruncatedGroupLikeHopf hopf_validate hopf_validate_truncated
        strong_core_is_hopf_subalgebra strong_core_is_hopf_subalgebra_truncated
        union_of_etale_subalgebras_probe""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
