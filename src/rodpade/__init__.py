"""Exact Rodrigues-style Pade-type approximants over Q.

Subpackages by layer: exact integer and rational helpers
(:mod:`rodpade.exact`), the polynomial, Laurent-tail and operator algebra
with the paper's Rodrigues operators (:mod:`rodpade.weyl`), moment
functionals and the integer Rodrigues chain (:mod:`rodpade.transform`), the
determinants Delta and theta (:mod:`rodpade.determinant`), recurrence
extraction (:mod:`rodpade.holonomic`), the two applications
(:mod:`rodpade.mpl`, :mod:`rodpade.logpow`), and the arithmetic layer:
places and heights (:mod:`rodpade.heights`), the independence criterion
(:mod:`rodpade.criterion`) and the bound audits (:mod:`rodpade.audit`).
The command line (:mod:`rodpade.cli`) runs each subcommand from the module
whose work it drives, and reads run-config documents through
:mod:`rodpade.runconfig`.

The names below are loaded from :mod:`rodpade.weyl` on first access, so
importing the package (or the command line, which builds its tables on
integer pairs) does not load the algebra.
"""

_WEYL_NAMES = (
    "INF",
    "NEG_INF",
    "LaurentTail",
    "Poly",
    "laurent_mul_poly",
    "ord_inf",
    "DiffOp",
    "adjoint",
    "op_apply",
    "op_apply_laurent",
    "op_compose",
    "ord_weight",
    "property_P",
    "rodrigues_operator",
)

__all__ = list(_WEYL_NAMES)


def __getattr__(name):
    if name in _WEYL_NAMES:
        from . import weyl

        return getattr(weyl, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
