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
"""
