"""Exact Rodrigues-style Pade-type approximants over Q.

The package is the command line and the layers it runs, on integer
coefficient lists: exact integer and rational helpers (:mod:`rodpade.exact`),
moment functionals and the integer Rodrigues chain (:mod:`rodpade.transform`),
the determinants Delta and theta (:mod:`rodpade.determinant`), the two
applications (:mod:`rodpade.mpl`, :mod:`rodpade.logpow`, with the identities
of E_n), and the arithmetic layer: places and heights (:mod:`rodpade.heights`),
the independence criterion (:mod:`rodpade.criterion`) and the bound audits
(:mod:`rodpade.audit`).  The command line (:mod:`rodpade.cli`) runs each
subcommand from the module whose work it drives, and reads run-config
documents through :mod:`rodpade.runconfig`.  The ``Fraction`` operator
algebra and the holonomic recurrences are the tests' independent routes.
"""
