"""Exact pencils of two quadrics: discriminants, real isotopy classes,
line counts over finite fields, projections, and the surrounding bookkeeping.

The package root re-exports nothing: import from ``qpencil.<module>``, so a
process loads only the modules it uses.
"""

__version__ = "0.1.0"
