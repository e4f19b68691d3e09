"""Finite quantale-valued order structures with exhaustively checked laws.

Everything in this package works on small, fully materialized tables:
structures are certified by checking every instance of their defining
laws (laws quantified over fuzzy subsets through exact finite
reductions), and the central quotient-representation construction emits
a certificate that can be re-verified from its embedded tables alone.
"""

__version__ = "0.1.0"
