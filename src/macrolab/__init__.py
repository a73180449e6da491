"""Numerical laboratory for entropy inequalities of canonical macrostates."""
