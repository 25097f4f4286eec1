"""``scipy.linalg.lu_factor`` and ``lu_solve``, re-exported for the benchmark harness.

No library code runs a dense LU, and the dense test oracle calls
``scipy.linalg`` itself.  ``perfbench/layers.py`` imports this module at load
time and spans both names, so it stays until ROADMAP item 1 drops those spans
and deletes it.  Importing it needs the ``test`` extra, which brings scipy.
"""

from scipy.linalg import lu_factor, lu_solve  # noqa: F401  (re-exported)
