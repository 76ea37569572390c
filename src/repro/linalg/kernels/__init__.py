"""Name of the linalg implementation: always ``"python"``.

The pure-python code in :mod:`repro.linalg` is the only implementation of
the decision pipeline's linear algebra.  This module remains solely so
that external readers of :func:`backend_name` (the ``nkabench`` harness
checks it against its expected defaults) keep working; nothing in
``repro`` imports it.
"""

__all__ = ["backend_name"]


def backend_name() -> str:
    """The linalg implementation in use: ``"python"``."""
    return "python"
