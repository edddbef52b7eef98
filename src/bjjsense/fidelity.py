"""The Bhattacharyya coefficient, now defined in ``estimation``.

This module only re-exports it, because the layer tracer of the benchmark
(``perfbench/tracer.py``) imports ``bjjsense.fidelity`` by name.  The
package itself imports ``bhattacharyya_fidelity`` from ``estimation``.
"""

from .estimation import bhattacharyya_fidelity  # noqa: F401
