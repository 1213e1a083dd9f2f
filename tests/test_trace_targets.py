"""perfbench traces the package from outside it, by module attribute.

A span whose attribute no longer resolves is skipped without a word, so a
rename inside the package would silently drop it from the per-layer table.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# targets whose functions had already moved or gone; may only shrink
STALE = {
    ("daechain.nn", "relu"),
    ("daechain.nn", "derivative_of_relu"),
    ("daechain.sampler", "mixture_log_pdf_batch"),
    ("daechain.sampler", "responsibilities"),
    ("daechain.cli", "chain_diagnostics"),
}


def test_every_trace_target_resolves_but_the_known_stale_ones():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {
        (module, attr)
        for module, attr, *_ in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing <= STALE
