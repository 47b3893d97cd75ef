"""The functions that ``bench/spans.py`` wraps in layer spans exist in pec.

A renamed or inlined target would otherwise show only as ``missing_spans``
in a traced benchmark run, with its layer metrics reading zero calls.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for qualname in spans.TARGETS:
        module, _, attr = qualname.rpartition(".")
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(qualname)
    assert missing == []
