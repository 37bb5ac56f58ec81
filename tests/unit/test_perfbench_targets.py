"""The benchmark's traced run wraps ``repro`` methods by name.

``perfbench/spans.py`` lists the public functions it times
(``SPAN_TARGETS``) and the obs calls it counts (``COUNT_TARGETS``) as
``(module, owner, attribute)`` strings and resolves them with
``getattr`` only when a traced run starts.  Renaming or deleting one of
them therefore breaks ``perfbench/run.py --trace 1`` and nothing else;
this test resolves every entry the same way, so the break shows up here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _resolve(module_name: str, owner: str | None, attr: str):
    target = importlib.import_module(module_name)
    if owner is not None:
        target = getattr(target, owner)
    return getattr(target, attr)


@pytest.mark.parametrize("name, module_name, owner, attr",
                         spans.SPAN_TARGETS,
                         ids=[t[0] for t in spans.SPAN_TARGETS])
def test_span_target_resolves(name, module_name, owner, attr):
    assert callable(_resolve(module_name, owner, attr)), name


@pytest.mark.parametrize("module_name, owner, attr", spans.COUNT_TARGETS,
                         ids=[f"{t[1]}.{t[2]}" for t in spans.COUNT_TARGETS])
def test_count_target_resolves(module_name, owner, attr):
    assert callable(_resolve(module_name, owner, attr))
