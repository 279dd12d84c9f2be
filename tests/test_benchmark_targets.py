"""Every function the serving benchmark wraps still exists.

The traced benchmark run patches the program at the ``module:Qual.name``
targets listed in ``perfbench/layers.py``; a target that no longer
resolves silently drops the per-layer metrics it feeds, and the traced
run then no longer reports the metric set the benchmark declares. This
test resolves each target the way ``perfbench.tracer.Tracer.patch`` does
(import, attribute chain, ``inspect.getattr_static``), without patching
anything, so renaming or deleting a wrapped function fails here first.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import CLIENT_TARGETS, SERVER_TARGETS  # noqa: E402

TARGETS = sorted({entry[0] for entry in CLIENT_TARGETS + SERVER_TARGETS})


@pytest.mark.parametrize("target", TARGETS)
def test_wrap_target_resolves(target):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    assert callable(raw) or isinstance(raw, classmethod)
