"""Start ``repro`` exactly as an operator would, optionally traced.

Usage::

    python3 perfbench/launch.py serve --http --state-dir DIR ...

The arguments go to the ``repro`` command-line entry point unchanged.
When ``PERFBENCH_TRACE_DIR`` is set, the layer functions listed in
:data:`perfbench.layers.SERVER_TARGETS` are wrapped first. Cluster
workers start by ``spawn``, which re-runs this file as ``__mp_main__``,
so they install the same wrappers. Every traced process writes its spans
under that directory when it exits and whenever it receives ``SIGUSR1``
(the benchmark sends one before a deliberate ``SIGKILL``).
"""

import os
import signal
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)


def _trace(role: str) -> None:
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not out_dir:
        return
    import atexit

    from perfbench import layers
    from perfbench.tracer import Tracer

    tracer = Tracer(out_dir, role)
    layers.install(tracer, layers.SERVER_TARGETS)
    atexit.register(tracer.dump)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: tracer.dump())


if __name__ == "__mp_main__":
    _trace("worker")

if __name__ == "__main__":
    _trace("server")
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
