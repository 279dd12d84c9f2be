"""Serving processes, CPU pinning, memory readings and failure accounting."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

#: Every process of the benchmark, the servers included, hashes alike.
HASH_SEED = "0"

_LAUNCHER = Path(__file__).resolve().parent / "launch.py"


def cpu_sets() -> tuple[set[int], set[int]]:
    """Disjoint CPU sets: the first CPU for the load generator, the rest
    for the serving processes (one CPU is shared when there is no other)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python loop: a reading of machine speed.

    Recorded with each run so drift between runs is visible; it never
    scales a metric.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return best


class Ops:
    """Attempted and failed operations behind the failure accounting.

    Every call the benchmark makes on the serving stack goes through
    :meth:`call`; any exception — a non-2xx reply, a timeout, a dead
    server — counts as a failure of ``weight`` operations.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, weight: int, function, *args, **kwargs):
        self.attempted += weight
        try:
            return function(*args, **kwargs)
        except Exception as exc:  # counted, reported, and the run goes on
            self.failed += weight
            if len(self.errors) < 20:
                self.errors.append(f"{type(exc).__name__}: {exc}"[:300])
            return None


class Server:
    """One launch of ``repro serve`` on a state directory."""

    def __init__(
        self,
        root: Path,
        args: list[str],
        state_dir: Path,
        work_dir: Path,
        cpus: set[int],
        trace_dir: Path | None = None,
    ) -> None:
        self.root = root
        self.args = args
        self.state_dir = state_dir
        self.work_dir = work_dir
        self.cpus = cpus
        self.trace_dir = trace_dir
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        self.launched_at = 0.0
        self._launched_wall = 0.0
        self.boot_s = 0.0
        self._ready = work_dir / f"ready-{id(self)}.txt"
        self._log = work_dir / f"server-{id(self)}.log"

    def start(self) -> float:
        """Launch the serving processes; returns the launch time."""
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = HASH_SEED
        env["PYTHONPATH"] = os.pathsep.join([str(self.root / "src"), str(self.root)])
        env.pop("PERFBENCH_TRACE_DIR", None)
        if self.trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
        cpus = self.cpus
        command = [
            sys.executable, str(_LAUNCHER), "serve", *self.args,
            "--port", "0", "--state-dir", str(self.state_dir),
            "--ready-file", str(self._ready),
        ]
        self._ready.unlink(missing_ok=True)
        with open(self._log, "ab") as log:
            self.launched_at = time.perf_counter()
            self._launched_wall = time.time()
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=log, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True,
                preexec_fn=lambda: os.sched_setaffinity(0, cpus),
            )
        return self.launched_at

    def wait_ready(self, timeout: float = 120.0) -> str:
        """Block until the server wrote its URL; raises if it died."""
        deadline = time.perf_counter() + timeout
        while True:
            if self._ready.exists():
                text = self._ready.read_text(encoding="utf-8").strip()
                if text:
                    # The file's write time, not this poll's: the caller
                    # may have been busy (ingesting) when it was written.
                    self.boot_s = self._ready.stat().st_mtime - self._launched_wall
                    self.url = text
                    return text
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: {self.log_tail()}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server not ready in {timeout:.0f}s: {self.log_tail()}")
            time.sleep(0.002)

    def log_tail(self) -> str:
        try:
            return self._log.read_text(encoding="utf-8", errors="replace")[-800:]
        except OSError:
            return ""

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def pids(self) -> list[int]:
        """Every running process of this launch (its process group)."""
        if self.process is None:
            return []
        group = self.process.pid
        found = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            if fields[0] != "Z" and int(fields[2]) == group:
                found.append(int(entry.name))
        return found

    def peak_rss_mb(self) -> float:
        """Sum of peak resident memory (VmHWM) over the serving processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stats(self, timeout: float = 120.0) -> dict:
        """The service-wide ``GET /stats`` document."""
        with urllib.request.urlopen(self.url + "/stats", timeout=timeout) as reply:
            return json.loads(reply.read())["stats"]

    def _traced_pids(self) -> list[int]:
        """The processes that run the launcher: the server and its workers
        (not helpers such as multiprocessing's resource tracker)."""
        traced = []
        for pid in self.pids():
            try:
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:
                continue
            if _LAUNCHER.name.encode() in cmdline or b"spawn_main" in cmdline:
                traced.append(pid)
        return traced

    def flush_trace(self, timeout: float = 10.0) -> None:
        """Have every traced process write its spans (before a SIGKILL)."""
        if self.trace_dir is None:
            return
        before = {path.name for path in self.trace_dir.glob("*.json")}
        pids = self._traced_pids()
        for pid in pids:
            os.kill(pid, signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            fresh = {path.name for path in self.trace_dir.glob("*.json")} - before
            if len({name.rsplit("-", 2)[1] for name in fresh}) >= len(pids):
                return
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL every serving process of this launch, and reap them."""
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=30)
        self._wait_group_gone()

    def _wait_group_gone(self, timeout: float = 10.0) -> None:
        """Wait until no process of the group is left (workers included)."""
        deadline = time.perf_counter() + timeout
        while self.pids() and time.perf_counter() < deadline:
            time.sleep(0.01)

    def stop(self, timeout: float = 30.0) -> None:
        """Stop as Ctrl-C would; SIGKILL whatever is left after ``timeout``."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=30)
        self._wait_group_gone()
