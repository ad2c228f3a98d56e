"""Measurement plumbing shared by the workloads: spans, deadlines, children.

Nothing here imports gdiscord, so the input generators and the statistics
stay independent of the code under measurement.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"

# Per-call deadline of one in-process operation: six times the slowest
# successful discord pipeline call seen on a 2-core Xeon (24 ms).  Hung calls
# on discord-cm run into it, so it sets much of that workload's length; a
# longer one made the seed-to-seed share of hung states dominate ops_per_s.
CALL_DEADLINE_S = 0.15
# Child-process timeouts: one CLI launch, and one `sample` run.
CLI_TIMEOUT_S = 30.0
SAMPLE_TIMEOUT_S = 60.0


class DeadlineHit(BaseException):
    """Raised by the alarm handler inside a call that ran past its deadline.

    A BaseException so that no ``except Exception`` in the code under
    measurement can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineHit()


@contextmanager
def deadline(seconds: float):
    """Interrupt the enclosed block with DeadlineHit after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# Reference-host time.  On the shared sandbox this benchmark was built on,
# the clock rate switches between two levels about once a second (a fixed
# loop takes 1.0x or 0.65x its usual time) and can sit at one level for
# minutes, so raw wall-time medians of identical runs moved by up to 26%.
# Every end-to-end time is therefore rescaled by how long a fixed
# calibration loop took next to it: REF_LOOP_S / loop time.  The loop runs
# outside the timed regions and does not touch gdiscord.
CALIBRATION_ITERATIONS = 3000
REF_LOOP_S = 0.39e-3  # the loop at the usual clock level of a 2-core Xeon sandbox
CALIBRATION_MAX_AGE_S = 0.05


def _calibration_loop() -> float:
    s = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        s += math.sqrt(i * 0.5)
    return s


class HostClock:
    """Converts wall seconds into reference-host seconds.

    Call :meth:`before` right before a timed operation and pass what it
    returns to :meth:`reference` with the operation's wall time.  Operations
    longer than the calibration age are bracketed by a second loop after
    them.
    """

    def __init__(self):
        self._at = -math.inf
        self._loop_s = REF_LOOP_S
        self.loops: list[float] = []

    def _sample(self) -> float:
        # the fastest of three back-to-back loops, so that one interrupt
        # inside a loop does not read as a slow clock
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - t0)
        self._at, self._loop_s = time.perf_counter(), min(times)
        self.loops.append(self._loop_s)
        return self._loop_s

    def before(self) -> float:
        if time.perf_counter() - self._at > CALIBRATION_MAX_AGE_S:
            self._sample()
        return self._loop_s

    def reference(self, wall_s: float, loop_before: float) -> float:
        loop_s = loop_before
        if wall_s > CALIBRATION_MAX_AGE_S:
            loop_s = 0.5 * (loop_before + self._sample())
        return wall_s * REF_LOOP_S / loop_s


def direct(name, fn, *args):
    """Untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args)


class Tracer:
    """In-memory spans around calls into the program's layers.

    A span is (name, start, end, parent index, op id, status); spans of one
    operation share the op id.  Counters record outcomes at the same
    boundaries.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id = 0

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        status = "ok"
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except DeadlineHit:
            status = "deadline"
            raise
        except Exception as exc:
            status = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, t0, t1, parent, self.op_id, status)

    def add_span(self, name, t0, t1, status="ok"):
        """Record a span measured elsewhere, such as inside a child process."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, t0, t1, parent, self.op_id, status))

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def finished(self):
        # a span is None only when the deadline alarm fired inside call()'s
        # own bookkeeping; such a call has no measured duration
        return (s for s in self.spans if s is not None)

    def durations(self, name, statuses=("ok",)):
        return [s[2] - s[1] for s in self.finished()
                if s[0] == name and (statuses is None or s[5] in statuses)]

    def statuses(self, name):
        return [s[5] for s in self.finished() if s[0] == name]

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "status")
        with path.open("w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.finished()],
                       "counts": self.counts}, fh)


def p50(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Tail latency: (value, percentile), by linear interpolation.

    The highest percentile with ten samples beyond it, kept within
    [p50, p98].  Beyond p98 the discord workloads' figure is set by a rare
    class of slow states (about 1%) and moves by 15% from seed to seed,
    while p98 keeps at least ten samples beyond it from 500 samples on and
    moves by 4%.  Below 20 samples no percentile above the median has ten
    samples beyond it, and the median is returned.
    """
    n = len(values)
    if n == 0:
        return 0.0, 50.0
    pct = min(98.0, max(50.0, 100.0 * (1.0 - 10.0 / n)))
    ordered = sorted(values)
    pos = (n - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), pct


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes() if hasattr(a, "tobytes") else repr(a).encode())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, timeout):
    """Run one child to completion: (returncode, stdout, stderr, seconds, peak RSS MB).

    The return code is None when the child hit its timeout; it is then
    killed.  The child is reaped here with wait4, which also gives its own
    peak resident set.
    """
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=SCRATCH) as err_file:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err_file)
        killed = []
        timer = threading.Timer(timeout, lambda: (killed.append(True), proc.kill()))
        timer.start()
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    code = None if killed else proc.returncode
    return code, out, err, seconds, usage.ru_maxrss / 1024.0


def cli_args(*args) -> list[str]:
    """The CLI of the checked-out source tree, never an installed copy."""
    return [sys.executable, "-m", "gdiscord.cli", *args]


def child_args(*args) -> list[str]:
    return [sys.executable, str(CHILD), *args]


def self_rss_mb() -> float:
    """Peak resident set (MB) of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupProbes:
    """Set-up time, from fresh-interpreter launches spread over the measured loop.

    Each launch imports gdiscord and makes one warm-up call of the
    workload's own kind (see child.py), timed from launch to exit in
    reference-host seconds.  Spreading them over the run samples the same
    machine state as the operations.
    """

    def __init__(self, workload: str, seconds: float, clock: HostClock, repeats: int = 7):
        self.workload = workload
        self.clock = clock
        start = time.perf_counter()
        self.due = [start + seconds * (k + 0.5) / repeats for k in range(repeats)]
        self.times: list[float] = []

    def poll(self):
        if self.due and time.perf_counter() >= self.due[0]:
            self._launch()

    def finish(self) -> list[float]:
        while self.due:
            self._launch()
        return self.times

    def _launch(self):
        self.due.pop(0)
        loop_s = self.clock.before()
        code, _out, err, secs, _rss = run_child(child_args("setup", self.workload), CLI_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"setup probe failed ({code}): {err.decode()[-500:]}")
        self.times.append(self.clock.reference(secs, loop_s))


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a repository."""
    # the ceiling keeps git from searching the directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    """sha256 prefix of the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gdiscord").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
    }
