"""The machine's current speed, read from a fixed reference kernel.

A shared virtual machine runs the same pure-Python work 20-40% faster or
slower from one minute to the next, at times twice as fast, and thread CPU
time changes with it, so a
raw timing measures the host as much as the program. The replay therefore
runs a small kernel of its own at regular intervals and times it. The kernel
does not call the program, so a change to the program cannot move it; it
moves only with the speed of the machine and the interpreter.

The kernel is sampled from a wall-clock interval timer, so it runs in every
phase of a replay: parse, mining, anytime reads, compression and writing.
Its own time is taken out of the replay's timings by the caller.

A replay's speed factor is the mean time of its kernel calls over
`NOMINAL_NS`; the factor of a phase, such as parse+mine, is the same over
the calls inside it. Timings divided by that factor are in seconds at the nominal
speed: they stay what a user would read on a machine running at that speed,
while a slow minute of the host no longer shows as a slower program.
"""

from __future__ import annotations

import gc
import random
import signal
import time

# Median thread CPU time of one `kernel()` call on a 2-vCPU x86-64 VM under
# CPython 3.11. The value only fixes the scale of the calibrated timings.
NOMINAL_NS = 1_900_000

# Interval between kernel calls: about 3% of a replay goes to the kernel.
EVERY_S = 0.06

_rng = random.Random(20190106)
_INTS = [_rng.getrandbits(60) for _ in range(2048)]
_TABLE = {x & 0xFFFF: i for i, x in enumerate(_INTS)}


def kernel() -> int:
    """Integer, dict and call work that allocates no tracked objects, so it
    triggers no garbage collection of the program's heap."""
    acc = 0
    get = _TABLE.get
    for x in _INTS:
        y = x & 0xFFFF
        acc += get(y, 0) + (x ^ acc) % 7 + bin(x & y).count("1")
    return acc


class Gauge:
    """Kernel timings of one replay. `sample()` runs and times one call;
    between `start()` and `stop()` a timer calls it every `EVERY_S`."""

    def __init__(self) -> None:
        self.calls = 0
        self.cpu_ns = 0  # thread CPU time inside the kernel: the speed reading
        self.wall_ns = 0  # wall time inside the kernel, taken out of the replay's timings

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        w0, c0 = time.perf_counter_ns(), time.thread_time_ns()
        kernel()
        c1, w1 = time.thread_time_ns(), time.perf_counter_ns()
        if enabled:
            gc.enable()
        self.calls += 1
        self.cpu_ns += c1 - c0
        self.wall_ns += w1 - w0

    def start(self) -> None:
        self.sample()  # one reading even for a replay shorter than the interval
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """How much slower than nominal the machine ran during the replay."""
        return factor(self.calls, self.cpu_ns)


def factor(calls: int, cpu_ns: int) -> float:
    """How much slower than nominal the machine ran over `calls` kernel calls
    that took `cpu_ns` in all."""
    return cpu_ns / calls / NOMINAL_NS
