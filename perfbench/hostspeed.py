"""Host-speed calibration: a fixed pure-Python kernel timed between jobs.

On a shared VM the CPU speed moves by a third or more over tens of
seconds (busy SMT siblings, frequency), and every wall-clock timing of
the program moves with it, so runs of the same code differ by more
than any bound worth setting.  The benchmark therefore times this
kernel right before every job and around every set-up, on the same CPU
(:func:`pin_one_cpu` holds the run and its children to one), and
reports each timing scaled to a reference speed: the speed at which one
kernel sample takes ``REF_MS`` milliseconds.  A metric then reads as
what a user of a host running at that steady speed would see.

The kernel cannot be sped up or slowed down by the program under test:
it uses builtins only (attribute loads on ``__slots__`` objects, dict
lookups, calls, integer arithmetic, branches, the bread and butter of
the interpreter-heavy program) and allocates no object the garbage
collector tracks, so neither the benchmark process's heap nor a
collection it would trigger changes its speed.
"""

import os
import statistics
import time

#: One kernel sample at the reference speed, in milliseconds.
REF_MS = 5.0
#: Kernel rounds in one sample: 2.6 to 6 ms on a 2-vCPU 2.1 GHz Xeon VM
#: as the shared host's speed moved.
ROUNDS = 20_000
#: Each job is scaled by the median of this many samples on either side
#: of it: a sample alone varies by about 15 %, the host's phases last
#: seconds.
HALF_WINDOW = 4


class _Cell:
    __slots__ = ("value", "name", "next")


def _ring():
    cells = [_Cell() for _ in range(64)]
    for i, cell in enumerate(cells):
        cell.value = i * 7919 % 257
        cell.name = "k%03d" % (i * 13 % 256)
        cell.next = cells[(i * 17 + 5) % 64]
    return cells[0], {"k%03d" % i: i * 31 % 97 for i in range(256)}


_START, _TABLE = _ring()


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def _kernel(rounds: int, cell, table) -> int:
    acc = 0
    for _ in range(rounds):
        acc = _mix(acc, cell.value + table[cell.name])
        cell = cell.next if acc & 1 else cell.next.next
    return acc


def sample() -> float:
    """One kernel sample's wall time, in milliseconds."""
    t0 = time.perf_counter()
    _kernel(ROUNDS, _START, _TABLE)
    return 1000.0 * (time.perf_counter() - t0)


def factor(samples) -> float:
    """The scale factor the latest ``2 * HALF_WINDOW`` samples give."""
    return REF_MS / statistics.median(samples[-2 * HALF_WINDOW:])


def factors(samples) -> list:
    """Per-job scale factors to reference speed.  ``samples[i]`` was
    taken before job ``i`` and ``samples[-1]`` after the last job;
    job ``i`` is scaled by ``REF_MS`` over the median of the
    ``2 * HALF_WINDOW`` samples around it."""
    n = len(samples) - 1
    out = []
    for i in range(n):
        near = samples[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW]
        out.append(REF_MS / statistics.median(near))
    return out


def scaled_time(fn, count: int = 3) -> float:
    """Call ``fn()`` between ``count`` kernel samples on either side and
    return its wall time in seconds, scaled to reference speed."""
    before = [sample() for _ in range(count)]
    t0 = time.monotonic()
    fn()
    elapsed = time.monotonic() - t0
    after = [sample() for _ in range(count)]
    return elapsed * REF_MS / statistics.median(before + after)


def pin_one_cpu():
    """Hold this process, and every process it starts, to the CPU it
    is running on, so the kernel samples the CPU the jobs run on.
    Returns that CPU's number."""
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(allowed)
    if cpu not in allowed:
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu
