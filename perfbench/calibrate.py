"""A fixed reference load that measures how fast the machine runs right now.

On a shared virtual machine the CPU time of the same Python code swings
by up to half from one phase of a few seconds to the next, as other
guests load the host; a CPU-time clock does not hide that.  The
benchmark therefore times ``load`` next to every case and divides each
op's CPU time by it: an op that takes twice the reference load's time
reads as twice ``REFERENCE_MS`` whatever the phase.  The load builds the
kind of small objects the program's ops build (a dict of formatted
strings, joined; sums of fractions), which a phase slows about as much
as it slows the ops: on all three workloads, loads of this kind tracked
the ops' CPU time better than a plain interpreter loop, big-int products
or sorting a large list did.  It uses only the standard library, so a
change to treecount cannot move it.
"""

from __future__ import annotations

from fractions import Fraction
from time import thread_time

# Fixes the unit of scaled times.  Between ops on a 2-vCPU shared VM
# (Python 3.11) ``load`` took about 4 to 7 CPU milliseconds, by phase; so
# scaled times read as CPU times there in its slower phases.
REFERENCE_MS = 6.5


def load() -> int:
    table = {f"{i} {i + 1}": i for i in range(5_000)}
    acc = len("\n".join(table))
    for _ in range(5):
        total = Fraction(0)
        for k in range(1, 120):
            total += Fraction(k, k * k + 1)
        acc += total.denominator.bit_length()
    return acc


def seconds() -> float:
    """CPU seconds of one ``load`` on this thread."""
    t0 = thread_time()
    load()
    return thread_time() - t0
