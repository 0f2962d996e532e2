"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark's host is shared: its speed for the same code drifts by up to
1.9x over seconds to minutes, and wall time and CPU time drift together.  The
kernel below is the benchmark's own code, never the program's, and does the
same kind of work as the program: interpreted Python arithmetic, numpy
ufuncs on arrays of a few hundred points, and a radix-2 butterfly loop on
complex arrays.  Timed right beside each item, it gives the host's speed at
that moment, and dividing by it removes the drift while leaving every change
of the program in the figure.

A time in *reference seconds* is a wall time multiplied by
REFERENCE_KERNEL_S / (kernel wall time measured beside it): the time the
work would take on a host that runs the kernel in exactly REFERENCE_KERNEL_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's time that defines one reference second; about its time on a
# quiet core of a 2-vCPU Intel Xeon host with Python 3.11 and numpy 2.4
REFERENCE_KERNEL_S = 0.006

_N = 256
_X = np.linspace(0.0, 1.0, _N)
_BITS = _N.bit_length() - 1
_REV = np.array([int(format(i, f"0{_BITS}b")[::-1], 2) for i in range(_N)])
_TWIDDLES = [np.exp(-2j * np.pi * np.arange(h) / (2 * h)) for h in (2 ** s for s in range(_BITS))]


def kernel() -> float:
    """One unit of fixed work; returns a checksum so nothing is optimised away."""
    acc = 0.0
    for i in range(14000):
        acc += (i * 0.5) % 7.0
    table: dict[int, int] = {}
    for i in range(7000):
        table[i % 97] = table.get(i % 97, 0) + i
    y = _X
    for _ in range(420):
        y = np.sqrt(y * y + 1.0) - np.sin(y) * 0.5
        acc += float(y[3])
    for _ in range(21):
        buf = (y + 0j)[_REV]
        half = 1
        for w in _TWIDDLES:
            blocks = buf.reshape(-1, 2 * half)
            top = blocks[:, :half].copy()
            bottom = blocks[:, half:] * w
            blocks[:, :half] = top + bottom
            blocks[:, half:] = top - bottom
            half *= 2
        acc += float(abs(buf[1]))
    return acc + len(table)


def kernel_s(repeats: int = 1) -> float:
    """Median wall time of one kernel call over `repeats` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
