"""A fixed reference workload that measures the host's current speed.

The hosts this benchmark runs on are shared: the same CPU-bound loop takes
anywhere from 1x to 1.6x as long depending on the minute (measured on a
2-core VM with a 150 s trace of 5 s windows).  Pass, document and
set-up times are therefore reported in reference-scaled seconds: measured
seconds multiplied by ``NOMINAL_S`` over the reference's duration measured
next to them (around each pass, or the median over the set-up spawns).
Slow and fast minutes then give about the same value, while a change in
the program still shows in full.

The workload mixes the kinds of work the package does (integer row
elimination, exact fractions, JSON) using only the standard library.  It
never calls the package, so a change to the package cannot move it.  It
allocates little, so running it inside the workload process leaves the
peak RSS alone.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

NOMINAL_S = 0.010  # about the reference's duration on the host it was written on


def reference_work():
    n = 50
    rows = [[(i * 31 + j * 17) % 23 - 11 for j in range(n)] for i in range(n)]
    modulus = 1_000_003
    for c in range(n):
        piv = rows[c][c] or 1
        top = rows[c]
        for i in range(c + 1, n):
            row, lead = rows[i], rows[i][c]
            for j in range(c, n):
                row[j] = (piv * row[j] - lead * top[j]) % modulus
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k % 7 - 3, k)
    doc = {
        "nodes": [
            {"id": f"n{i}", "pos": [i * 0.5, i / 3.0], "force": [i, -i]}
            for i in range(250)
        ]
    }
    back = json.loads(json.dumps(doc))
    return rows[-1][-1] + acc.numerator % 7 + len(back["nodes"])


def measure():
    """Seconds one run of the reference workload takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
