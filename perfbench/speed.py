"""Machine-speed calibration for the benchmark's timings.

On a shared host the same pass can take 25% longer for seconds or minutes
at a time, because of other tenants on the same cores, and that swamps
the run-to-run comparison.  Timings are therefore taken next to samples
of a fixed reference, outside the timed regions, and ``run.py`` multiplies
each latency by REF[kind] / the mean of the samples just before and just
after it: the end-to-end times are seconds at the reference speed.  The
raw seconds stay in the run record.

Two references, because in-process work and process starts slow down
differently (on the baseline host, scaling cli calls by an in-process
reference made their spread worse, 0.07 against 0.05 raw; the start
reference gave 0.02):

- "fraction": Gaussian elimination over Fractions on a fixed 14x14
  matrix, sampled after every in-process query.  It tracks the ring
  side's Fraction arithmetic and, less closely, the lattice side's numpy
  scans: over 2-3 minutes of repeated queries on the baseline host the
  spread (Q3 - Q1) / median of one query's latency was 0.31 raw, 0.19
  against a plain integer loop and 0.12 against this reference
  (ring-colon queries); 0.26, 0.18 and 0.15 for lattice queries;
- "start": a fresh interpreter importing numpy, sampled around cli calls
  and before every worker start (setup_s).

REF holds fixed units, about each reference's median time on the 2-vCPU
x86-64 host of the first baseline (CPython 3.11, numpy 2.4).  They must
not change between benchmark versions that are compared.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REF = {"fraction": 0.0075, "start": 0.2}
LONG_S = 1.0


def _reference_elimination() -> None:
    rng = random.Random(7)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(14)] for _ in range(14)]
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def scaled(timeline, ref: float) -> list[float]:
    """Latencies at the reference speed from one pass's ordered events.

    ``timeline`` holds [latency or None, sample or None] pairs in the order
    they happened; a worker's start contributes [None, sample].  A latency
    under LONG_S is scaled by the samples that bracket it (the last one if
    nothing follows); a longer one by the mean of all the pass's samples,
    because a sample reads the speed of one instant, and the host's speed
    changes within the seconds such a query runs (see perfbench/README.md).
    """
    cals = [cal for _, cal in timeline if cal is not None]
    whole = sum(cals) / len(cals)
    out: list[float] = []
    before, pending = None, []
    for t, cal in timeline:
        if t is not None:
            pending.append(t)
        if cal is not None:
            mean = cal if before is None else (before + cal) / 2
            out += [x * ref / (mean if x < LONG_S else whole) for x in pending]
            before, pending = cal, []
    return out + [x * ref / (before if x < LONG_S else whole) for x in pending]


def sample(kind: str) -> float:
    """One reference sample in seconds: for "fraction" the median of three
    7 ms eliminations, so that one interrupted timing does not skew the
    scale; for "start" one interpreter start (about 0.2 s)."""
    if kind == "start":
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_elimination()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
