"""A fixed piece of pure-Python work that gauges how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed changes by
20% and more over seconds to minutes, for every kind of op alike (the same
op, repeated for two minutes, took from 0.38 s to 0.74 s).  run.py times
this reference right after every timed op and scales the op's time by
``NOMINAL_S`` over the mean of the reference times just before and just
after it.  The scaled times read as seconds on a machine where the
reference takes ``NOMINAL_S``; they move when qrr's speed changes and hardly
when the host's does.

The work copies the shape of qrr's hot loops: a partition-count recurrence
over a list of ints (the ``fps`` kernels), a sieve and the JSON of its
primes (``zeta``), and a schoolbook product of big integers (``fps.mul`` on
the strip workload).  It never imports qrr, so a change to qrr cannot
change it.
"""

import json
from time import perf_counter

# about the reference's time on a 2-core Intel Xeon x86-64 sandbox
NOMINAL_S = 0.03

_BIG = [(3**k + 1) << (400 + 7 * k) for k in range(56)]


def measure():
    """Seconds one pass of the reference work takes now."""
    t0 = perf_counter()
    counts = [1] + [0] * 1000
    for part in range(1, 1001):
        if part % 5 in (1, 4):
            for k in range(part, 1001):
                counts[k] += counts[k - part]
    sieve = bytearray([1]) * 100_000
    sieve[0] = sieve[1] = 0
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, 100_000, p)))
    json.dumps([n for n in range(100_000) if sieve[n]])
    product = [0] * (2 * len(_BIG))
    for i, a in enumerate(_BIG):
        for j, b in enumerate(_BIG):
            product[i + j] += a * b
    return perf_counter() - t0
