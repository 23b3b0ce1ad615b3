"""The machine's speed while an invocation runs, from a fixed piece of work
that does not touch the program.

On a shared machine the speed of a single-threaded run drifts.  On the
2-core machine used to build this benchmark, the same CLI invocation,
repeated, had an interquartile spread of 15-21% of its median, and the
slowdown is charged to the process as CPU time, so CPU time drifts with
it.  The two cores drift together over minutes but not second by second,
so the speed must be measured on the core the child runs on, while it
runs.  run.py therefore pins itself and its children to one core, and
while it waits for a child it runs one chunk of fixed work every
PERIOD_S seconds (about 3% of that core, taken from the child).  Each
chunk is timed by its own CPU time, which does not count the time it
waits for the core, and the child's wall time is scaled by
REF_CHUNK_S / (mean chunk time during the child).  With that scaling, the
spread of those repeated invocations fell to 6% for a collapse sweep and
to 10-13% for the shorter htop estimate and `sl3`.  A scaled timing is in
seconds at the machine speed at which one chunk takes REF_CHUNK_S.

A chunk is pure-Python object and dict churn followed by small numpy
operations, the two kinds of work the CLI does.  It imports nothing from
`entropia`, so a change to the program cannot move it.  Pinning keeps the
CLI on one core, so a change that makes it use more cores gains nothing
here.
"""

from time import thread_time

import numpy as np

REF_CHUNK_S = 0.0007    # a chunk's median CPU time on the build machine
PERIOD_S = 0.02         # pause between two chunks while a child runs


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def __add__(self, other):
        return _Pair(self.x + other.x, self.y * other.y)


def chunk_s():
    """CPU time of one chunk of fixed work."""
    t0 = thread_time()
    acc, seen = _Pair(0.0, 1.0), {}
    for i in range(600):
        acc = acc + _Pair(i * 0.5, 1.0000001)
        seen[i & 255] = acc.x
    a = np.arange(64.0)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0)
    return thread_time() - t0
