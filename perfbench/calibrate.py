"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same pass can take twice as long in a slow spell,
and the spells last from a fraction of a second to minutes, longer than
a run. Timing alone, a run caught in one reads up to 2x slower than a
run outside, and no statistic over the run's own passes removes that.
So each run also times this kernel, in short blocks between chunks of
about ``CHUNK_NS`` of the workload, and scales each chunk by how much
faster or slower than ``REFERENCE_NS`` the blocks on either side of it
ran (``instrument.Probe.scaled``). Measured over 50 s on a 2-vCPU
shared x86_64 host (CPython 3.11.7), a herd_2000 pass took 0.78-1.87 s
while its ratio to the kernel stayed within 15-24, and across a slow
spell of about 25 s both slowed by the same factor.

The kernel is a small multipath AIMD simulation in plain Python, the
same kind of work as mpsim's engine: attribute reads and writes on a few
hundred small objects, float arithmetic, list indexing and function
calls. It is part of the benchmark, not of mpsim, so no change to mpsim
changes its time; a change to this file changes every scaled figure.

``REFERENCE_NS`` only sets the unit: it is about the kernel's time when
that host runs fast, so a scaled figure reads close to the time the
workload takes there in a quiet moment.
"""

import time

REFERENCE_NS = 1_250_000    # one kernel() when the tuning host runs fast
KERNELS_PER_BLOCK = 4       # a block is about 5-10 ms
CHUNK_NS = 50_000_000       # workload time between two blocks, at least

AGENTS = 200
STEPS = 12
CAPACITIES = (40.0, 60.0, 90.0)
BASE_RTTS = (20.0, 35.0, 50.0)


class Agent:
    __slots__ = ("cwnd", "path", "state")

    def __init__(self, index):
        self.cwnd = 1.0 + index % 5
        self.path = index % 3
        self.state = index * 2654435761 % 2**32


def rtt(base, load, capacity):
    return base * (1.0 + min(load, capacity) / capacity)


def update(cwnd, lost, path_rtt):
    if lost:
        return max(1.0, cwnd * 0.5)
    return cwnd + 10.0 / path_rtt


def kernel():
    """One run of the reference computation; returns a checksum."""
    agents = [Agent(i) for i in range(AGENTS)]
    total = 0.0
    for _ in range(STEPS):
        loads = [0.0, 0.0, 0.0]
        for agent in agents:
            loads[agent.path] += agent.cwnd
        rtts = [rtt(BASE_RTTS[p], loads[p], CAPACITIES[p]) for p in range(3)]
        best = min(range(3), key=rtts.__getitem__)
        for agent in agents:
            path = agent.path
            agent.cwnd = update(agent.cwnd, loads[path] > CAPACITIES[path], rtts[path])
            agent.state = (agent.state * 1103515245 + 12345) % 2**31
            agent.path = best if agent.state % 10 else agent.state % 3
        total += sum(loads)
    return total


CHECKSUM = kernel()


def block():
    """Mean ns of one kernel() over a block of ``KERNELS_PER_BLOCK`` runs."""
    start = time.perf_counter_ns()
    for _ in range(KERNELS_PER_BLOCK):
        checksum = kernel()
    elapsed = time.perf_counter_ns() - start
    if checksum != CHECKSUM:
        raise RuntimeError("the calibration kernel gave a different result")
    return elapsed / KERNELS_PER_BLOCK
