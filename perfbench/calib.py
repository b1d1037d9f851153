"""Reference work: a fixed computation that does not touch mixcap.

run.py runs ``work()`` in its own process between the CLI jobs of every
pass, while no job is running, and rescales the pass times by how long it
took (see ``end_to_end`` in run.py).  On a shared host the speed of the
machine drifts by tens of percent over minutes; the reference work slows
down with it, so the ratio of a pass time to the reference time follows
the program and not the host.  The work is the benchmark's own numpy code,
of the kind the CLI jobs spend their time on: mutual informations of small
input distributions and Blahut-Arimoto iterations on a 4x4 channel.
"""

from __future__ import annotations

import time

import numpy as np

from reference import blahut_arimoto, mutual_information

_CHANNEL = np.random.default_rng(7).dirichlet(np.ones(4), 4)  # converges slowly
_INPUTS = np.random.default_rng(8).dirichlet(np.ones(4), 1200)
SOLVES = 12


def work() -> float:
    """One unit of reference work; returns a checksum of its results."""
    total = 0.0
    for p in _INPUTS:
        total += mutual_information(p, _CHANNEL)
    for _ in range(SOLVES):
        total += blahut_arimoto(_CHANNEL, tol=1e-12, max_iter=2000).lo
    return total


def timed() -> tuple:
    """(wall s, cpu s) of one unit of reference work."""
    wall, cpu = time.perf_counter(), time.process_time()
    work()
    return time.perf_counter() - wall, time.process_time() - cpu


if __name__ == "__main__":
    for _ in range(5):
        print("reference work: wall %.4f s, cpu %.4f s" % timed())
