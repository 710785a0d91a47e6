"""Flush policy of the bench spine, applied to the system under test.

Every interpreter of the spawned stack (broker, gateway, fleet workers,
verdict-pool children) finds this directory on ``PYTHONPATH`` and so
imports this module at start-up. It makes ``os.fsync`` return at once.

Why: the program issues one ``fsync`` per journaled op, and on the build
host's virtio disk that call takes 0.25-0.6 ms with minute-long episodes
of 2x — a third of a sparse op, and none of it a property of the
program (10 seeds of ``broker_sparse`` with real flushes: eight runs
within 5 %, two with ``ops_per_s`` at 0.74x and 0.29x while
``read_p50_ms``, which does not flush, stayed put). A tmpfs state dir
would make the flush free the same way, but the benchmark may only
write inside its checkout. Device flush latency is therefore not
measured here; flush *counts* are (``service.persistence.fsyncs_per_op``
in the traced pass), which is what a group-commit change moves.
"""

import os


def _fsync_not_waited_for(fd):
    os.fstat(fd)  # still fails on a bad descriptor, as fsync would


os.fsync = _fsync_not_waited_for
