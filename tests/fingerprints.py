"""Fingerprints of runs: SHA-256 of their arrays' float64 bytes, for bit pins and bit equality."""

import hashlib

import numpy as np


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def snapshot_arrays(run):
    """Each snapshot's clock (as a one-entry array) and fields, in order."""
    for s in run.snapshots:
        yield np.array([s.clock])
        yield from (a for a in (s.theta, s.theta_t, s.theta_tt, s.zeta, s.zeta_t) if a is not None)


def snapshot_digest(run) -> str:
    return digest(run.times, *snapshot_arrays(run))


def fingerprint(run):
    """Every output of a run, as bytes where it is an array."""
    series = [run.times, run.omega] + [a for a in (run.energy, run.dissipation, run.visc_work)
                                       if a is not None]
    online = [vs for _, vs in sorted((run.dissipation_online or {}).items())]
    events = [(e.kind, e.clock, e.detail, e.crossing) for e in run.events]
    return (digest(*series, *online, *snapshot_arrays(run)), repr(events), run.completed,
            len(run.snapshots), len(run.times))
