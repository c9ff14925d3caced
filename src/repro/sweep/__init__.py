"""Deterministic process-parallel parameter sweeps.

The reproduction's methodology (after the paper's own) is repeated
instrumented runs over configuration grids.  This package fans those runs
across a process pool while guaranteeing the merged output is
byte-identical to a serial run: per-task seeds, ordered merges, and crash
surfacing -- see :mod:`repro.sweep.runner`.  Workers hydrate the grid once
(fork copy-on-write or one blob per worker), receive index chunks
(:mod:`repro.sweep.chunking`), and return checked plain-data results as
the pool's pickled replies.  Study adapters for the dbsim / unixsim /
kernel grids live in :mod:`repro.sweep.studies`; the ``python -m repro
sweep`` subcommand and the abl8 bench drive them.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "chunking": ("chunk_indices", "resolve_chunk_size"),
        "runner": ("SweepResult", "SweepRunner", "SweepTask", "SweepWorkerError", "fingerprint"),
        "studies": (
            "STUDIES", "build_grid", "db_grid", "db_task", "kernel_grid", "kernel_task",
            "unix_grid", "unix_task",
        ),
    },
)
