"""Simulated CM-5-like distributed-memory machine.

This package substitutes for the paper's hardware testbed: a deterministic
discrete-event kernel (:mod:`~repro.machine.sim`), parallel nodes with
ground-truth time ledgers (:mod:`~repro.machine.node`), a latency/bandwidth
network with observer hooks (:mod:`~repro.machine.network`), and a control
processor (:mod:`~repro.machine.control`), assembled by
:class:`~repro.machine.machine.Machine`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "control": ("ControlProcessor",),
        "machine": ("Machine", "MachineConfig"),
        "network": ("CONTROL_PROCESSOR", "Message", "MessageEvent", "Network", "NetworkConfig"),
        "node": ("Node", "TimeAccounts"),
        "sim": (
            "Channel", "ChannelGet", "Process", "ProcessCrashed", "Signal", "SimulationError",
            "Simulator", "Timeout",
        ),
    },
)
