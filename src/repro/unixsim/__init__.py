"""UNIX process/kernel study: asynchronous sentence activations (Figure 7).

A simulated user process makes write() system calls; the kernel defers the
physical disk writes.  The study demonstrates SAS limitation #1 (the SAS
cannot attribute asynchronous work) and the causal-tag extension that fixes
it.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "kernel": ("DirtyBuffer", "DiskWriteRecord", "Kernel", "KernelConfig"),
        "nv": (
            "KERNEL_LEVEL", "USER_LEVEL", "func_executes", "kernel_disk_write", "syscall_write",
            "unix_vocabulary",
        ),
        "process": ("FunctionSpec", "UserProcess"),
        "study": ("AttributionOutcome", "default_script", "run_figure7_study"),
    },
)
