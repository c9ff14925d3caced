"""Nouns and verbs for the UNIX process/kernel study (Figure 7)."""

from __future__ import annotations

from ..core.nouns import AbstractionLevel, Noun, Sentence, Verb, Vocabulary

__all__ = [
    "USER_LEVEL",
    "KERNEL_LEVEL",
    "unix_vocabulary",
    "func_executes",
    "syscall_write",
    "kernel_disk_write",
]

USER_LEVEL = AbstractionLevel(1, "UNIX Process", "user-level functions")
KERNEL_LEVEL = AbstractionLevel(0, "UNIX Kernel", "kernel activities")

EXECUTES = Verb("Executes", "UNIX Process", "user function execution")
WRITE_CALL = Verb("WriteCall", "UNIX Process", "write() system call in progress")
DISK_WRITE = Verb("DiskWrite", "UNIX Kernel", "kernel writes a buffer to disk")


def unix_vocabulary() -> Vocabulary:
    """Vocabulary with the UNIX study's process and kernel levels."""
    vocab = Vocabulary.with_levels([KERNEL_LEVEL, USER_LEVEL])
    for verb in (EXECUTES, WRITE_CALL, DISK_WRITE):
        vocab.add_verb(verb)
    return vocab


def func_executes(name: str) -> Sentence:
    """Figure 7's ``func() executes``."""
    return Sentence(EXECUTES, (Noun(f"{name}()", "UNIX Process", f"user function {name}"),))


def syscall_write(name: str) -> Sentence:
    """``process writes`` while the write() call is outstanding."""
    return Sentence(WRITE_CALL, (Noun(f"{name}()", "UNIX Process", f"user function {name}"),))


def kernel_disk_write(device: str = "disk0") -> Sentence:
    """Figure 7's ``kernel writes to disk``."""
    return Sentence(DISK_WRITE, (Noun(device, "UNIX Kernel", f"disk device {device}"),))
