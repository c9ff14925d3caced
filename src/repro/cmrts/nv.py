"""Standard nouns, verbs and levels for the CM Fortran / CMRTS case study.

Three levels of abstraction, as in Sections 5-6:

* **CM Fortran** (rank 2): source lines, parallel arrays, statements;
  verbs like Executes, Sum, MaxVal, MinVal, Compute, Rotate, Shift,
  Transpose, Scan, Sort.
* **CMRTS** (rank 1): the run-time system's activities; verbs Broadcast,
  PointToPoint, Reduction, ArgumentProcessing, Cleanup, Idle,
  NodeActivation (the Figure-9 CMRTS metrics' verbs).
* **Base** (rank 0): node code blocks, processors, messages; verbs Send,
  Receive, CPUUtilization.
"""

from __future__ import annotations

from ..core.nouns import AbstractionLevel, Noun, Sentence, Verb, Vocabulary

__all__ = [
    "POINTS",
    "CMF_LEVEL",
    "CMRTS_LEVEL",
    "BASE_LEVEL",
    "CMF_VERBS",
    "CMRTS_VERBS",
    "BASE_VERBS",
    "standard_vocabulary",
    "line_noun",
    "array_noun",
    "block_noun",
    "processor_noun",
    "line_executes",
    "array_op",
    "cmrts_activity",
    "processor_sends",
]

#: Every instrumentation point the CMRTS runtime exposes (entry+exit each,
#: except the pure-count points marked "entry only" in their description).
POINTS = (
    "cmrts.idle",  # waiting for the control processor
    "cmrts.node_activation",  # dispatch received (entry only)
    "cmrts.argument_processing",  # unpacking broadcast arguments
    "cmrts.broadcast",  # broadcast reception (entry only)
    "cmrts.cleanup",  # vector-unit reset
    "cmrts.compute",  # elementwise node computation
    "cmrts.reduce",  # local reduce + global combine
    "cmrts.shift",  # CSHIFT/EOSHIFT remap
    "cmrts.transpose",  # all-to-all transpose
    "cmrts.scan",  # prefix scan
    "cmrts.sort",  # parallel sample sort
    "cmrts.p2p",  # each point-to-point send (entry/exit around occupation)
    "cmrts.block",  # whole node-code-block execution
)

CMF_LEVEL = AbstractionLevel(2, "CM Fortran", "data-parallel source level")
CMRTS_LEVEL = AbstractionLevel(1, "CMRTS", "CM run-time system level")
BASE_LEVEL = AbstractionLevel(0, "Base", "functions, processors and messages")

CMF_VERBS = (
    Verb("Executes", "CM Fortran", "statement execution; units are % CPU"),
    Verb("Compute", "CM Fortran", "elementwise computation on arrays"),
    Verb("Sum", "CM Fortran", "SUM reduction of an array"),
    Verb("MaxVal", "CM Fortran", "MAXVAL reduction of an array"),
    Verb("MinVal", "CM Fortran", "MINVAL reduction of an array"),
    Verb("Rotate", "CM Fortran", "circular shift (CSHIFT) of an array"),
    Verb("Shift", "CM Fortran", "end-off shift (EOSHIFT) of an array"),
    Verb("Transpose", "CM Fortran", "TRANSPOSE of an array"),
    Verb("Scan", "CM Fortran", "prefix scan of an array"),
    Verb("Sort", "CM Fortran", "parallel sort of an array"),
)

CMRTS_VERBS = (
    Verb("Broadcast", "CMRTS", "broadcast from the control processor"),
    Verb("PointToPoint", "CMRTS", "inter-node communication operation"),
    Verb("Reduction", "CMRTS", "global combine of node partial results"),
    Verb("ArgumentProcessing", "CMRTS", "receiving arguments from the control processor"),
    Verb("Cleanup", "CMRTS", "reset of node vector units"),
    Verb("Idle", "CMRTS", "waiting for the control processor"),
    Verb("NodeActivation", "CMRTS", "node code block dispatch"),
)

BASE_VERBS = (
    Verb("Send", "Base", "low-level message send"),
    Verb("Receive", "Base", "low-level message receive"),
    Verb("CPUUtilization", "Base", "units are % CPU"),
)

#: verb name for each transform/reduce kind the compiler produces
TRANSFORM_VERB_NAMES = {
    "CSHIFT": "Rotate",
    "EOSHIFT": "Shift",
    "TRANSPOSE": "Transpose",
    "SCAN": "Scan",
    "SORT": "Sort",
}


def standard_vocabulary() -> Vocabulary:
    """A vocabulary pre-loaded with the three case-study levels and verbs."""
    vocab = Vocabulary.with_levels([BASE_LEVEL, CMRTS_LEVEL, CMF_LEVEL])
    for verb in (*CMF_VERBS, *CMRTS_VERBS, *BASE_VERBS):
        vocab.add_verb(verb)
    return vocab


# ----------------------------------------------------------------------
# noun constructors
# ----------------------------------------------------------------------
def line_noun(line: int, source_file: str = "") -> Noun:
    """CM Fortran-level noun for a source line (Figure 2's ``line1160``)."""
    desc = f"line #{line}" + (f" in source file {source_file}" if source_file else "")
    return Noun(f"line{line}", "CM Fortran", desc)


def array_noun(name: str, shape: tuple[int, ...] = ()) -> Noun:
    """CM Fortran-level noun for a parallel array."""
    desc = f"parallel array {name}" + (f" shape {shape}" if shape else "")
    return Noun(name, "CM Fortran", desc)


def block_noun(block_name: str) -> Noun:
    """Base-level noun for a compiler-generated node code block."""
    return Noun(
        f"{block_name}()", "Base", "compiler generated function, source code not available"
    )


def processor_noun(node_id: int) -> Noun:
    """Base-level noun for one parallel node."""
    return Noun(f"Processor_{node_id}", "Base", f"parallel node {node_id}")


def node_noun(node_id: int) -> Noun:
    return Noun(f"node{node_id}", "CMRTS", f"run-time system on node {node_id}")


# ----------------------------------------------------------------------
# sentence constructors (common shapes from the paper's figures)
# ----------------------------------------------------------------------
def _verb(name: str, level: str) -> Verb:
    for group in (CMF_VERBS, CMRTS_VERBS, BASE_VERBS):
        for verb in group:
            if verb.name == name and verb.abstraction == level:
                return verb
    raise KeyError(f"unknown standard verb {name!r} at {level!r}")


def line_executes(line: int, source_file: str = "") -> Sentence:
    """Figure 5's ``HPF: line #1 executes``."""
    return Sentence(_verb("Executes", "CM Fortran"), (line_noun(line, source_file),))


def array_op(verb_name: str, array: str) -> Sentence:
    """Figure 5's ``HPF: A sums`` (and friends)."""
    return Sentence(_verb(verb_name, "CM Fortran"), (array_noun(array),))


def cmrts_activity(verb_name: str, node_id: int) -> Sentence:
    """A CMRTS-level activity sentence on one node (Idle, Cleanup, ...)."""
    return Sentence(_verb(verb_name, "CMRTS"), (node_noun(node_id),))


def processor_sends(node_id: int) -> Sentence:
    """Figure 5's ``Base: Processor sends a message``."""
    return Sentence(_verb("Send", "Base"), (processor_noun(node_id),))
