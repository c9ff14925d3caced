"""PIF: the Paradyn Information Format for static mapping information.

Record model (Figures 2-3), text serialization, and the utility that
generates PIF files by parsing CM Fortran compiler listing files
(Section 6.2).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "format": ("PIFSyntaxError", "dump", "dumps", "load", "loads"),
        "generator": ("ListingParseError", "generate_pif", "parse_listing"),
        "records": (
            "LevelDef", "MappingDef", "MergeConflictError", "NounDef", "PIFDocument",
            "ResolutionError", "SentenceRef", "VerbDef",
        ),
    },
)
