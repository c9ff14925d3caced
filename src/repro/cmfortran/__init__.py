"""CMF: a small data-parallel Fortran dialect standing in for CM Fortran.

Real lexer, parser, semantic analysis, and a lowering compiler producing
node code blocks (``cmpe_<prog>_<k>_``) plus an execution plan for the CMRTS
runtime, and a compiler listing file that the PIF generator parses -- the
same compiler-output-to-PIF pipeline described in Section 6.2 of the paper.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "ast": (
            "Assignment", "BinOp", "CallStmt", "DoLoop", "Entity", "Expr", "Forall", "Ident",
            "LayoutDecl", "Num", "Program", "Ref", "Stmt", "TypeDecl", "UnaryOp", "walk_exprs",
        ),
        "interp": ("Interpreter", "interpret"),
        "intrinsics": ("EvalError", "combine", "eval_expr", "REDUCE_FUNCS", "REDUCE_IDENTITY"),
        "ir": (
            "BlockOp", "DispatchStep", "Elementwise", "ExecutionPlan", "HaloExchange",
            "LocalReduce", "LoopStep", "NodeCodeBlock", "PlanStep", "Scan", "ScalarStep", "Shift",
            "Sort", "Transpose",
        ),
        "lexer": ("LexError", "Token", "tokenize"),
        "listing": ("LISTING_HEADER", "emit_listing"),
        "lowering": ("LoweringResult", "lower"),
        "parser": ("ParseError", "parse", "parse_expression"),
        "program": ("CompiledProgram", "compile_ast", "compile_source"),
        "semantics": (
            "ELEMENTWISE_INTRINSICS", "REDUCTION_INTRINSICS", "TRANSFORM_INTRINSICS",
            "AnalyzedProgram", "ArraySymbol", "ScalarSymbol", "SemanticError", "StmtClass",
            "SymbolTable", "analyze", "const_int",
        ),
    },
)
