"""Surface language: AST, parser, validator."""

from .ast import (
    Annotation, Assign, Binary, BoolLit, BuiltinCall, ClassDecl, Expr, ExprStmt,
    FieldDecl, FieldGet, If, IntLit, ListLit, MethodCall, MethodDecl, New, Param,
    Program, Return, Stmt, StrLit, This, TypeRef, Unary, Var, VarDecl, Visibility,
    While,
)
from .parser import parse_program
from .validate import ValidationReport, Violation, analyze_calls, assignable, validate

__all__ = [
    "Annotation", "Assign", "Binary", "BoolLit", "BuiltinCall", "ClassDecl",
    "Expr", "ExprStmt", "FieldDecl", "FieldGet", "If", "IntLit", "ListLit",
    "MethodCall", "MethodDecl", "New", "Param", "Program", "Return", "Stmt",
    "StrLit", "This", "TypeRef", "Unary", "Var", "VarDecl", "Visibility",
    "While", "parse_program",
    "ValidationReport", "Violation", "analyze_calls", "assignable", "validate",
]
