"""Tiny arithmetic expression grammar, evaluated over caller-supplied values.

Accepts +, -, *, /, integer powers, parentheses, integer literals, names,
and calls like sigma(x) or sigma(x, 2) or t(-1).  The caller provides an
ops object mapping literals, names and calls into its value domain; RingOps
is that object for any ring of sparse polynomials over a base field.
"""

from __future__ import annotations

import ast


class ExpressionError(ValueError):
    pass


# The largest literal exponent or sigma count an expression may hold, and the
# largest product of nested exponents: far above every one the gallery and the
# suites write, and small enough that one power or sigma chain stays quick,
# where a literal like 10^8, or ((y0+1)^1000)^1000, would not end.
MAX_LITERAL = 1000


def _within_cap(n, what):
    if n > MAX_LITERAL:
        raise ExpressionError(f"{what} {n} is above the cap of {MAX_LITERAL}")
    return n


class RingOps:
    """Expression ops over a _multipoly.Ring exposing sigma, whose elements are
    dicts with () as the constant monomial.

    name(s) resolves identifiers; call(fname, args), when given, handles the
    ring's own calls and returns None for names it does not know.
    """

    def __init__(self, ring, name, call=None):
        self.ring = ring
        self.name = name
        self._call = call
        self.add, self.sub, self.mul = ring.add, ring.sub, ring.mul
        self.neg, self.pow, self.from_int = ring.neg, ring.power, ring.from_int

    def div(self, a, b):
        if len(b) == 1 and () in b:
            return self.ring.scale(a, self.ring.base.inv(b[()]))
        raise ExpressionError("division only by constants")

    def call(self, fname, args):
        if self._call is not None:
            out = self._call(fname, args)
            if out is not None:
                return out
        if fname == "sigma" and len(args) in (1, 2):
            v = self.from_int(args[0]) if isinstance(args[0], int) else args[0]
            steps = 1 if len(args) == 1 else args[1]
            if isinstance(steps, int):
                if steps < 0:
                    raise ExpressionError("sigma counts must be non-negative")
                for _ in range(_within_cap(steps, "sigma count")):
                    v = self.ring.sigma(v)
                return v
        raise ExpressionError(f"unknown call {fname!r}")


def evaluate(text, ops):
    # caret powers get Python's exponent precedence
    source = text.replace("^", "**")
    try:
        return _ev(ast.parse(source, mode="eval").body, ops)
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc
    except (RecursionError, MemoryError) as exc:
        # the parser and _ev recurse once per level of nesting
        raise ExpressionError("expression nests too deeply") from exc


def _int_literal(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_int_literal(node.operand)
    raise ExpressionError("expected an integer literal")


def _ev(node, ops, scale=1):
    """The value of node; scale is the product of the exponents of the powers
    around it, which together raise it to that power, so nested powers share
    the one cap."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return ops.from_int(node.value)
        raise ExpressionError(f"unsupported literal {node.value!r}")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            e = _int_literal(node.right)
            if e < 0:
                raise ExpressionError("negative exponents are not supported")
            inner = _within_cap(scale * max(_within_cap(e, "exponent"), 1),
                                "product of nested exponents")
            return ops.pow(_ev(node.left, ops, inner), e)
        a = _ev(node.left, ops, scale)
        b = _ev(node.right, ops, scale)
        if isinstance(node.op, ast.Add):
            return ops.add(a, b)
        if isinstance(node.op, ast.Sub):
            return ops.sub(a, b)
        if isinstance(node.op, ast.Mult):
            return ops.mul(a, b)
        if isinstance(node.op, ast.Div):
            return ops.div(a, b)
        raise ExpressionError(f"unsupported operator {type(node.op).__name__}")
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return ops.neg(_ev(node.operand, ops, scale))
        if isinstance(node.op, ast.UAdd):
            return _ev(node.operand, ops, scale)
        raise ExpressionError("unsupported unary operator")
    if isinstance(node, ast.Name):
        return ops.name(node.id)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name):
            raise ExpressionError("only simple calls are supported")
        args = []
        for a in node.args:
            try:
                args.append(_int_literal(a))
            except ExpressionError:
                args.append(_ev(a, ops, scale))
        return ops.call(node.func.id, args)
    raise ExpressionError(f"unsupported syntax {type(node).__name__}")
