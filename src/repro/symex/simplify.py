"""Smart constructors for symbolic expressions.

Every expression built by the executor goes through these constructors,
which perform constant folding and light algebraic canonicalization.  This
mirrors KLEE's ``ExprBuilder`` layer and is what keeps constraint sizes
proportional to the (optimized) program rather than to the raw instruction
stream — the better the compiler simplifies the program, the smaller the
expressions that reach the solver.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .expr import COMPARISON_OPS, Expr, ExprOp, mask, to_signed, truncdiv

# Strong bounded caches in front of the weak intern table for the two
# highest-traffic constructors: they skip the weakref machinery and keep the
# most common leaves (small constants, input variables) permanently alive.
_CONST_CACHE: Dict[Tuple[int, int], Expr] = {}
_CONST_CACHE_LIMIT = 4096
_VAR_CACHE: Dict[Tuple[int, str], Expr] = {}
_VAR_CACHE_LIMIT = 4096


def const(width: int, value: int) -> Expr:
    # Mask before keying so aliases of one constant (e.g. 256 and 0 at
    # width 8) share a single cache slot, as they share an interned node.
    value &= (1 << width) - 1
    key = (width, value)
    expr = _CONST_CACHE.get(key)
    if expr is None:
        expr = Expr(ExprOp.CONST, width, value=value)
        if len(_CONST_CACHE) < _CONST_CACHE_LIMIT:
            _CONST_CACHE[key] = expr
    return expr


def true_expr() -> Expr:
    return const(1, 1)


def false_expr() -> Expr:
    return const(1, 0)


def var(width: int, name: str) -> Expr:
    key = (width, name)
    expr = _VAR_CACHE.get(key)
    if expr is None:
        expr = Expr(ExprOp.VAR, width, name=name)
        if len(_VAR_CACHE) < _VAR_CACHE_LIMIT:
            _VAR_CACHE[key] = expr
    return expr


def _fold_binary(op: ExprOp, width: int, lhs: int, rhs: int,
                 operand_width: int) -> int:
    if op is ExprOp.ADD:
        return (lhs + rhs) & mask(width)
    if op is ExprOp.SUB:
        return (lhs - rhs) & mask(width)
    if op is ExprOp.MUL:
        return (lhs * rhs) & mask(width)
    if op is ExprOp.AND:
        return lhs & rhs
    if op is ExprOp.OR:
        return lhs | rhs
    if op is ExprOp.XOR:
        return lhs ^ rhs
    if op is ExprOp.SHL:
        return (lhs << (rhs % width)) & mask(width)
    if op is ExprOp.LSHR:
        return lhs >> (rhs % width)
    if op is ExprOp.ASHR:
        return (to_signed(lhs, width) >> (rhs % width)) & mask(width)
    if op is ExprOp.UDIV:
        return (lhs // rhs) & mask(width) if rhs else 0
    if op is ExprOp.UREM:
        return (lhs % rhs) & mask(width) if rhs else lhs
    if op is ExprOp.SDIV:
        if rhs == 0:
            return 0
        return truncdiv(to_signed(lhs, width),
                         to_signed(rhs, width)) & mask(width)
    if op is ExprOp.SREM:
        if rhs == 0:
            return lhs
        slhs, srhs = to_signed(lhs, width), to_signed(rhs, width)
        return (slhs - truncdiv(slhs, srhs) * srhs) & mask(width)
    if op is ExprOp.EQ:
        return int(lhs == rhs)
    if op is ExprOp.NE:
        return int(lhs != rhs)
    if op is ExprOp.ULT:
        return int(lhs < rhs)
    if op is ExprOp.ULE:
        return int(lhs <= rhs)
    if op is ExprOp.SLT:
        return int(to_signed(lhs, operand_width) < to_signed(rhs, operand_width))
    if op is ExprOp.SLE:
        return int(to_signed(lhs, operand_width) <= to_signed(rhs, operand_width))
    raise ValueError(f"not a binary operator: {op}")


def binary(op: ExprOp, lhs: Expr, rhs: Expr) -> Expr:
    """Build a binary expression with folding and identity simplification."""
    is_comparison = op.is_comparison
    width = 1 if is_comparison else lhs.width
    if lhs.is_constant and rhs.is_constant:
        return const(width, _fold_binary(op, lhs.width if is_comparison
                                         else width,
                                         lhs.value, rhs.value, lhs.width))

    # Canonicalize: constants on the right for commutative operators.
    if lhs.is_constant and op.is_commutative:
        lhs, rhs = rhs, lhs

    if rhs.is_constant:
        rv = rhs.value
        if op is ExprOp.ADD and rv == 0:
            return lhs
        if op is ExprOp.SUB and rv == 0:
            return lhs
        if op is ExprOp.MUL:
            if rv == 0:
                return const(width, 0)
            if rv == 1:
                return lhs
        if op is ExprOp.AND:
            if rv == 0:
                return const(width, 0)
            if rv == (1 << width) - 1:
                return lhs
        if op is ExprOp.OR:
            if rv == 0:
                return lhs
            if rv == (1 << width) - 1:
                return rhs
        if op is ExprOp.XOR and rv == 0:
            return lhs
        if op in (ExprOp.SHL, ExprOp.LSHR, ExprOp.ASHR) and rv == 0:
            return lhs
        if op is ExprOp.UDIV and rv == 1:
            return lhs
        # Shifting a zero-extended value right past its original bits
        # leaves 0: the memory model's byte reassembly of a stored byte
        # then folds back to that byte.
        if op is ExprOp.LSHR and lhs.op is ExprOp.ZEXT and \
                rv % width >= lhs.operands[0].width:
            return const(width, 0)

    if lhs is rhs or lhs == rhs:
        if op is ExprOp.SUB or op is ExprOp.XOR:
            return const(width, 0)
        if op in (ExprOp.AND, ExprOp.OR):
            return lhs
        if op in (ExprOp.EQ, ExprOp.ULE, ExprOp.SLE):
            return true_expr()
        if op in (ExprOp.NE, ExprOp.ULT, ExprOp.SLT):
            return false_expr()

    # (zext x) == 0  ->  x == 0 over the narrower width; helps the solver
    # keep constraints on the original input bytes.
    if op in (ExprOp.EQ, ExprOp.NE) and rhs.is_constant and \
            lhs.op is ExprOp.ZEXT:
        inner = lhs.operands[0]
        if rhs.value <= mask(inner.width):
            return binary(op, inner, const(inner.width, rhs.value))

    # Boolean simplifications for width-1 operands.
    if width == 1 and lhs.width == 1:
        if op is ExprOp.EQ and rhs.is_constant:
            return lhs if rhs.value == 1 else not_expr(lhs)
        if op is ExprOp.NE and rhs.is_constant:
            return not_expr(lhs) if rhs.value == 1 else lhs

    return Expr(op, width, (lhs, rhs))


#: not (a < b)  ->  b <= a, etc.: negating an ordered comparison flips the
#: operator *and* swaps the operands, keeping constraints in comparison form
#: (where the interval fast path and branch-and-prune can decide them)
#: instead of wrapping them in an opaque ``xor 1``.
_ORDER_NEGATIONS = {ExprOp.ULT: ExprOp.ULE, ExprOp.ULE: ExprOp.ULT,
                    ExprOp.SLT: ExprOp.SLE, ExprOp.SLE: ExprOp.SLT}


def not_expr(operand: Expr) -> Expr:
    """Logical negation of a width-1 expression."""
    assert operand.width == 1
    if operand.is_constant:
        return const(1, 1 - operand.value)
    if operand.op is ExprOp.XOR:
        # ``binary`` canonicalizes the constant of a commutative operator
        # to the right, but a double negation must collapse regardless of
        # which side the 1 landed on — substitution paths may hand us a
        # non-canonical node, and silently skipping the rewrite would leave
        # an opaque ``xor`` in front of the solver.
        a, b = operand.operands
        if b.is_constant and b.value == 1:
            return a
        if a.is_constant and a.value == 1:
            return b
    # not (a == b) -> a != b, etc., keeps constraints in comparison form.
    negations = {ExprOp.EQ: ExprOp.NE, ExprOp.NE: ExprOp.EQ}
    if operand.op in negations:
        return Expr(negations[operand.op], 1, operand.operands)
    if operand.op in _ORDER_NEGATIONS:
        return Expr(_ORDER_NEGATIONS[operand.op], 1,
                    (operand.operands[1], operand.operands[0]))
    return binary(ExprOp.XOR, operand, const(1, 1))


def bitwise_not(operand: Expr) -> Expr:
    if operand.is_constant:
        return const(operand.width, ~operand.value)
    return Expr(ExprOp.NOT, operand.width, (operand,))


def zext(operand: Expr, width: int) -> Expr:
    if width == operand.width:
        return operand
    if operand.is_constant:
        return const(width, operand.value)
    if operand.op is ExprOp.ZEXT:
        return zext(operand.operands[0], width)
    return Expr(ExprOp.ZEXT, width, (operand,))


def sext(operand: Expr, width: int) -> Expr:
    if width == operand.width:
        return operand
    if operand.is_constant:
        return const(width, to_signed(operand.value, operand.width))
    return Expr(ExprOp.SEXT, width, (operand,))


def trunc(operand: Expr, width: int) -> Expr:
    if width == operand.width:
        return operand
    if operand.is_constant:
        return const(width, operand.value)
    if operand.op in (ExprOp.ZEXT, ExprOp.SEXT):
        inner = operand.operands[0]
        if inner.width == width:
            return inner
        if inner.width > width:
            return trunc(inner, width)
    return Expr(ExprOp.TRUNC, width, (operand,))


def ite(condition: Expr, then: Expr, otherwise: Expr) -> Expr:
    """If-then-else (the symbolic counterpart of the IR's ``select``)."""
    assert condition.width == 1
    if condition.is_constant:
        return then if condition.value else otherwise
    if then == otherwise:
        return then
    if then.width == 1 and then.is_constant and otherwise.is_constant:
        if then.value == 1 and otherwise.value == 0:
            return condition
        if then.value == 0 and otherwise.value == 1:
            return not_expr(condition)
    return Expr(ExprOp.ITE, then.width, (condition, then, otherwise))


def rebuild(op: ExprOp, width: int, operands: Tuple[Expr, ...]) -> Expr:
    """Re-apply the smart constructor for ``op`` to new operands, so that a
    transformed expression gets the same folding/canonicalization as a
    freshly built one."""
    if op is ExprOp.ZEXT:
        return zext(operands[0], width)
    if op is ExprOp.SEXT:
        return sext(operands[0], width)
    if op is ExprOp.TRUNC:
        return trunc(operands[0], width)
    if op is ExprOp.NOT:
        return bitwise_not(operands[0])
    if op is ExprOp.ITE:
        return ite(operands[0], operands[1], operands[2])
    return binary(op, operands[0], operands[1])


def substitute(expr: Expr, mapping: Dict[Expr, Expr],
               key_variables: Optional[frozenset] = None) -> Expr:
    """Replace whole subexpressions throughout ``expr``.

    ``mapping`` sends interned nodes to their replacements — hash-consing
    makes the occurrence check a dict lookup, so a ``var == const`` mapping
    and a ``complex-expr == const`` mapping cost the same.  Matching is
    top-down (an enclosing match wins over matches inside it) and rebuilt
    nodes are re-checked, with every touched node going through the smart
    constructors so the result is folded and canonicalized.  This is the
    engine of KLEE's ``--rewrite-equalities``: after ``lhs == const`` lands
    in a path condition, substituting ``lhs -> const`` through the rest of
    the constraint set shrinks it without changing its models.

    ``key_variables`` (the union of the mapping keys' variables) prunes
    subtrees that cannot contain any key; it is computed when not supplied,
    so callers that keep a mapping alive should cache it.  The walk is
    iterative, like :meth:`Expr.evaluate`, so deep dependent chains do not
    hit the recursion limit.
    """
    if not mapping:
        return expr
    if key_variables is None:
        key_variables = frozenset().union(
            *(key.variables() for key in mapping))
    memo: Dict[Expr, Expr] = {}
    stack: list = [expr]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        replacement = mapping.get(node)
        if replacement is not None:
            memo[node] = replacement
            stack.pop()
            continue
        if node.op is ExprOp.CONST or not (node.variables() & key_variables):
            memo[node] = node
            stack.pop()
            continue
        pending = [operand for operand in node.operands
                   if operand not in memo]
        if pending:
            stack.extend(pending)
            continue
        operands = tuple(memo[operand] for operand in node.operands)
        if operands == node.operands:
            result = node
        else:
            result = rebuild(node.op, node.width, operands)
            # The rebuilt node may itself be a mapped expression.
            result = mapping.get(result, result)
        memo[node] = result
        stack.pop()
    return memo[expr]


def concat_bytes(byte_exprs) -> Expr:
    """Combine little-endian byte expressions into one wide expression."""
    byte_list = list(byte_exprs)
    width = 8 * len(byte_list)
    result: Optional[Expr] = None
    for index, byte in enumerate(byte_list):
        extended = zext(byte, width)
        if index:
            extended = binary(ExprOp.SHL, extended, const(width, 8 * index))
        result = extended if result is None else binary(ExprOp.OR, result,
                                                        extended)
    return result if result is not None else const(8, 0)


def extract_byte(value: Expr, index: int) -> Expr:
    """Extract byte ``index`` (little-endian) of ``value`` as a width-8 expr."""
    if value.is_constant:
        return const(8, (value.value >> (8 * index)) & 0xFF)
    shifted = value if index == 0 else binary(
        ExprOp.LSHR, value, const(value.width, 8 * index))
    return trunc(shifted, 8)
