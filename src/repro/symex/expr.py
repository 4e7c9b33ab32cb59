"""Symbolic expressions over bitvectors.

Expressions are immutable, **hash-consed** DAG nodes: ``Expr.__new__`` interns
every node in a global weak table, so structurally-equal expressions are the
*same object*.  That makes equality and hashing identity-based (O(1)), lets
per-node analyses (``variables()``, :func:`unsigned_interval`, the evaluation
schedule) be memoized once per unique node, and turns state forking into pure
structure sharing.  The constructors in :mod:`repro.symex.simplify` perform
light canonicalization/constant folding; the solver consumes expressions
directly.

Widths follow the IR: 1, 8, 16, 32, 64 bit unsigned bitvectors with two's
complement signed interpretations where needed.
"""

from __future__ import annotations

import enum
import threading
import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple


class ExprOp(enum.Enum):
    """Operators of the expression language."""

    CONST = "const"
    VAR = "var"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    UDIV = "udiv"
    SDIV = "sdiv"
    UREM = "urem"
    SREM = "srem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    EQ = "eq"
    NE = "ne"
    ULT = "ult"
    ULE = "ule"
    SLT = "slt"
    SLE = "sle"
    ZEXT = "zext"
    SEXT = "sext"
    TRUNC = "trunc"
    ITE = "ite"
    NOT = "not"  # bitwise not


COMPARISON_OPS = {ExprOp.EQ, ExprOp.NE, ExprOp.ULT, ExprOp.ULE,
                  ExprOp.SLT, ExprOp.SLE}
COMMUTATIVE_OPS = {ExprOp.ADD, ExprOp.MUL, ExprOp.AND, ExprOp.OR, ExprOp.XOR,
                   ExprOp.EQ, ExprOp.NE}

# Classification flags as plain member attributes: ``op.is_comparison`` is
# an attribute read where ``op in COMPARISON_OPS`` pays an enum hash — the
# membership tests in the smart constructors and the interval transfer are
# among the hottest expressions in the interpreter loop.
for _member in ExprOp:
    _member.is_comparison = _member in COMPARISON_OPS
    _member.is_commutative = _member in COMMUTATIVE_OPS
del _member


def mask(width: int) -> int:
    return (1 << width) - 1


def to_signed(value: int, width: int) -> int:
    value &= mask(width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def truncdiv(a: int, b: int) -> int:
    """C-style signed division: truncate toward zero.

    Exact for any width — ``int(a / b)`` goes through a float and
    mis-rounds 64-bit quotients; ``a // b`` floors instead of truncating.
    """
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


class Expr:
    """An immutable, interned bitvector expression.

    Because every node goes through the intern table, ``a is b`` whenever
    ``a`` and ``b`` are structurally equal; ``==`` and ``hash`` are the
    (default) identity operations.  Per-node caches (``_vars``, ``_interval``,
    ``_schedule``) are therefore shared by every user of the node.

    Nodes are safe to share across threads (the verification service runs
    one exploration per job thread): they are immutable after
    construction, interning misses are serialized by ``_intern_lock``, and
    the lazy per-node memos are pure functions of the node, so a
    duplicated concurrent computation writes the same value.
    """

    __slots__ = ("op", "width", "operands", "value", "name",
                 "is_constant", "is_symbolic",
                 "_vars", "_interval", "_schedule", "__weakref__")

    #: The global intern table.  Keys hold strong references to the operand
    #: tuple, values are weak: a node (and its intern entry) dies as soon as
    #: no state, constraint, or parent node references it.
    _intern: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    #: Guards the miss path of the intern table.  Identity equality only
    #: holds if two threads can never intern the same key concurrently
    #: (the service's job threads share the table); the hit path is a
    #: plain read and stays lock-free — double-checked locking is sound
    #: here because a key is published only after the node is fully built.
    _intern_lock = threading.Lock()

    def __new__(cls, op: ExprOp, width: int,
                operands: Tuple["Expr", ...] = (),
                value: int = 0, name: str = "") -> "Expr":
        if op is ExprOp.CONST:
            value &= mask(width)
        key = (op, width, value, name, operands)
        self = cls._intern.get(key)
        if self is not None:
            return self
        with cls._intern_lock:
            self = cls._intern.get(key)
            if self is not None:
                return self
            self = super().__new__(cls)
            self.op = op
            self.width = width
            self.operands = operands
            self.value = value
            self.name = name
            # Materialized flags: reading an attribute beats a property
            # call in the constructors' constant-folding checks, which run
            # for every expression the interpreter builds.
            self.is_constant = op is ExprOp.CONST
            self.is_symbolic = op is not ExprOp.CONST
            self._vars: Optional[FrozenSet[str]] = None
            self._interval: Optional[Tuple[int, int]] = None
            self._schedule: Optional[List[tuple]] = None
            cls._intern[key] = self
        return self

    # ------------------------------------------------------------- identity
    # Hash-consing makes structural equality identity: inherit object's
    # identity-based __eq__/__hash__ on purpose.

    @classmethod
    def intern_table_size(cls) -> int:
        """Number of live unique expressions (diagnostics/tests)."""
        return len(cls._intern)

    # ----------------------------------------------------------- queries
    # (``is_constant`` / ``is_symbolic`` are materialized slots, see above.)
    @property
    def is_true(self) -> bool:
        return self.op is ExprOp.CONST and self.width == 1 and self.value == 1

    def variables(self) -> FrozenSet[str]:
        """Names of the symbolic variables the expression depends on.

        Iterative over the (persistent) per-node memo, so a cold deep
        dependent chain does not hit the recursion limit."""
        cached = self._vars
        if cached is not None:
            return cached
        stack: List["Expr"] = [self]
        while stack:
            node = stack[-1]
            if node._vars is not None:
                stack.pop()
                continue
            if node.op is ExprOp.VAR:
                node._vars = frozenset((node.name,))
                stack.pop()
                continue
            pending = [operand for operand in node.operands
                       if operand._vars is None]
            if pending:
                stack.extend(pending)
                continue
            names: set = set()
            for operand in node.operands:
                names |= operand._vars
            node._vars = frozenset(names)
            stack.pop()
        return self._vars

    def size(self) -> int:
        """Number of unique nodes in the expression DAG."""
        return len(self._evaluation_schedule())

    # ----------------------------------------------------------- evaluation
    def _evaluation_schedule(self) -> List[tuple]:
        """A topologically-ordered flattening of the DAG, built once per
        unique node: ``(op, width, operand_width, operand_indices, value,
        name)`` tuples with children before parents.  Shared subexpressions
        appear exactly once."""
        schedule = self._schedule
        if schedule is not None:
            return schedule
        index: Dict[int, int] = {}
        schedule = []
        stack: List[Tuple["Expr", bool]] = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in index:
                continue
            if ready or not node.operands:
                index[id(node)] = len(schedule)
                operand_width = node.operands[0].width if node.operands \
                    else node.width
                schedule.append((node.op, node.width, operand_width,
                                 tuple(index[id(o)] for o in node.operands),
                                 node.value, node.name))
            else:
                stack.append((node, True))
                for operand in node.operands:
                    stack.append((operand, False))
        self._schedule = schedule
        return schedule

    def evaluate(self, assignment: Dict[str, int]) -> int:
        """Evaluate under a concrete assignment of every variable.

        Iterative (no recursion) over the memoized DAG schedule, so deeply
        nested expressions evaluate without hitting the recursion limit and
        shared subexpressions are computed once.
        """
        schedule = self._schedule or self._evaluation_schedule()
        values: List[int] = [0] * len(schedule)
        # Bind the hot names locally: this loop runs once per tried
        # assignment in the solver's CSP search.
        op_const, op_var, op_ite = ExprOp.CONST, ExprOp.VAR, ExprOp.ITE
        op_zext, op_trunc, op_sext = ExprOp.ZEXT, ExprOp.TRUNC, ExprOp.SEXT
        op_not, op_add, op_sub = ExprOp.NOT, ExprOp.ADD, ExprOp.SUB
        op_mul, op_and, op_or = ExprOp.MUL, ExprOp.AND, ExprOp.OR
        op_xor, op_shl, op_lshr = ExprOp.XOR, ExprOp.SHL, ExprOp.LSHR
        op_ashr, op_udiv, op_urem = ExprOp.ASHR, ExprOp.UDIV, ExprOp.UREM
        op_sdiv, op_srem = ExprOp.SDIV, ExprOp.SREM
        op_eq, op_ne = ExprOp.EQ, ExprOp.NE
        op_ult, op_ule = ExprOp.ULT, ExprOp.ULE
        op_slt, op_sle = ExprOp.SLT, ExprOp.SLE
        signed = to_signed
        for i, (op, width, opw, idxs, const_value, name) in enumerate(schedule):
            if op is op_const:
                values[i] = const_value
                continue
            if op is op_var:
                try:
                    values[i] = assignment[name] & ((1 << width) - 1)
                except KeyError as exc:
                    raise KeyError(
                        f"no value for symbolic variable {name}") from exc
                continue
            if op is op_ite:
                values[i] = values[idxs[1]] if values[idxs[0]] \
                    else values[idxs[2]]
                continue
            if op is op_zext or op is op_trunc:
                values[i] = values[idxs[0]] & ((1 << width) - 1)
                continue
            if op is op_sext:
                values[i] = signed(values[idxs[0]], opw) & ((1 << width) - 1)
                continue
            if op is op_not:
                values[i] = (~values[idxs[0]]) & ((1 << width) - 1)
                continue
            lhs = values[idxs[0]]
            rhs = values[idxs[1]]
            if op is op_eq:
                values[i] = 1 if lhs == rhs else 0
            elif op is op_ne:
                values[i] = 1 if lhs != rhs else 0
            elif op is op_ult:
                values[i] = 1 if lhs < rhs else 0
            elif op is op_ule:
                values[i] = 1 if lhs <= rhs else 0
            elif op is op_slt:
                values[i] = 1 if signed(lhs, opw) < signed(rhs, opw) else 0
            elif op is op_sle:
                values[i] = 1 if signed(lhs, opw) <= signed(rhs, opw) else 0
            elif op is op_add:
                values[i] = (lhs + rhs) & ((1 << width) - 1)
            elif op is op_sub:
                values[i] = (lhs - rhs) & ((1 << width) - 1)
            elif op is op_mul:
                values[i] = (lhs * rhs) & ((1 << width) - 1)
            elif op is op_and:
                values[i] = lhs & rhs
            elif op is op_or:
                values[i] = lhs | rhs
            elif op is op_xor:
                values[i] = lhs ^ rhs
            elif op is op_shl:
                values[i] = (lhs << (rhs % width)) & ((1 << width) - 1)
            elif op is op_lshr:
                values[i] = lhs >> (rhs % width)
            elif op is op_ashr:
                values[i] = (signed(lhs, opw) >> (rhs % width)) & \
                    ((1 << width) - 1)
            elif op is op_udiv:
                values[i] = (lhs // rhs) & ((1 << width) - 1) if rhs else 0
            elif op is op_urem:
                values[i] = (lhs % rhs) & ((1 << width) - 1) if rhs else lhs
            elif op is op_sdiv:
                if rhs == 0:
                    values[i] = 0
                else:
                    values[i] = truncdiv(signed(lhs, opw),
                                         signed(rhs, opw)) & ((1 << width) - 1)
            elif op is op_srem:
                if rhs == 0:
                    values[i] = lhs
                else:
                    slhs, srhs = signed(lhs, opw), signed(rhs, opw)
                    values[i] = (slhs - truncdiv(slhs, srhs) * srhs) & \
                        ((1 << width) - 1)
            else:
                raise ValueError(f"cannot evaluate {op}")
        return values[-1]

    # ----------------------------------------------------------- rendering
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Expr {self.render()}>"

    def render(self) -> str:
        """Human-readable rendering (prefix form)."""
        if self.op is ExprOp.CONST:
            return f"{self.value}:{self.width}"
        if self.op is ExprOp.VAR:
            return f"{self.name}:{self.width}"
        inner = " ".join(op.render() for op in self.operands)
        return f"({self.op.value}.{self.width} {inner})"


# --------------------------------------------------------------------------
# Interval analysis over expressions (used by the solver's fast path and by
# the branch-and-prune search, which re-runs it under per-variable bounds).
# --------------------------------------------------------------------------
def unsigned_interval(expr: Expr) -> Tuple[int, int]:
    """A conservative [low, high] unsigned interval for ``expr`` assuming all
    variables are unconstrained.

    Memoized per interned node: thanks to hash-consing the interval of a
    subexpression is computed once per process, not once per solver query.
    Iterative over the persistent memo, so a cold deep dependent chain
    does not hit the recursion limit.
    """
    cached = expr._interval
    if cached is not None:
        return cached
    stack: List[Expr] = [expr]
    while stack:
        node = stack[-1]
        if node._interval is not None:
            stack.pop()
            continue
        pending = [operand for operand in node.operands
                   if operand._interval is None]
        if pending:
            stack.extend(pending)
            continue
        node._interval = _interval_transfer(node, _memoized_interval)
        stack.pop()
    return expr._interval


def _memoized_interval(node: Expr) -> Tuple[int, int]:
    """Child accessor for :func:`unsigned_interval`'s bottom-up walk (every
    operand's interval is already in the per-node memo)."""
    return node._interval


def bounded_interval(expr: Expr,
                     bounds: Dict[str, Tuple[int, int]]) -> Tuple[int, int]:
    """A conservative [low, high] unsigned interval for ``expr`` given
    per-variable bounds (the branch-and-prune search's box).

    Variables missing from ``bounds`` fall back to their full range.  Not
    memoized on the node (the answer depends on the box); shared
    subexpressions are still computed once per call via a local memo.  The
    walk is iterative, like :meth:`Expr.evaluate`, so deep dependent
    chains do not hit the recursion limit.
    """
    memo: Dict[Expr, Tuple[int, int]] = {}
    stack: List[Expr] = [expr]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        if node.op is ExprOp.VAR:
            memo[node] = bounds.get(node.name) or (0, mask(node.width))
            stack.pop()
            continue
        pending = [operand for operand in node.operands
                   if operand not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[node] = _interval_transfer(node, memo.__getitem__)
        stack.pop()
    return memo[expr]


def _signed_bounds(low: int, high: int, width: int
                   ) -> Optional[Tuple[int, int]]:
    """The signed range of an unsigned interval, or None when the interval
    crosses the sign boundary (so its signed image is not an interval)."""
    half = 1 << (width - 1)
    if high < half:
        return (low, high)
    if low >= half:
        return (low - (1 << width), high - (1 << width))
    return None


def _interval_transfer(expr: Expr, child) -> Tuple[int, int]:
    """One transfer step: the interval of ``expr`` from its operands'
    intervals, obtained via ``child(operand)``."""
    op = expr.op
    full = (0, mask(expr.width))
    if op is ExprOp.CONST:
        return (expr.value, expr.value)
    if op is ExprOp.VAR:
        return full
    if op is ExprOp.ZEXT:
        return child(expr.operands[0])
    if op is ExprOp.ITE:
        cond_low, cond_high = child(expr.operands[0])
        if cond_low >= 1:
            return child(expr.operands[1])
        if cond_high == 0:
            return child(expr.operands[2])
        low1, high1 = child(expr.operands[1])
        low2, high2 = child(expr.operands[2])
        return (min(low1, low2), max(high1, high2))
    if op.is_comparison:
        # The comparison's own value is a boolean; try to decide it from the
        # operand intervals.
        lhs_low, lhs_high = child(expr.operands[0])
        rhs_low, rhs_high = child(expr.operands[1])
        if op is ExprOp.ULT:
            if lhs_high < rhs_low:
                return (1, 1)
            if lhs_low >= rhs_high:
                return (0, 0)
        elif op is ExprOp.ULE:
            if lhs_high <= rhs_low:
                return (1, 1)
            if lhs_low > rhs_high:
                return (0, 0)
        elif op is ExprOp.EQ:
            if lhs_low == lhs_high == rhs_low == rhs_high:
                return (1, 1)
            if lhs_high < rhs_low or rhs_high < lhs_low:
                return (0, 0)
        elif op is ExprOp.NE:
            if lhs_high < rhs_low or rhs_high < lhs_low:
                return (1, 1)
            if lhs_low == lhs_high == rhs_low == rhs_high:
                return (0, 0)
        elif op in (ExprOp.SLT, ExprOp.SLE):
            # Decidable when neither operand interval crosses the sign
            # boundary: the unsigned->signed map is then monotone.
            operand_width = expr.operands[0].width
            lhs_signed = _signed_bounds(lhs_low, lhs_high, operand_width)
            rhs_signed = _signed_bounds(rhs_low, rhs_high, operand_width)
            if lhs_signed is not None and rhs_signed is not None:
                if op is ExprOp.SLT:
                    if lhs_signed[1] < rhs_signed[0]:
                        return (1, 1)
                    if lhs_signed[0] >= rhs_signed[1]:
                        return (0, 0)
                else:
                    if lhs_signed[1] <= rhs_signed[0]:
                        return (1, 1)
                    if lhs_signed[0] > rhs_signed[1]:
                        return (0, 0)
        return (0, 1)
    if op is ExprOp.AND:
        low1, high1 = child(expr.operands[0])
        low2, high2 = child(expr.operands[1])
        return (0, min(high1, high2))
    if op is ExprOp.OR:
        low1, high1 = child(expr.operands[0])
        low2, high2 = child(expr.operands[1])
        bits = max(high1.bit_length(), high2.bit_length())
        return (max(low1, low2), min(mask(expr.width),
                                     (1 << bits) - 1 if bits else 0))
    if op is ExprOp.XOR:
        low1, high1 = child(expr.operands[0])
        low2, high2 = child(expr.operands[1])
        if expr.width == 1 and low2 == high2:
            # Boolean negation (xor 1) / identity (xor 0) stays decided.
            if low2 == 1:
                return (1 - high1, 1 - low1)
            return (low1, high1)
        bits = max(high1.bit_length(), high2.bit_length())
        return (0, min(mask(expr.width), (1 << bits) - 1 if bits else 0))
    if op is ExprOp.ADD:
        low1, high1 = child(expr.operands[0])
        low2, high2 = child(expr.operands[1])
        if high1 + high2 <= mask(expr.width):
            return (low1 + low2, high1 + high2)
        return full
    if op is ExprOp.SUB:
        low1, high1 = child(expr.operands[0])
        low2, high2 = child(expr.operands[1])
        # Sound only when no value pair can wrap below zero.
        if low1 >= high2:
            return (low1 - high2, high1 - low2)
        return full
    if op is ExprOp.MUL:
        low1, high1 = child(expr.operands[0])
        low2, high2 = child(expr.operands[1])
        if high1 * high2 <= mask(expr.width):
            return (low1 * low2, high1 * high2)
        return full
    if op is ExprOp.SHL:
        low1, high1 = child(expr.operands[0])
        low2, high2 = child(expr.operands[1])
        # The shift amount is taken modulo the width; only predictable when
        # the whole rhs interval stays below it and nothing can overflow.
        if high2 < expr.width and (high1 << high2) <= mask(expr.width):
            return (low1 << low2, high1 << high2)
        return full
    if op is ExprOp.LSHR:
        low1, high1 = child(expr.operands[0])
        return (0, high1)
    if op is ExprOp.TRUNC:
        low1, high1 = child(expr.operands[0])
        if high1 <= mask(expr.width):
            return (low1, high1)
        return full
    if op is ExprOp.SEXT:
        inner = expr.operands[0]
        low1, high1 = child(inner)
        half = 1 << (inner.width - 1)
        if high1 < half:
            # Never negative: sign extension is zero extension.
            return (low1, high1)
        if low1 >= half:
            # Always negative: every value gains the same high bits.
            delta = mask(expr.width) - mask(inner.width)
            return (low1 + delta, high1 + delta)
        return full
    return full
