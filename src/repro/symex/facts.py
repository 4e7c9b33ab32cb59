"""Select resolution against a path's unary facts.

If-conversion leaves ite chains whose conditions compare one input byte
each, and a path condition usually carries a unary fact
(``ne(in_2, 47)``, ...) that decides each of them.  Resolving those ITE
nodes folds an expression to the branch the path actually takes.  Each
condition is checked against the facts over its own variables only, and
UNSAT against a *subset* of the path constraints is UNSAT against all of
them, so every resolution here is sound.

The relcheck product driver (:mod:`repro.relcheck.product`) simplifies
path conditions and return-value disequalities this way before it asks
the solver, and counts the resolutions (``selects_resolved``).  The
engine itself does not use this module: the solver's literal propagation
and value classes decide such queries exactly inside one search.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .expr import Expr, ExprOp
from .simplify import not_expr, rebuild
from .solver import Solver

__all__ = ["unary_facts", "resolve_selects"]


def unary_facts(constraints: Iterable[Expr]) -> Dict[str, Tuple[Expr, ...]]:
    """The single-variable constraints among ``constraints``, grouped per
    variable — the always-exactly-decidable slice of a path condition."""
    facts: Dict[str, List[Expr]] = {}
    for constraint in constraints:
        names = constraint.variables()
        if len(names) == 1:
            (name,) = tuple(names)
            facts.setdefault(name, []).append(constraint)
    return {name: tuple(items) for name, items in facts.items()}


def _refuted(condition: Expr, facts: Dict[str, Tuple[Expr, ...]],
             solver: Solver) -> bool:
    """True when ``condition`` conjoined with the facts over its own
    variables is *exactly* unsatisfiable."""
    groups = [facts[name] for name in sorted(condition.variables())
              if name in facts]
    if not groups:
        return False
    result = solver.check_partition((), groups, (condition,))
    return not result.satisfiable and result.exact


def resolve_selects(expr: Expr, facts: Dict[str, Tuple[Expr, ...]],
                    solver: Solver, cache: Dict[Expr, Expr],
                    on_resolve: Optional[Callable[[], None]] = None) -> Expr:
    """Simplify ``expr`` under a path condition by resolving ITE nodes
    whose condition the path's unary facts decide.

    Each resolution costs at most two tiny per-variable queries (cached,
    shared across paths).  Pruning only happens on an *exact* UNSAT
    answer, so the result is equivalent to ``expr`` on every model of
    the path condition the facts were drawn from."""
    cached = cache.get(expr)
    if cached is not None:
        return cached
    if expr.op is ExprOp.CONST or expr.op is ExprOp.VAR:
        cache[expr] = expr
        return expr
    operands = tuple(resolve_selects(operand, facts, solver, cache,
                                     on_resolve)
                     for operand in expr.operands)
    result: Optional[Expr] = None
    if expr.op is ExprOp.ITE:
        condition, then, otherwise = operands
        if condition.is_constant:
            result = then if condition.value else otherwise
        elif _refuted(condition, facts, solver):
            result = otherwise
        elif _refuted(not_expr(condition), facts, solver):
            result = then
        if result is not None and not condition.is_constant \
                and on_resolve is not None:
            on_resolve()
    if result is None:
        result = expr if operands == expr.operands \
            else rebuild(expr.op, expr.width, operands)
    cache[expr] = result
    return result
