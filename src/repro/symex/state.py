"""Execution states of the symbolic executor.

The path condition of a state is kept in two synchronized forms: the flat
``constraints`` list (append order, used for reporting and full-model
queries) and a partition into **variable-disjoint constraint groups**,
maintained incrementally by :meth:`ExecutionState.add_constraint`.  A branch
query only needs the groups that share variables with the branch condition
(:meth:`relevant_constraints`), which keeps solver queries proportional to
the coupled part of the path condition instead of its whole length.

When ``rewrite_equalities`` is on (KLEE's ``--rewrite-equalities``,
:class:`~repro.symex.solver.SolverConfig` flag), :meth:`add_constraint`
additionally **rewrites the path condition against equalities**: a new
``lhs == const`` constraint (``lhs`` any expression — hash-consing makes
subtree occurrence checks O(1)) or ``var == var`` constraint is
substituted through the other constraints of its group, and every later
constraint is substituted against all recorded equalities on arrival.  The
equality itself is kept, so the rewritten state is *equivalent* — same
models — while its groups shrink, more branch queries fold to constants,
and the solver's cache keys get smaller and more reusable.  Both forms of
the path condition (flat list and groups) are rewritten in lockstep,
preserving the partition invariant.

Forking is copy-on-write throughout: stack frames share their SSA binding
dicts until one side writes, the symbolic memory shares its byte dict the
same way, and the constraint groups are immutable tuples shared by
reference.

The COW invariant is that a shared structure (a binding dict, the
memory's byte dict, a constraint-group tuple) is *never mutated in place*
once it is marked shared: each side copies before its first write, so a
fork and its parent never see each other's later writes.  One exploration
runs on one thread; the verification service runs several jobs' explorations
on its job threads at once, and the only state-level structure they share is
the state-id counter, an atomic ``itertools.count``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..interp.errors import ProgramError
from ..ir import Argument, BasicBlock, Function, Instruction, Value
from .expr import Expr, ExprOp
from .memory import SymbolicMemory
from .simplify import substitute


class StateStatus(enum.Enum):
    """Lifecycle of an execution state."""

    RUNNING = "running"
    COMPLETED = "completed"     # returned from the entry function
    ERROR = "error"             # a bug was detected on this path
    TERMINATED = "terminated"   # killed by a resource limit
    ENGINE_ERROR = "engine-error"  # the engine (not the program) failed


@dataclass
class StackFrame:
    """One activation record in a state's call stack.

    ``values`` is copy-on-write: :meth:`fork` shares the dict between the
    two frames and the first ``bind``/``bind_many`` on either side makes a
    private copy.  All writes must go through those methods.
    """

    function: Function
    #: SSA value bindings: id(Value) -> expression.
    values: Dict[int, Expr] = field(default_factory=dict)
    block: Optional[BasicBlock] = None
    previous_block: Optional[BasicBlock] = None
    #: Index of the next instruction to execute within ``block``.
    index: int = 0
    #: The call instruction to bind the return value to in the caller.
    call_site: Optional[Instruction] = None
    #: True while ``values`` is shared with a forked sibling.
    values_shared: bool = field(default=False, repr=False, compare=False)

    def fork(self) -> "StackFrame":
        clone = StackFrame(self.function, self.values, self.block,
                           self.previous_block, self.index, self.call_site)
        clone.values_shared = True
        self.values_shared = True
        return clone

    def _own_values(self) -> None:
        if self.values_shared:
            self.values = dict(self.values)
            self.values_shared = False

    def bind(self, key: int, expr: Expr) -> None:
        self._own_values()
        self.values[key] = expr

    def bind_many(self, items: Dict[int, Expr]) -> None:
        self._own_values()
        self.values.update(items)


class ExecutionState:
    """A single path being explored: call stack + memory + path constraints."""

    #: Id allocator.  ``next()`` on an ``itertools.count`` is atomic in
    #: CPython, so explorations forking on several threads at once (the
    #: service's jobs) never mint duplicate ids (the *values* depend on
    #: scheduling; nothing may key deterministic output on them).
    _next_id = itertools.count(1)

    def __init__(self, memory: Optional[SymbolicMemory] = None,
                 rewrite_equalities: bool = True,
                 solver_stats: Optional[object] = None) -> None:
        self.state_id = next(ExecutionState._next_id)
        self.stack: List[StackFrame] = []
        self.memory = memory or SymbolicMemory()
        self.constraints: List[Expr] = []
        #: Variable-disjoint partition of ``constraints``: representative
        #: variable -> (variables of the group, constraints of the group).
        #: Values are immutable tuples so forks share them by reference.
        self._groups: Dict[str, Tuple[FrozenSet[str], Tuple[Expr, ...]]] = {}
        #: Variable name -> representative (key into ``_groups``).
        self._var_group: Dict[str, str] = {}
        #: Variable-free constraints (a literal false, or a constraint that
        #: equality rewriting folded to one).
        self._varfree: Tuple[Expr, ...] = ()
        #: KLEE's --rewrite-equalities (see the module docstring).
        self.rewrite_equalities = rewrite_equalities
        #: Substitution recorded from ``lhs == const`` / ``var == var``
        #: path constraints: interned expression -> replacement.  Kept
        #: canonical (values never contain a mapped expression).
        self._rewrites: Dict[Expr, Expr] = {}
        #: Union of the variables of the mapping's keys (the quick
        #: can-this-expression-be-affected check for ``substitute``).
        self._rewrite_vars: FrozenSet[str] = frozenset()
        #: Rewrites applied on this path (cumulative across forks).
        self.rewrites_applied = 0
        #: Shared :class:`~repro.symex.solver.SolverStats` to aggregate
        #: ``equality_rewrites`` into (attached by the executor).
        self._solver_stats = solver_stats
        self.status = StateStatus.RUNNING
        self.error: Optional[ProgramError] = None
        self.return_value: Optional[Expr] = None
        #: Instructions this state has executed (for depth heuristics).
        self.instructions_executed = 0
        self.forks = 0
        self.depth = 0  # number of branch decisions taken

    # ------------------------------------------------------------- frames
    @property
    def frame(self) -> StackFrame:
        return self.stack[-1]

    def push_frame(self, frame: StackFrame) -> None:
        self.stack.append(frame)

    def pop_frame(self) -> StackFrame:
        return self.stack.pop()

    # ------------------------------------------------------------- values
    def bind(self, value: Value, expr: Expr) -> None:
        self.frame.bind(id(value), expr)

    def lookup(self, value: Value) -> Expr:
        return self.frame.values[id(value)]

    # ------------------------------------------------------------- forking
    def fork(self) -> "ExecutionState":
        """Create an identical copy of this state (new id).

        Copy-on-write: frames and memory share structure with the clone
        until either side writes.
        """
        clone = ExecutionState(self.memory.fork(), self.rewrite_equalities,
                               self._solver_stats)
        clone.stack = [frame.fork() for frame in self.stack]
        clone.constraints = list(self.constraints)
        clone._groups = dict(self._groups)
        clone._var_group = dict(self._var_group)
        clone._varfree = self._varfree
        clone._rewrites = dict(self._rewrites)
        clone._rewrite_vars = self._rewrite_vars
        clone.rewrites_applied = self.rewrites_applied
        clone.status = self.status
        clone.instructions_executed = self.instructions_executed
        clone.depth = self.depth
        self.forks += 1
        return clone

    def add_constraint(self, constraint: Expr) -> None:
        if self.rewrite_equalities and self._rewrites and \
                (constraint.variables() & self._rewrite_vars):
            rewritten = substitute(constraint, self._rewrites,
                                   self._rewrite_vars)
            if rewritten is not constraint:
                self._count_rewrites(1)
                constraint = rewritten
        if constraint.is_true:
            return
        self.constraints.append(constraint)
        names = constraint.variables()
        if not names:
            self._varfree = self._varfree + (constraint,)
            return
        # Merge every group that shares a variable with the new constraint.
        keys = {self._var_group[name] for name in names
                if name in self._var_group}
        merged_vars = set(names)
        merged_constraints: List[Expr] = []
        for key in sorted(keys):
            group_vars, group_constraints = self._groups.pop(key)
            merged_vars |= group_vars
            merged_constraints.extend(group_constraints)
        merged_constraints.append(constraint)
        if self.rewrite_equalities:
            merged_constraints = self._rewrite_group(constraint,
                                                     merged_constraints)
        representative = min(merged_vars)
        self._groups[representative] = (frozenset(merged_vars),
                                        tuple(merged_constraints))
        for name in merged_vars:
            self._var_group[name] = representative

    # ------------------------------------------------------ equality rewrite
    @staticmethod
    def _equality_substitution(constraint: Expr
                               ) -> Optional[Tuple[Expr, Expr]]:
        """The substitution an equality induces: (expression to replace,
        replacement), or None.

        ``lhs == const`` replaces the whole left-hand expression by the
        constant (thanks to hash-consing the occurrence check costs one
        dict lookup whatever the shape of ``lhs``); ``var == var``
        replaces the lexicographically larger variable by the smaller,
        matching the group-representative convention."""
        if constraint.op is not ExprOp.EQ:
            return None
        lhs, rhs = constraint.operands
        if rhs.op is ExprOp.CONST and lhs.op is not ExprOp.CONST:
            return (lhs, rhs)
        if lhs.op is ExprOp.CONST and rhs.op is not ExprOp.CONST:
            return (rhs, lhs)
        if lhs.op is ExprOp.VAR and rhs.op is ExprOp.VAR and \
                lhs.name != rhs.name:
            if lhs.name < rhs.name:
                return (rhs, lhs)
            return (lhs, rhs)
        return None

    def _rewrite_group(self, constraint: Expr,
                       merged: List[Expr]) -> List[Expr]:
        """If the just-added ``constraint`` is an equality, substitute it
        through the other constraints of its (merged) group and record it
        for future additions.  The flat ``constraints`` list is rewritten in
        lockstep, so both forms of the path condition stay equivalent and
        the partition invariant is preserved.  The equality itself is kept,
        making the rewritten state equivalent to (not merely equisatisfiable
        with) the unrewritten one."""
        entry = self._equality_substitution(constraint)
        if entry is None:
            return merged
        key, replacement = entry
        mapping = {key: replacement}
        key_vars = key.variables()
        # Keep the recorded substitution canonical: values never contain a
        # mapped expression, so one substitution pass is always enough.
        # (The incoming constraint was itself already rewritten, so its
        # left-hand side cannot contain a previously mapped expression.)
        self._rewrites = {old_key: substitute(value, mapping, key_vars)
                          for old_key, value in self._rewrites.items()}
        self._rewrites[key] = replacement
        self._rewrite_vars = self._rewrite_vars | key_vars
        rewritten_group: List[Expr] = []
        #: id(old constraint) -> replacement (None: dropped as trivial).
        replaced: Dict[int, Optional[Expr]] = {}
        changed = 0
        for member in merged:
            if member is constraint:
                rewritten_group.append(member)
                continue
            rewritten = substitute(member, mapping, key_vars)
            if rewritten is member:
                rewritten_group.append(member)
                continue
            changed += 1
            if rewritten.is_true:
                replaced[id(member)] = None
            elif not rewritten.variables():
                # Folded to a variable-free constant (a literal false):
                # route it to ``_varfree`` like an arriving one, so the
                # contradiction is visible to queries on any variable.
                replaced[id(member)] = rewritten
                self._varfree = self._varfree + (rewritten,)
            else:
                replaced[id(member)] = rewritten
                rewritten_group.append(rewritten)
        if changed:
            self._count_rewrites(changed)
            self.constraints = [
                new for new in
                (replaced.get(id(old), old) for old in self.constraints)
                if new is not None
            ]
        return rewritten_group

    def rewrite(self, expr: Expr) -> Expr:
        """``expr`` with the state's recorded equalities substituted in
        (the identity when rewriting is off or nothing overlaps).  The
        executor runs branch conditions, switch scrutinees, divisors and
        addresses through this before querying the solver, so queries the
        path condition already decides fold to constants and never reach
        it."""
        if not (self.rewrite_equalities and self._rewrites) or \
                not (expr.variables() & self._rewrite_vars):
            return expr
        return substitute(expr, self._rewrites, self._rewrite_vars)

    def _count_rewrites(self, count: int) -> None:
        self.rewrites_applied += count
        stats = self._solver_stats
        if stats is not None:
            stats.equality_rewrites += count

    def relevant_constraints(self, expr: Expr) -> List[Expr]:
        """The subset of the path condition that can influence ``expr``:
        every group sharing a variable with it, plus variable-free
        constraints.  Groups disjoint from ``expr`` cannot change the
        satisfiability of a query about it (given the state invariant that
        the path condition is satisfiable)."""
        keys = {self._var_group[name] for name in expr.variables()
                if name in self._var_group}
        relevant: List[Expr] = list(self._varfree)
        for key in sorted(keys):
            relevant.extend(self._groups[key][1])
        return relevant

    def relevant_partition(self, expr: Expr
                           ) -> Tuple[Tuple[Expr, ...],
                                      List[Tuple[Expr, ...]]]:
        """Like :meth:`relevant_constraints`, but preserving the partition:
        ``(variable-free constraints, [group, ...])``.  Feeding the solver
        the partition the state already maintains lets it skip re-deriving
        the independent groups with a union-find on every query
        (:meth:`repro.symex.solver.Solver.check_branch_partition`)."""
        keys = {self._var_group[name] for name in expr.variables()
                if name in self._var_group}
        return self._varfree, [self._groups[key][1] for key in sorted(keys)]

    def full_partition(self) -> Tuple[Tuple[Expr, ...],
                                      List[Tuple[Expr, ...]]]:
        """The whole path condition as ``(variable-free constraints,
        [group, ...])`` — the input shape of
        :meth:`repro.symex.solver.Solver.model_for_partition`."""
        return self._varfree, [group for _, group in self._groups.values()]

    def constraint_groups(self) -> List[Tuple[Expr, ...]]:
        """The current partition (for tests/diagnostics)."""
        groups = [group for _, group in self._groups.values()]
        if self._varfree:
            groups.append(self._varfree)
        return groups

    # ------------------------------------------------------------- control
    def jump_to(self, block: BasicBlock) -> None:
        frame = self.frame
        frame.previous_block = frame.block
        frame.block = block
        frame.index = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = ""
        if self.stack and self.frame.block is not None:
            where = f" @{self.frame.function.name}:{self.frame.block.name}"
        return (f"<State {self.state_id} {self.status.value}{where} "
                f"constraints={len(self.constraints)}>")
