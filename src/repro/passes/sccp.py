"""Sparse conditional constant propagation (Wegman–Zadeck SCCP).

``constprop`` + ``simplifycfg`` fold constants and then delete dead arms,
but each can only consume what the other already produced: a φ-node fed a
constant along every *reachable* edge folds only after the dead edges are
gone, and the dead edges go away only after the φ folds.  SCCP solves both
problems simultaneously by running one optimistic fixpoint over two
worklists — CFG edges and SSA values — in which

* every value starts at ⊤ ("no evidence yet"), is lowered to a constant
  when one is proven, and falls to ⊥ ("overdefined") only when two
  executable paths disagree;
* φ-nodes meet their incoming values **over executable edges only**, so a
  constant arriving from live predecessors is not polluted by dead ones;
* a branch whose condition is proven constant marks only the taken edge
  executable, which in turn keeps the untaken arm's values at ⊤.

After the fixpoint, proven-constant values are materialized, branches with
exactly one executable out-edge are rewritten to unconditional branches
(**deleting the untaken CFG edge**), and never-executable blocks are
removed.  For a path-counting verifier every deleted edge is a halved
subtree of the exploration, which is why the paper lists this family of
transforms as unambiguously beneficial for verification.

The lattice is exposed as :class:`LatticeCell` / :func:`meet` for the
property tests in ``tests/test_new_passes.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis import AnalysisManager, remove_unreachable_blocks
from ..ir import (
    BasicBlock, BinaryInst, BranchInst, CastInst, ConstantInt, Function,
    ICmpInst, Instruction, IntType, IRBuilder, Opcode, PhiInst, SelectInst,
    SwitchInst, UndefValue, Value, eval_binary, eval_icmp,
)
from .pass_manager import Pass

# ------------------------------------------------------------------ lattice

#: Lattice heights, ordered ⊤ > const > ⊥.
TOP = "top"
CONST = "const"
BOTTOM = "bottom"


@dataclass(frozen=True)
class LatticeCell:
    """One value's position in the SCCP lattice."""

    state: str
    constant: Optional[int] = None  # meaningful only when state == CONST

    @property
    def is_top(self) -> bool:
        return self.state == TOP

    @property
    def is_constant(self) -> bool:
        return self.state == CONST

    @property
    def is_bottom(self) -> bool:
        return self.state == BOTTOM

    #: Height used by the monotonicity property tests: meets only descend.
    @property
    def height(self) -> int:
        return {TOP: 2, CONST: 1, BOTTOM: 0}[self.state]


TOP_CELL = LatticeCell(TOP)
BOTTOM_CELL = LatticeCell(BOTTOM)


def const_cell(value: int) -> LatticeCell:
    return LatticeCell(CONST, value)


def meet(a: LatticeCell, b: LatticeCell) -> LatticeCell:
    """Greatest lower bound: ⊤ ∧ x = x; equal constants stay; disagreeing
    constants (and anything with ⊥) fall to ⊥."""
    if a.is_top:
        return b
    if b.is_top:
        return a
    if a.is_bottom or b.is_bottom:
        return BOTTOM_CELL
    if a.constant == b.constant:
        return a
    return BOTTOM_CELL


# --------------------------------------------------------------------- pass

class SparseConditionalConstantPropagation(Pass):
    """Optimistic constant propagation with CFG-edge pruning."""

    name = "sccp"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration or not function.blocks:
            return False
        solver = _SCCPSolver(function)
        solver.solve()
        changed = self._apply(function, solver)
        if not changed:
            return False
        return True

    # --------------------------------------------------------- IR rewriting
    def _apply(self, function: Function, solver: "_SCCPSolver") -> bool:
        changed = False
        # 1. Materialize proven constants (executable blocks only; the
        #    never-executed ones are deleted wholesale below).
        for block in function.blocks:
            if not solver.block_executable(block):
                continue
            for inst in list(block.instructions):
                if inst.is_terminator or isinstance(inst, ConstantInt):
                    continue
                cell = solver.value_of(inst)
                if not cell.is_constant or inst.num_uses == 0:
                    continue
                if not isinstance(inst.type, IntType):
                    continue
                inst.replace_all_uses_with(
                    ConstantInt(inst.type, cell.constant))
                inst.erase_from_parent()
                self.stats.instructions_folded += 1
                changed = True

        # 2. Delete proven-untaken edges: rewrite any terminator that has a
        #    non-executable out-edge into an unconditional branch to its
        #    single executable successor.
        for block in list(function.blocks):
            if not solver.block_executable(block):
                continue
            term = block.terminator
            if not isinstance(term, (BranchInst, SwitchInst)):
                continue
            successors = term.successors()
            if len(successors) <= 1:
                continue
            live = [succ for succ in successors
                    if solver.edge_executable(block, succ)]
            live_ids = {id(succ) for succ in live}
            if len(live_ids) != 1:
                continue
            target = live[0]
            dead = [succ for succ in successors if id(succ) != id(target)]
            term.erase_from_parent()
            builder = IRBuilder()
            builder.set_insert_point(block)
            builder.br(target)
            seen: Set[int] = set()
            for succ in dead:
                if id(succ) in seen:
                    continue
                seen.add(id(succ))
                succ.remove_predecessor(block)
                self.stats.branch_edges_deleted += 1
            changed = True

        # 3. Drop the blocks the solver proved never execute (their in-edges
        #    were deleted above, so they are now unreachable).
        removed = remove_unreachable_blocks(function)
        if removed:
            self.stats.blocks_removed += removed
            changed = True
        return changed


class _SCCPSolver:
    """The two-worklist fixpoint over one function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        #: id(value) -> lattice cell (values not present are ⊤).
        self._cells: Dict[int, LatticeCell] = {}
        #: Executable CFG edges as (id(pred), id(succ)).
        self._edges: Set[Tuple[int, int]] = set()
        #: Blocks with at least one executable in-edge (plus the entry).
        self._executable: Set[int] = set()
        self._edge_worklist: List[Tuple[BasicBlock, BasicBlock]] = []
        self._ssa_worklist: List[Instruction] = []

    # ------------------------------------------------------------- queries
    def block_executable(self, block: BasicBlock) -> bool:
        return id(block) in self._executable

    def edge_executable(self, pred: BasicBlock, succ: BasicBlock) -> bool:
        return (id(pred), id(succ)) in self._edges

    def value_of(self, value: Value) -> LatticeCell:
        if isinstance(value, ConstantInt):
            return const_cell(value.value)
        if isinstance(value, UndefValue):
            # Undef could be folded to any constant; ⊥ is the safe choice
            # (both engines read uninitialized slots deterministically, so
            # we must not invent a value they would disagree with).
            return BOTTOM_CELL
        if isinstance(value, Instruction):
            return self._cells.get(id(value), TOP_CELL)
        # Arguments, globals, functions: runtime values.
        return BOTTOM_CELL

    # -------------------------------------------------------------- solving
    def solve(self) -> None:
        entry = self.function.entry_block
        self._executable.add(id(entry))
        self._visit_block(entry)
        while self._edge_worklist or self._ssa_worklist:
            while self._ssa_worklist:
                inst = self._ssa_worklist.pop()
                if inst.parent is not None and \
                        id(inst.parent) in self._executable:
                    self._visit_instruction(inst)
            if self._edge_worklist:
                pred, succ = self._edge_worklist.pop()
                key = (id(pred), id(succ))
                if key in self._edges:
                    continue
                self._edges.add(key)
                first_visit = id(succ) not in self._executable
                self._executable.add(id(succ))
                if first_visit:
                    self._visit_block(succ)
                else:
                    # A new in-edge changes only the φ meets.
                    for phi in succ.phis():
                        self._visit_instruction(phi)

    def _visit_block(self, block: BasicBlock) -> None:
        for inst in block.instructions:
            self._visit_instruction(inst)

    def _lower(self, inst: Instruction, cell: LatticeCell) -> None:
        """Move ``inst`` down the lattice, waking its users on change."""
        current = self._cells.get(id(inst), TOP_CELL)
        merged = meet(current, cell)
        if merged == current:
            return
        self._cells[id(inst)] = merged
        for use in inst.uses:
            user = use.user
            if isinstance(user, Instruction):
                self._ssa_worklist.append(user)

    def _mark_edge(self, pred: BasicBlock, succ: BasicBlock) -> None:
        if (id(pred), id(succ)) not in self._edges:
            self._edge_worklist.append((pred, succ))

    # ------------------------------------------------------- transfer rules
    def _visit_instruction(self, inst: Instruction) -> None:
        if isinstance(inst, PhiInst):
            self._visit_phi(inst)
        elif isinstance(inst, (BranchInst, SwitchInst)):
            self._visit_terminator(inst)
        elif isinstance(inst, BinaryInst):
            self._lower(inst, self._eval_binary(inst))
        elif isinstance(inst, ICmpInst):
            self._lower(inst, self._eval_icmp(inst))
        elif isinstance(inst, CastInst):
            self._lower(inst, self._eval_cast(inst))
        elif isinstance(inst, SelectInst):
            self._lower(inst, self._eval_select(inst))
        elif inst.is_terminator:
            pass  # ret / unreachable: no out-edges, no value
        else:
            # Loads, calls, allocas, GEPs: runtime values.
            self._lower(inst, BOTTOM_CELL)

    def _visit_phi(self, phi: PhiInst) -> None:
        block = phi.parent
        assert block is not None
        result = TOP_CELL
        for value, pred in phi.incoming():
            if not self.edge_executable(pred, block):
                continue
            result = meet(result, self.value_of(value))
            if result.is_bottom:
                break
        self._lower(phi, result)

    def _visit_terminator(self, term: Instruction) -> None:
        block = term.parent
        assert block is not None
        if isinstance(term, BranchInst):
            if not term.is_conditional:
                self._mark_edge(block, term.true_target)
                return
            cell = self.value_of(term.condition)
            if cell.is_top:
                return  # no evidence yet: keep both arms unexplored
            if cell.is_constant:
                taken = term.true_target if cell.constant else \
                    term.false_target
                self._mark_edge(block, taken)
            else:
                self._mark_edge(block, term.true_target)
                self._mark_edge(block, term.false_target)
            return
        assert isinstance(term, SwitchInst)
        cell = self.value_of(term.value)
        if cell.is_top:
            return
        if cell.is_constant:
            target = term.default
            for const, case_block in term.cases():
                if isinstance(const, ConstantInt) and \
                        const.value == cell.constant:
                    target = case_block
                    break
            self._mark_edge(block, target)
        else:
            for succ in term.successors():
                self._mark_edge(block, succ)

    def _eval_binary(self, inst: BinaryInst) -> LatticeCell:
        lhs = self.value_of(inst.lhs)
        rhs = self.value_of(inst.rhs)
        if lhs.is_bottom or rhs.is_bottom:
            return BOTTOM_CELL
        if lhs.is_top or rhs.is_top:
            return TOP_CELL
        ty = inst.type
        assert isinstance(ty, IntType)
        value = eval_binary(inst.opcode, ty, lhs.constant, rhs.constant)
        if value is None:
            return BOTTOM_CELL  # division by zero: a runtime error, not a value
        return const_cell(value)

    def _eval_icmp(self, inst: ICmpInst) -> LatticeCell:
        lhs = self.value_of(inst.lhs)
        rhs = self.value_of(inst.rhs)
        if lhs.is_bottom or rhs.is_bottom:
            return BOTTOM_CELL
        if lhs.is_top or rhs.is_top:
            return TOP_CELL
        lhs_ty = inst.lhs.type
        if not isinstance(lhs_ty, IntType):
            return BOTTOM_CELL
        result = eval_icmp(inst.predicate, lhs_ty, lhs.constant, rhs.constant)
        return const_cell(1 if result else 0)

    def _eval_cast(self, inst: CastInst) -> LatticeCell:
        operand = self.value_of(inst.value)
        if not operand.is_constant:
            return operand if operand.is_top else BOTTOM_CELL
        if not isinstance(inst.type, IntType):
            return BOTTOM_CELL
        if inst.opcode in (Opcode.ZEXT, Opcode.TRUNC):
            return const_cell(
                ConstantInt(inst.type, operand.constant).value)
        if inst.opcode is Opcode.SEXT:
            source_ty = inst.value.type
            assert isinstance(source_ty, IntType)
            signed = ConstantInt(source_ty, operand.constant).signed_value
            return const_cell(ConstantInt(inst.type, signed).value)
        return BOTTOM_CELL  # pointer/int conversions: not a pure integer

    def _eval_select(self, inst: SelectInst) -> LatticeCell:
        condition = self.value_of(inst.condition)
        if condition.is_top:
            return TOP_CELL
        if condition.is_constant:
            chosen = inst.true_value if condition.constant else \
                inst.false_value
            return self.value_of(chosen)
        return meet(self.value_of(inst.true_value),
                    self.value_of(inst.false_value))


from .registry import register_pass

register_pass(
    "sccp", SparseConditionalConstantPropagation,
    description="optimistic constant propagation that deletes untaken edges")
