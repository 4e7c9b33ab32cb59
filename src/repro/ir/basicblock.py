"""Basic blocks: straight-line sequences of instructions ending in a
terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional, TYPE_CHECKING

from .instructions import (
    TERMINATOR_OPCODES, BranchInst, Instruction, PhiInst, SwitchInst,
)
from .types import VOID
from .values import Value

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from .function import Function


class BasicBlock(Value):
    """A labelled basic block.

    Basic blocks are values (of void type) so that branch instructions can use
    them as operands, which keeps the use-def machinery uniform: replacing a
    block rewrites all branches to it.
    """

    is_block = True

    def __init__(self, name: str = "", parent: Optional["Function"] = None) -> None:
        super().__init__(VOID, name)
        self.parent = parent
        self.instructions: List[Instruction] = []

    # ------------------------------------------------------------- iteration
    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def phis(self) -> List[PhiInst]:
        """The (possibly empty) run of phi nodes at the start of the block."""
        result = []
        for inst in self.instructions:
            if isinstance(inst, PhiInst):
                result.append(inst)
            else:
                break
        return result

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    # ------------------------------------------------------------- mutation
    def bump_ir_epoch(self) -> None:
        """Propagate a change to the containing function's value epoch
        (no-op for detached blocks)."""
        if self.parent is not None:
            self.parent.bump_ir_epoch()

    def bump_cfg_epoch(self) -> None:
        """Propagate a possible change of the control-flow graph to the
        containing function's CFG epoch (no-op for detached blocks)."""
        if self.parent is not None:
            self.parent.bump_cfg_epoch()

    def _bump_for(self, inst: Instruction) -> None:
        """Record that ``inst`` was inserted or removed here: a terminator
        moves the CFG epoch, anything else the value epoch."""
        function = self.parent
        if function is None:
            return
        if inst.opcode in TERMINATOR_OPCODES:
            function.bump_cfg_epoch()
        else:
            function.bump_ir_epoch()

    def append_instruction(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        self._bump_for(inst)
        return inst

    def insert_instruction(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        self._bump_for(inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        index = self.instructions.index(anchor)
        return self.insert_instruction(index, inst)

    def insert_after(self, anchor: Instruction, inst: Instruction) -> Instruction:
        index = self.instructions.index(anchor)
        return self.insert_instruction(index + 1, inst)

    def remove_instruction(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None
        self._bump_for(inst)

    def erase_from_parent(self) -> None:
        """Remove this block from its function and drop all its instructions."""
        for inst in list(self.instructions):
            inst.erase_from_parent()
        if self.parent is not None:
            self.parent.remove_block(self)

    # ------------------------------------------------------------- CFG edges
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        if isinstance(term, (BranchInst, SwitchInst)):
            return term.successors()
        return []

    def predecessors(self) -> List["BasicBlock"]:
        """Blocks whose terminator may transfer control to this block."""
        preds: List[BasicBlock] = []
        for use in self.uses:
            user = use.user
            if isinstance(user, (BranchInst, SwitchInst)) and user.parent is not None:
                if user.parent not in preds and self in user.successors():
                    preds.append(user.parent)
        return preds

    def remove_predecessor(self, pred: "BasicBlock") -> None:
        """Update phi nodes after the edge ``pred -> self`` is deleted."""
        for phi in self.phis():
            phi.remove_incoming(pred)

    # ------------------------------------------------------------- rendering
    def ref(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"
