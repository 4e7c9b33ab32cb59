"""Functions: a list of basic blocks plus a signature."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, TYPE_CHECKING

from .basicblock import BasicBlock
from .instructions import Instruction
from .types import FunctionType, Type
from .values import Argument, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from .module import Module


class Function(Value):
    """A function definition (with blocks) or declaration (without).

    The value itself denotes the function's address, so calls use it as an
    operand directly.
    """

    def __init__(self, name: str, function_type: FunctionType,
                 param_names: Optional[List[str]] = None,
                 parent: Optional["Module"] = None) -> None:
        super().__init__(function_type, name)
        self.function_type = function_type
        self.parent = parent
        self.blocks: List[BasicBlock] = []
        self.arguments: List[Argument] = []
        #: Function-level attributes, e.g. ``{"inline_hint": True}`` or
        #: ``{"no_inline": True}``; consulted by the inliner's cost model.
        self.attributes: Dict[str, object] = {}
        #: Module-level metadata preserved for verification tools.
        self.metadata: Dict[str, object] = {}
        #: Value epoch: bumped by every mutation of the function's body
        #: (block or instruction insertion/removal, operand rewrites, phi
        #: edits).  Analyses that read instructions are keyed on it.
        self._ir_epoch = 0
        #: CFG epoch: bumped, together with the value epoch, only by edits
        #: that can change the control-flow graph: a block added or removed,
        #: a terminator inserted or removed, or a block operand of a
        #: terminator replaced.  Analyses derived from the graph alone (CFG,
        #: dominator tree, loops) are keyed on it.
        self._cfg_epoch = 0
        self._next_name_id = 0
        names = param_names or [f"arg{i}" for i in range(len(function_type.param_types))]
        for i, (ty, pname) in enumerate(zip(function_type.param_types, names)):
            self.arguments.append(Argument(ty, pname, i))

    # ------------------------------------------------------------ structure
    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over every instruction in the function."""
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    # ------------------------------------------------------------- mutation
    @property
    def ir_epoch(self) -> int:
        """The current value epoch (see :attr:`_ir_epoch`)."""
        return self._ir_epoch

    @property
    def cfg_epoch(self) -> int:
        """The current CFG epoch (see :attr:`_cfg_epoch`)."""
        return self._cfg_epoch

    def bump_ir_epoch(self) -> None:
        """Record that this function's IR changed (invalidates cached
        analyses keyed on the old value epoch)."""
        self._ir_epoch += 1
        parent = self.parent
        if parent is not None:
            parent.bump_ir_epoch()

    def bump_cfg_epoch(self) -> None:
        """Record that this function's control-flow graph may have changed
        (moves the value epoch too)."""
        self._cfg_epoch += 1
        self.bump_ir_epoch()

    def append_block(self, block: BasicBlock) -> BasicBlock:
        block.parent = self
        if not block.name:
            block.name = self.next_name("bb")
        self.blocks.append(block)
        self.bump_cfg_epoch()
        return block

    def insert_block_after(self, anchor: BasicBlock, block: BasicBlock) -> BasicBlock:
        block.parent = self
        if not block.name:
            block.name = self.next_name("bb")
        self.blocks.insert(self.blocks.index(anchor) + 1, block)
        self.bump_cfg_epoch()
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None
        self.bump_cfg_epoch()

    def next_name(self, prefix: str = "t") -> str:
        """Generate a fresh local name unique within this function."""
        self._next_name_id += 1
        return f"{prefix}{self._next_name_id}"

    # ------------------------------------------------------------- queries
    def ref(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "declaration" if self.is_declaration else f"{len(self.blocks)} blocks"
        return f"<Function {self.name} ({kind})>"
