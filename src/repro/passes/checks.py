"""Runtime check insertion.

"Recent versions of Clang and GCC can emit run-time checks for various forms
of illegal behavior, transforming these various failures into run-time
crashes.  This makes verification simpler, as tools now only need to check
for one type of failure (i.e., crashes)." (§3, Runtime checks.)

This pass inserts explicit null-pointer checks before loads and stores whose
address cannot be proven safe statically (i.e. it is not derived from a
stack slot or global with a constant offset).  A failed check calls the
``__overify_check_fail`` routine and then reaches ``unreachable``; both the
concrete interpreter and the symbolic executor treat that as a program
crash, which is exactly how the paper's tools consume such checks.
"""

from __future__ import annotations

from typing import List

from ..analysis import AnalysisManager, PreservedAnalyses, underlying_object
from ..ir import (
    AllocaInst, BasicBlock, BranchInst, CallInst, ConstantInt, Function,
    FunctionType, GlobalVariable, ICmpInst, ICmpPredicate, Instruction,
    LoadInst, Opcode, StoreInst, UnreachableInst, CastInst, I64, VOID,
)
from .pass_manager import Pass

#: Name of the failure handler the checks call; verification tools treat a
#: call to it as a crash.
CHECK_FAIL_FUNCTION = "__overify_check_fail"


def _statically_safe(pointer) -> bool:
    """A pointer is statically safe when it is an alloca/global plus a
    constant offset (the flat memory model guarantees these are valid)."""
    info = underlying_object(pointer)
    return isinstance(info.base, (AllocaInst, GlobalVariable)) and \
        info.has_constant_offset


class InsertRuntimeChecks(Pass):
    """Insert null-pointer checks before unproven memory accesses."""

    name = "runtime-checks"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> PreservedAnalyses:
        if function.is_declaration:
            return PreservedAnalyses.unchanged()
        # Snapshot the accesses first: inserting checks splits blocks.
        accesses: List[Instruction] = [
            inst for inst in function.instructions()
            if isinstance(inst, (LoadInst, StoreInst))
            and not _statically_safe(inst.pointer)
            and "overify.checked" not in inst.metadata]
        if not accesses:
            return PreservedAnalyses.unchanged()
        # The module's first check declares the failure hook.
        module = function.parent
        fail = module.get_function_or_none(CHECK_FAIL_FUNCTION) or \
            module.create_function(CHECK_FAIL_FUNCTION,
                                   FunctionType(VOID, ()), [])
        for inst in accesses:
            self._insert_null_check(function, fail, inst)
            self.stats.checks_inserted += 1
        # Each check splits a block and adds a failure arm.
        return PreservedAnalyses.none()

    def _insert_null_check(self, function: Function, fail: Function,
                           access: Instruction) -> None:
        block = access.parent
        assert block is not None
        pointer = access.pointer  # type: ignore[attr-defined]
        access.metadata["overify.checked"] = True

        # Split the block before the access.
        index = block.instructions.index(access)
        continuation = BasicBlock(function.next_name("check.cont"))
        function.insert_block_after(block, continuation)
        for inst in block.instructions[index:]:
            block.remove_instruction(inst)
            continuation.append_instruction(inst)
        for succ in continuation.successors():
            for phi in succ.phis():
                for i, incoming in enumerate(phi.incoming_blocks):
                    if incoming is block:
                        phi.incoming_blocks[i] = continuation

        fail_block = BasicBlock(function.next_name("check.fail"))
        function.insert_block_after(block, fail_block)
        fail_block.append_instruction(CallInst(fail, [], VOID))
        fail_block.append_instruction(UnreachableInst())

        as_int = CastInst(Opcode.PTRTOINT, pointer, I64,
                          function.next_name("check.addr"))
        block.append_instruction(as_int)
        is_valid = ICmpInst(ICmpPredicate.NE, as_int, ConstantInt(I64, 0),
                            function.next_name("check.ok"))
        block.append_instruction(is_valid)
        block.append_instruction(BranchInst(continuation, is_valid, fail_block))


from .registry import register_pass

register_pass(
    "runtime-checks", InsertRuntimeChecks,
    description="insert runtime checks so every failure becomes a crash")
