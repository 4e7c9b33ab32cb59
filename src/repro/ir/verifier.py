"""Structural verifier for the repro IR.

Every optimization pass is expected to leave the module in a state this
verifier accepts; the pass manager can run it after every pass when built in
"checked" mode (the default in tests).
"""

from __future__ import annotations

from typing import List

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    BranchInst, CallInst, ICmpInst, Instruction, LoadInst, PhiInst, ReturnInst,
    SelectInst, StoreInst, SwitchInst,
)
from .module import Module
from .types import IntType, PointerType, I1
from .values import Argument


class VerificationError(Exception):
    """Raised when a module violates a structural IR invariant."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("\n".join(errors))
        self.errors = errors


def verify_module(module: Module) -> None:
    """Raise :class:`VerificationError` if the module is structurally invalid."""
    errors: List[str] = []
    for function in module.defined_functions():
        errors.extend(_verify_function(function))
    if errors:
        raise VerificationError(errors)


def verify_function(function: Function) -> None:
    errors = _verify_function(function)
    if errors:
        raise VerificationError(errors)


def _verify_function(function: Function) -> List[str]:
    errors: List[str] = []
    where = f"function @{function.name}"

    if not function.blocks:
        return errors

    block_set = set(id(b) for b in function.blocks)
    defined: set = set(id(arg) for arg in function.arguments)

    # Pass 1: every block has exactly one terminator, at the end.
    for block in function.blocks:
        if block.parent is not function:
            errors.append(f"{where}: block {block.name} has wrong parent")
        term = block.terminator
        if term is None:
            errors.append(f"{where}: block {block.name} has no terminator")
        for i, inst in enumerate(block.instructions):
            if inst.parent is not block:
                errors.append(
                    f"{where}: instruction in {block.name} has wrong parent")
            if inst.is_terminator and i != len(block.instructions) - 1:
                errors.append(
                    f"{where}: terminator in the middle of block {block.name}")
            if isinstance(inst, PhiInst) and i > 0 and \
                    not isinstance(block.instructions[i - 1], PhiInst):
                errors.append(
                    f"{where}: phi not at the start of block {block.name}")
            if not inst.type.is_void:
                defined.add(id(inst))

    # Pass 2: branch targets are blocks of this function; phi nodes agree
    # with predecessors; operand types are sane.
    for block in function.blocks:
        preds = block.predecessors()
        for inst in block.instructions:
            errors.extend(_verify_instruction(function, block, inst, block_set))
            if isinstance(inst, PhiInst):
                incoming_ids = set(id(b) for b in inst.incoming_blocks)
                pred_ids = set(id(p) for p in preds)
                if incoming_ids != pred_ids:
                    incoming_names = sorted(b.name for b in inst.incoming_blocks)
                    pred_names = sorted(p.name for p in preds)
                    errors.append(
                        f"{where}: phi %{inst.name} in {block.name} has incoming "
                        f"{incoming_names} but predecessors are {pred_names}")

    # Pass 3: uses of instruction results are defined somewhere in the
    # function (full dominance checking is done only for non-phi uses within
    # a single block to keep the verifier fast).
    for block in function.blocks:
        seen_here: set = set()
        for inst in block.instructions:
            for op in inst.operands:
                if isinstance(op, Instruction):
                    if id(op) not in defined:
                        errors.append(
                            f"{where}: %{inst.name or inst.opcode.value} in "
                            f"{block.name} uses undefined value %{op.name}")
                    elif (op.parent is block and not isinstance(inst, PhiInst)
                          and id(op) not in seen_here
                          and op in block.instructions):
                        errors.append(
                            f"{where}: use of %{op.name} before its definition "
                            f"in block {block.name}")
                elif isinstance(op, Argument):
                    if op not in function.arguments:
                        errors.append(
                            f"{where}: use of foreign argument %{op.name}")
            if not inst.type.is_void:
                seen_here.add(id(inst))
    return errors


def verify_ssa_dominance(module: Module) -> None:
    """Full SSA dominance check: every use of an instruction result must be
    dominated by the defining instruction, and a phi's incoming value must
    dominate the matching predecessor's exit.

    The per-pass structural verifier skips this on purpose (it needs a
    dominator tree per function, which is too slow to rebuild after every
    pass on every function).  The differential fuzzer's oracle runs it on
    each compiled module, and regression tests call it directly — a broken
    jump-threading edge redirect once survived the structural checks and
    only surfaced as a compile-time hang two passes later.
    """
    # Late import: repro.analysis imports repro.ir at module load time.
    from ..analysis.dominators import DominatorTree

    errors: List[str] = []
    for function in module.defined_functions():
        if not function.blocks:
            continue
        dom = DominatorTree(function)
        reachable = set(id(b) for b in dom.rpo)
        where = f"function @{function.name}"
        for block in function.blocks:
            if id(block) not in reachable:
                continue  # unreachable code has no dominance obligations
            position = {id(inst): i
                        for i, inst in enumerate(block.instructions)}
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    for value, pred in inst.incoming():
                        if not isinstance(value, Instruction):
                            continue
                        def_block = value.parent
                        if def_block is None or id(pred) not in reachable or \
                                not dom.dominates(def_block, pred):
                            errors.append(
                                f"{where}: phi %{inst.name} in {block.name} "
                                f"takes %{value.name} from edge {pred.name}, "
                                f"which its definition does not dominate")
                    continue
                for op in inst.operands:
                    if not isinstance(op, Instruction) or op.type.is_void:
                        continue
                    def_block = op.parent
                    if def_block is block:
                        if position.get(id(op), -1) >= position[id(inst)]:
                            errors.append(
                                f"{where}: %{inst.name or inst.opcode.value} "
                                f"in {block.name} uses %{op.name} before its "
                                f"definition")
                    elif def_block is None or \
                            not dom.dominates(def_block, block):
                        errors.append(
                            f"{where}: %{inst.name or inst.opcode.value} in "
                            f"{block.name} uses %{op.name} defined in "
                            f"non-dominating block "
                            f"{def_block.name if def_block else '<detached>'}")
    if errors:
        raise VerificationError(errors)


def _verify_instruction(function: Function, block: BasicBlock,
                        inst: Instruction, block_set: set) -> List[str]:
    errors: List[str] = []
    where = f"@{function.name}:{block.name}"

    if isinstance(inst, BranchInst):
        if inst.is_conditional and inst.condition.type != I1:
            errors.append(f"{where}: branch condition is not i1")
        for target in inst.successors():
            if id(target) not in block_set:
                errors.append(f"{where}: branch to foreign block {target.name}")
    elif isinstance(inst, SwitchInst):
        for target in inst.successors():
            if id(target) not in block_set:
                errors.append(f"{where}: switch to foreign block {target.name}")
    elif isinstance(inst, ReturnInst):
        if inst.value is None:
            if not function.return_type.is_void:
                errors.append(f"{where}: ret void in non-void function")
        elif inst.value.type != function.return_type:
            errors.append(
                f"{where}: ret type {inst.value.type} != {function.return_type}")
    elif isinstance(inst, StoreInst):
        ptr_type = inst.pointer.type
        if not isinstance(ptr_type, PointerType):
            errors.append(f"{where}: store through non-pointer")
        elif ptr_type.pointee != inst.value.type:
            errors.append(
                f"{where}: store of {inst.value.type} through {ptr_type}")
    elif isinstance(inst, LoadInst):
        if not isinstance(inst.pointer.type, PointerType):
            errors.append(f"{where}: load from non-pointer")
    elif isinstance(inst, ICmpInst):
        if inst.lhs.type != inst.rhs.type:
            errors.append(
                f"{where}: icmp operand types differ "
                f"({inst.lhs.type} vs {inst.rhs.type})")
    elif isinstance(inst, SelectInst):
        if inst.condition.type != I1:
            errors.append(f"{where}: select condition is not i1")
        if inst.true_value.type != inst.false_value.type:
            errors.append(f"{where}: select arm types differ")
    elif inst.is_binary:
        if inst.operands[0].type != inst.operands[1].type:
            errors.append(
                f"{where}: binary operand types differ "
                f"({inst.operands[0].type} vs {inst.operands[1].type})")
        if not isinstance(inst.type, IntType):
            errors.append(f"{where}: binary result is not an integer")
    elif isinstance(inst, CallInst):
        callee = inst.callee
        if isinstance(callee, Function):
            expected = len(callee.function_type.param_types)
            if not callee.function_type.is_vararg and len(inst.args) != expected:
                errors.append(
                    f"{where}: call to @{callee.name} with {len(inst.args)} "
                    f"args, expected {expected}")
    return errors
