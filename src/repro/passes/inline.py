"""Function inlining.

The paper's -OSYMBEX prototype "aggressively inlines functions in order to
benefit from simplifications due to function specialization" (§4).  The
inliner here is threshold-based like LLVM's: each call site is inlined when
the callee's estimated cost is below a threshold.  The -OVERIFY pipelines
raise the threshold dramatically (and drop the "don't inline functions with
loops" restriction), which is what produces the 2x increase in inlined
functions between -O3 and -OSYMBEX in Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis import AnalysisManager
from ..ir import (
    BasicBlock, BranchInst, CallInst, ConstantInt, Function, Instruction,
    Module, PhiInst, ReturnInst, UndefValue, Value,
)
from .pass_manager import Pass


@dataclass
class InlineParams:
    """Cost-model parameters for the inliner."""

    #: Maximum estimated callee size (in instructions) to inline.
    threshold: int = 100
    #: Whether callees containing loops may be inlined.
    allow_loops: bool = False
    #: Bonus subtracted from the cost when any argument is a constant
    #: (constant arguments enable specialization after inlining).
    constant_arg_bonus: int = 20
    #: Hard cap on how many instructions a single caller may grow to.
    caller_size_cap: int = 50_000


def _callee_cost(callee: Function) -> int:
    return callee.instruction_count()


def _callee_has_loops(callee: Function, analyses: AnalysisManager) -> bool:
    # Callees are not mutated while they are being inlined *into* other
    # functions, so this lookup is a cache hit for every call site after
    # the first.
    return len(analyses.loop_info(callee).loops) > 0


def inline_call(call: CallInst) -> bool:
    """Inline ``call`` (a direct call to a defined function) into its caller.

    Returns True on success.  The callee is cloned, its arguments are bound
    to the call's operands, its returns are rewired to a continuation block,
    and the call instruction is removed.
    """
    callee = call.callee
    if not isinstance(callee, Function) or callee.is_declaration:
        return False
    caller_block = call.parent
    if caller_block is None or caller_block.parent is None:
        return False
    caller = caller_block.parent
    if caller is callee:
        return False  # direct recursion is never inlined

    # ---------------------------------------------------------------- split
    call_index = caller_block.instructions.index(call)
    continuation = BasicBlock(caller.next_name(f"{callee.name}.exit"))
    caller.insert_block_after(caller_block, continuation)
    trailing = caller_block.instructions[call_index + 1:]
    for inst in trailing:
        caller_block.remove_instruction(inst)
        continuation.append_instruction(inst)
    # Successor phis must now see the continuation block as their predecessor.
    for succ in continuation.successors():
        for phi in succ.phis():
            for i, incoming in enumerate(phi.incoming_blocks):
                if incoming is caller_block:
                    phi.incoming_blocks[i] = continuation

    # ---------------------------------------------------------------- clone
    value_map: Dict[int, Value] = {}
    for argument, actual in zip(callee.arguments, call.args):
        value_map[id(argument)] = actual
    block_map: Dict[int, BasicBlock] = {}
    cloned_blocks: List[BasicBlock] = []
    for block in callee.blocks:
        clone = BasicBlock(caller.next_name(f"{callee.name}.{block.name}"))
        block_map[id(block)] = clone
        cloned_blocks.append(clone)
    insert_after = caller_block
    for clone in cloned_blocks:
        caller.insert_block_after(insert_after, clone)
        insert_after = clone

    cloned_instructions: List[Tuple[Instruction, Instruction]] = []
    for block, clone_block in zip(callee.blocks, cloned_blocks):
        for inst in block.instructions:
            clone = inst.clone()
            clone.name = caller.next_name(inst.name or "inl") \
                if not clone.type.is_void else clone.name
            clone_block.append_instruction(clone)
            value_map[id(inst)] = clone
            cloned_instructions.append((inst, clone))

    # Remap operands (and phi incoming blocks) of every cloned instruction.
    for original, clone in cloned_instructions:
        for index, operand in enumerate(list(clone.operands)):
            if isinstance(operand, BasicBlock):
                mapped: Optional[Value] = block_map.get(id(operand))
            else:
                mapped = value_map.get(id(operand))
            if mapped is not None:
                clone.set_operand(index, mapped)
        if isinstance(clone, PhiInst):
            clone.incoming_blocks = [
                block_map.get(id(b), b) for b in clone.incoming_blocks]

    # ---------------------------------------------------------------- wire up
    return_values: List[Tuple[Value, BasicBlock]] = []
    for clone_block in cloned_blocks:
        term = clone_block.terminator
        if isinstance(term, ReturnInst):
            value = term.value
            term.erase_from_parent()
            branch = BranchInst(continuation)
            clone_block.append_instruction(branch)
            if value is not None:
                return_values.append((value, clone_block))
            else:
                return_values.append((UndefValue(call.type), clone_block))

    entry_clone = block_map[id(callee.entry_block)]
    caller_block.append_instruction(BranchInst(entry_clone))

    # Replace uses of the call's result.
    if not call.type.is_void and call.num_uses > 0:
        if len(return_values) == 1:
            call.replace_all_uses_with(return_values[0][0])
        elif len(return_values) > 1:
            phi = PhiInst(call.type, caller.next_name(f"{callee.name}.ret"))
            continuation.insert_instruction(0, phi)
            for value, block in return_values:
                phi.add_incoming(value, block)
            call.replace_all_uses_with(phi)
        else:
            call.replace_all_uses_with(UndefValue(call.type))
    call.erase_from_parent()
    return True


class Inliner(Pass):
    """Bottom-up threshold-based inliner."""

    name = "inline"

    def __init__(self, params: Optional[InlineParams] = None) -> None:
        super().__init__()
        self.params = params or InlineParams()

    def run_on_module(self, module: Module,
                      analyses: AnalysisManager = None) -> bool:
        if analyses is None:
            analyses = AnalysisManager()
        graph = analyses.call_graph(module)
        self._recursive = {
            function.name for function in module.defined_functions()
            if graph.is_recursive(function.name)}
        changed = False
        for caller in graph.bottom_up_order():
            changed |= self._inline_into(caller, module, analyses)
        return changed

    def _inline_into(self, caller: Function, module: Module,
                     analyses: AnalysisManager) -> bool:
        changed = False
        # Iterate until no more call sites in this caller are inlinable;
        # inlining may expose new (cloned) call sites.
        progress = True
        while progress:
            progress = False
            if caller.instruction_count() > self.params.caller_size_cap:
                break
            for block in list(caller.blocks):
                for inst in list(block.instructions):
                    if not isinstance(inst, CallInst):
                        continue
                    callee = inst.callee
                    if not isinstance(callee, Function) or callee.is_declaration:
                        continue
                    if not self._should_inline(caller, callee, inst, analyses):
                        continue
                    if inline_call(inst):
                        self.stats.functions_inlined += 1
                        progress = True
                        changed = True
                        break
                if progress:
                    break
        return changed

    def _should_inline(self, caller: Function, callee: Function,
                       call: CallInst, analyses: AnalysisManager) -> bool:
        if callee is caller:
            return False
        if callee.attributes.get("no_inline"):
            return False
        if callee.name in getattr(self, "_recursive", set()):
            return False
        if callee.attributes.get("always_inline"):
            return True
        cost = _callee_cost(callee)
        if any(isinstance(arg, ConstantInt) for arg in call.args):
            cost -= self.params.constant_arg_bonus
        if not self.params.allow_loops and \
                _callee_has_loops(callee, analyses):
            return False
        return cost <= self.params.threshold


from .registry import flag_param, int_param, register_pass

register_pass(
    "inline", lambda **params: Inliner(InlineParams(**params)),
    params=[
        int_param("threshold", "threshold", InlineParams),
        flag_param("loops", "allow_loops", InlineParams),
        int_param("const-bonus", "constant_arg_bonus", InlineParams),
        int_param("caller-cap", "caller_size_cap", InlineParams),
    ],
    description="inline direct calls below the cost threshold")
