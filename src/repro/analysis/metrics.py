"""Static program metrics.

These are the quantities the paper reports or reasons about: instruction
counts (Table 1), branch counts, loop counts and call counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..ir import (
    BranchInst, CallInst, Function, LoadInst, Module, Opcode,
    PhiInst, SelectInst, StoreInst, SwitchInst,
)
from .loops import LoopInfo


@dataclass
class FunctionMetrics:
    """Static metrics of a single function."""

    name: str = ""
    instructions: int = 0
    blocks: int = 0
    conditional_branches: int = 0
    unconditional_branches: int = 0
    switches: int = 0
    selects: int = 0
    loads: int = 0
    stores: int = 0
    allocas: int = 0
    calls: int = 0
    phis: int = 0
    loops: int = 0
    max_loop_depth: int = 0

    @property
    def memory_accesses(self) -> int:
        return self.loads + self.stores

    @property
    def branch_like(self) -> int:
        """Control-flow decision points (what path explosion grows with)."""
        return self.conditional_branches + self.switches


@dataclass
class ModuleMetrics:
    """Aggregated metrics of a module plus the per-function breakdown."""

    instructions: int = 0
    blocks: int = 0
    functions: int = 0
    conditional_branches: int = 0
    selects: int = 0
    loops: int = 0
    memory_accesses: int = 0
    calls: int = 0
    per_function: Dict[str, FunctionMetrics] = field(default_factory=dict)


def function_metrics(function: Function) -> FunctionMetrics:
    """Compute static metrics for one function."""
    metrics = FunctionMetrics(name=function.name)
    metrics.blocks = len(function.blocks)
    for inst in function.instructions():
        metrics.instructions += 1
        if isinstance(inst, BranchInst):
            if inst.is_conditional:
                metrics.conditional_branches += 1
            else:
                metrics.unconditional_branches += 1
        elif isinstance(inst, SwitchInst):
            metrics.switches += 1
        elif isinstance(inst, SelectInst):
            metrics.selects += 1
        elif isinstance(inst, LoadInst):
            metrics.loads += 1
        elif isinstance(inst, StoreInst):
            metrics.stores += 1
        elif isinstance(inst, CallInst):
            metrics.calls += 1
        elif isinstance(inst, PhiInst):
            metrics.phis += 1
        elif inst.opcode is Opcode.ALLOCA:
            metrics.allocas += 1
    if function.blocks:
        loop_info = LoopInfo(function)
        metrics.loops = len(loop_info.loops)
        metrics.max_loop_depth = max(
            (loop.depth for loop in loop_info.loops), default=0)
    return metrics


def module_metrics(module: Module) -> ModuleMetrics:
    """Compute metrics for every defined function in ``module``."""
    result = ModuleMetrics()
    for function in module.defined_functions():
        fm = function_metrics(function)
        result.per_function[function.name] = fm
        result.functions += 1
        result.instructions += fm.instructions
        result.blocks += fm.blocks
        result.conditional_branches += fm.conditional_branches
        result.selects += fm.selects
        result.loops += fm.loops
        result.memory_accesses += fm.memory_accesses
        result.calls += fm.calls
    return result
