"""Textual rendering of IR modules, functions and instructions.

The syntax intentionally resembles LLVM assembly so that readers familiar
with the paper's tooling can follow dumps easily.
"""

from __future__ import annotations

from typing import List

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    AllocaInst, BinaryInst, BranchInst, CallInst, CastInst, GEPInst, ICmpInst,
    Instruction, LoadInst, PhiInst, ReturnInst, SelectInst, StoreInst,
    SwitchInst, UnreachableInst,
)
from .module import Module
from .values import GlobalVariable, Value


def print_module(module: Module) -> str:
    """Render a whole module as text."""
    lines: List[str] = [f"; module {module.name}"]
    if module.metadata:
        lines.append(f"; metadata: {module.metadata}")
    for gv in module.globals.values():
        lines.append(_print_global(gv))
    if module.globals:
        lines.append("")
    for function in module.functions.values():
        lines.append(print_function(function))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _print_global(gv: GlobalVariable) -> str:
    kind = "constant" if gv.is_constant else "global"
    init = f" {gv.initializer.ref()}" if gv.initializer is not None else ""
    return f"@{gv.name} = {kind} {gv.value_type}{init}"


def print_function(function: Function) -> str:
    """Render a function definition or declaration."""
    params = ", ".join(f"{arg.type} %{arg.name}" for arg in function.arguments)
    signature = f"{function.return_type} @{function.name}({params})"
    if function.is_declaration:
        return f"declare {signature}"
    lines = [f"define {signature} {{"]
    for block in function.blocks:
        lines.append(f"{block.name}:")
        for inst in block.instructions:
            lines.append(f"  {print_instruction(inst)}")
    lines.append("}")
    return "\n".join(lines)


def _ref(value: Value) -> str:
    if isinstance(value, BasicBlock):
        return f"label %{value.name}"
    return f"{value.type} {value.ref()}"


def print_instruction(inst: Instruction) -> str:
    """Render one instruction."""
    text = _print_instruction_body(inst)
    if inst.metadata:
        annotations = ", ".join(f"!{key} {value!r}" for key, value in
                                sorted(inst.metadata.items()))
        text = f"{text}  ; {annotations}"
    return text


def _print_instruction_body(inst: Instruction) -> str:
    name = f"%{inst.name} = " if not inst.type.is_void else ""
    if isinstance(inst, BinaryInst):
        return (f"{name}{inst.opcode.value} {inst.type} "
                f"{inst.lhs.ref()}, {inst.rhs.ref()}")
    if isinstance(inst, ICmpInst):
        return (f"{name}icmp {inst.predicate.value} {inst.lhs.type} "
                f"{inst.lhs.ref()}, {inst.rhs.ref()}")
    if isinstance(inst, SelectInst):
        return (f"{name}select i1 {inst.condition.ref()}, "
                f"{_ref(inst.true_value)}, {_ref(inst.false_value)}")
    if isinstance(inst, CastInst):
        return (f"{name}{inst.opcode.value} {inst.value.type} "
                f"{inst.value.ref()} to {inst.type}")
    if isinstance(inst, AllocaInst):
        return f"{name}alloca {inst.allocated_type}"
    if isinstance(inst, LoadInst):
        return f"{name}load {inst.type}, {_ref(inst.pointer)}"
    if isinstance(inst, StoreInst):
        return f"store {_ref(inst.value)}, {_ref(inst.pointer)}"
    if isinstance(inst, GEPInst):
        indices = ", ".join(_ref(i) for i in inst.indices)
        return f"{name}getelementptr {_ref(inst.base)}, {indices}"
    if isinstance(inst, CallInst):
        args = ", ".join(_ref(a) for a in inst.args)
        return f"{name}call {inst.type} {inst.callee.ref()}({args})"
    if isinstance(inst, BranchInst):
        if inst.is_conditional:
            return (f"br i1 {inst.condition.ref()}, label %{inst.true_target.name}, "
                    f"label %{inst.false_target.name}")
        return f"br label %{inst.true_target.name}"
    if isinstance(inst, SwitchInst):
        cases = " ".join(f"{const.ref()}: label %{block.name}"
                         for const, block in inst.cases())
        return (f"switch {_ref(inst.value)}, label %{inst.default.name} "
                f"[{cases}]")
    if isinstance(inst, ReturnInst):
        if inst.value is None:
            return "ret void"
        return f"ret {_ref(inst.value)}"
    if isinstance(inst, UnreachableInst):
        return "unreachable"
    if isinstance(inst, PhiInst):
        incoming = ", ".join(f"[ {value.ref()}, %{block.name} ]"
                             for value, block in inst.incoming())
        return f"{name}phi {inst.type} {incoming}"
    raise NotImplementedError(f"cannot print {inst!r}")
