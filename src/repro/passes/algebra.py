"""Algebraic simplification: strength reduction and canonicalization.

The deeper rewrites ``instcombine``'s identity peepholes do not attempt:

* **strength reduction** — multiply/unsigned-divide/unsigned-remainder by a
  power of two become shift/mask operations, which the solver's bit-level
  reasoning handles far more cheaply than multiplication;
* **comparison canonicalization** — constants move to the right-hand side
  (so GVN sees one form per comparison), ``not (a cmp b)`` becomes the
  inverse comparison, and unsigned trivia like ``x <u 1`` collapse to
  equality tests;
* **constant reassociation** — ``(x + c1) + c2`` refolds to ``x + (c1+c2)``,
  re-exposing constants that inlining and GEP lowering buried;
* **or-of-equalities range merging** — ``c==9 | c==10 | ... | c==13``
  becomes ``(c-9) <=u 4``, the classic character-class check.  After the
  front end flattens short-circuit chains this is the dominant shape of
  the branch-free classification code in the execution libc, and merging
  it shrinks every path condition the symbolic executor carries.

Everything here rewrites values only; branch targets are never touched, so
all CFG-derived analyses survive a run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import AnalysisManager
from ..ir import (
    BinaryInst, CastInst, ConstantInt, Function, ICmpInst, ICmpPredicate,
    Instruction, IntType, Opcode, SelectInst, Value, I1,
)
from .pass_manager import Pass, insert_before, replace_to_fixpoint


def _constant(value: Value) -> Optional[ConstantInt]:
    return value if isinstance(value, ConstantInt) else None


def _power_of_two(constant: ConstantInt) -> Optional[int]:
    """log2 of the constant's unsigned value, if it is a power of two."""
    value = constant.value
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _insert_before(anchor: Instruction, new_inst: Instruction) -> Instruction:
    return insert_before(anchor, new_inst, "alg")


class AlgebraicSimplify(Pass):
    """Strength reduction, canonicalization, and range merging."""

    name = "algebraic-simplify"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        if not replace_to_fixpoint(function, self._simplify):
            return False
        return True

    def _simplify(self, inst: Instruction) -> Optional[Value]:
        if isinstance(inst, BinaryInst):
            result = self._strength_reduce(inst)
            if result is None:
                result = self._reassociate(inst)
            if result is None:
                result = self._invert_compare(inst)
            if result is None:
                result = self._merge_equality_ranges(inst)
            if result is None:
                result = self._double_negation(inst)
            return result
        if isinstance(inst, ICmpInst):
            return self._canonicalize_compare(inst)
        if isinstance(inst, SelectInst):
            return self._select_to_arith(inst)
        return None

    # ----------------------------------------------------- strength reduce
    def _strength_reduce(self, inst: BinaryInst) -> Optional[Value]:
        ty = inst.type
        assert isinstance(ty, IntType)
        crhs = _constant(inst.rhs)
        if crhs is None:
            return None
        shift = _power_of_two(crhs)
        if shift is None or shift == 0:
            return None
        if inst.opcode is Opcode.MUL:
            replacement = BinaryInst(Opcode.SHL, inst.lhs,
                                     ConstantInt(ty, shift))
        elif inst.opcode is Opcode.UDIV:
            replacement = BinaryInst(Opcode.LSHR, inst.lhs,
                                     ConstantInt(ty, shift))
        elif inst.opcode is Opcode.UREM:
            replacement = BinaryInst(Opcode.AND, inst.lhs,
                                     ConstantInt(ty, crhs.value - 1))
        else:
            return None
        self.stats.expressions_simplified += 1
        return _insert_before(inst, replacement)

    # -------------------------------------------------------- reassociation
    def _reassociate(self, inst: BinaryInst) -> Optional[Value]:
        """(x op c1) op c2 -> x op (c1 op c2) for associative op ∈ {+,&,|,^}
        (and the add/sub mixture via negation)."""
        ty = inst.type
        assert isinstance(ty, IntType)
        crhs = _constant(inst.rhs)
        if crhs is None or not isinstance(inst.lhs, BinaryInst):
            return None
        inner = inst.lhs
        if inner is inst or inner.lhs is inst:
            # Self-referential chain (non-SSA input); rewriting would
            # rebuild the same instruction forever.
            return None
        cinner = _constant(inner.rhs)
        if cinner is None:
            return None
        op = inst.opcode
        if op in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.MUL):
            if inner.opcode is not op:
                return None
            from ..ir import eval_binary
            folded = eval_binary(op, ty, cinner.value, crhs.value)
            if folded is None:
                return None
            replacement = BinaryInst(op, inner.lhs, ConstantInt(ty, folded))
        elif op in (Opcode.ADD, Opcode.SUB):
            if inner.opcode not in (Opcode.ADD, Opcode.SUB):
                return None
            # Normalize both constants to their added contribution.
            outer = crhs.value if op is Opcode.ADD else -crhs.value
            innerc = cinner.value if inner.opcode is Opcode.ADD \
                else -cinner.value
            total = (outer + innerc) & ty.mask
            replacement = BinaryInst(Opcode.ADD, inner.lhs,
                                     ConstantInt(ty, total))
        else:
            return None
        self.stats.expressions_simplified += 1
        return _insert_before(inst, replacement)

    # --------------------------------------------------- compare rewriting
    def _canonicalize_compare(self, inst: ICmpInst) -> Optional[Value]:
        # Constant operand to the right: one canonical spelling per compare.
        if isinstance(inst.lhs, ConstantInt) and \
                not isinstance(inst.rhs, ConstantInt):
            replacement = ICmpInst(inst.predicate.swapped(), inst.rhs,
                                   inst.lhs)
            self.stats.comparisons_canonicalized += 1
            return _insert_before(inst, replacement)
        crhs = _constant(inst.rhs)
        if crhs is None:
            return None
        # Unsigned borderline forms collapse to equality tests.
        if crhs.is_one and inst.predicate is ICmpPredicate.ULT:
            replacement = ICmpInst(ICmpPredicate.EQ, inst.lhs,
                                   ConstantInt(crhs.type, 0))
            self.stats.comparisons_canonicalized += 1
            return _insert_before(inst, replacement)
        if crhs.is_one and inst.predicate is ICmpPredicate.UGE:
            replacement = ICmpInst(ICmpPredicate.NE, inst.lhs,
                                   ConstantInt(crhs.type, 0))
            self.stats.comparisons_canonicalized += 1
            return _insert_before(inst, replacement)
        if crhs.is_zero and inst.predicate is ICmpPredicate.ULE:
            replacement = ICmpInst(ICmpPredicate.EQ, inst.lhs, inst.rhs)
            self.stats.comparisons_canonicalized += 1
            return _insert_before(inst, replacement)
        return None

    def _invert_compare(self, inst: BinaryInst) -> Optional[Value]:
        """xor (icmp pred a b), true  ->  icmp pred⁻¹ a b."""
        if inst.opcode is not Opcode.XOR or inst.type != I1:
            return None
        compare: Optional[ICmpInst] = None
        other: Optional[Value] = None
        for a, b in ((inst.lhs, inst.rhs), (inst.rhs, inst.lhs)):
            if isinstance(a, ICmpInst) and isinstance(b, ConstantInt) and \
                    b.is_one:
                compare, other = a, b
                break
        if compare is None:
            return None
        replacement = ICmpInst(compare.predicate.inverse(), compare.lhs,
                               compare.rhs)
        self.stats.comparisons_canonicalized += 1
        return _insert_before(inst, replacement)

    def _double_negation(self, inst: BinaryInst) -> Optional[Value]:
        """0 - (0 - x) -> x  and  (x ^ -1) ^ -1 -> x."""
        ty = inst.type
        assert isinstance(ty, IntType)
        if inst.opcode is Opcode.SUB:
            clhs = _constant(inst.lhs)
            if clhs is not None and clhs.is_zero and \
                    isinstance(inst.rhs, BinaryInst) and \
                    inst.rhs.opcode is Opcode.SUB:
                inner = inst.rhs
                cinner = _constant(inner.lhs)
                if cinner is not None and cinner.is_zero:
                    self.stats.expressions_simplified += 1
                    return inner.rhs
        if inst.opcode is Opcode.XOR:
            crhs = _constant(inst.rhs)
            if crhs is not None and crhs.is_all_ones and \
                    isinstance(inst.lhs, BinaryInst) and \
                    inst.lhs.opcode is Opcode.XOR:
                inner = inst.lhs
                cinner = _constant(inner.rhs)
                if cinner is not None and cinner.is_all_ones:
                    self.stats.expressions_simplified += 1
                    return inner.lhs
        return None

    # ---------------------------------------------------- range merging
    def _merge_equality_ranges(self, inst: BinaryInst) -> Optional[Value]:
        """or-chain of ``x == cᵢ`` leaves over one ``x``: contiguous runs of
        constants merge into ``(x - lo) <=u (hi - lo)``."""
        if inst.opcode is not Opcode.OR or inst.type != I1:
            return None
        # Only rewrite the root of an or-chain (inner nodes are reached
        # through the root and would otherwise be rebuilt redundantly).
        if any(isinstance(use.user, BinaryInst) and
               use.user.opcode is Opcode.OR and use.user.type == I1
               for use in inst.uses):
            return None
        leaves: List[Value] = []
        self._flatten_or(inst, leaves)
        if len(leaves) < 3:
            return None
        #: id(x) -> (x, sorted unique constants compared equal to it)
        groups: Dict[int, Tuple[Value, List[int]]] = {}
        others: List[Value] = []
        for leaf in leaves:
            if isinstance(leaf, ICmpInst) and \
                    leaf.predicate is ICmpPredicate.EQ and \
                    isinstance(leaf.rhs, ConstantInt) and \
                    isinstance(leaf.lhs.type, IntType):
                entry = groups.setdefault(id(leaf.lhs), (leaf.lhs, []))
                entry[1].append(leaf.rhs.value)
            else:
                others.append(leaf)
        terms: List[Tuple[Value, int, int]] = []  # (x, lo, hi) runs
        merged_any = False
        for subject, constants in groups.values():
            runs = _contiguous_runs(sorted(set(constants)))
            for lo, hi in runs:
                terms.append((subject, lo, hi))
                if hi - lo >= 2:
                    merged_any = True
        if not merged_any:
            return None
        # Rebuild: range checks for the runs, then the leftover terms.
        pieces: List[Value] = []
        for subject, lo, hi in terms:
            ty = subject.type
            assert isinstance(ty, IntType)
            if lo == hi:
                check: Instruction = ICmpInst(
                    ICmpPredicate.EQ, subject, ConstantInt(ty, lo))
            else:
                shifted: Value = subject
                if lo != 0:
                    shifted = _insert_before(inst, BinaryInst(
                        Opcode.SUB, subject, ConstantInt(ty, lo)))
                check = ICmpInst(ICmpPredicate.ULE, shifted,
                                 ConstantInt(ty, hi - lo))
            pieces.append(_insert_before(inst, check))
        pieces.extend(others)
        result = pieces[0]
        for piece in pieces[1:]:
            result = _insert_before(inst,
                                    BinaryInst(Opcode.OR, result, piece))
        self.stats.expressions_simplified += 1
        return result

    def _flatten_or(self, value: Value, leaves: List[Value]) -> None:
        if isinstance(value, BinaryInst) and value.opcode is Opcode.OR and \
                value.type == I1:
            self._flatten_or(value.lhs, leaves)
            self._flatten_or(value.rhs, leaves)
        else:
            leaves.append(value)

    # ------------------------------------------------------------- selects
    def _select_to_arith(self, inst: SelectInst) -> Optional[Value]:
        """select c, 1, 0 over iN -> zext c (branch-free boolean widening)."""
        tv, fv = _constant(inst.true_value), _constant(inst.false_value)
        ty = inst.type
        if not isinstance(ty, IntType) or ty == I1:
            return None
        if tv is not None and fv is not None and tv.is_one and fv.is_zero \
                and inst.condition.type == I1:
            self.stats.expressions_simplified += 1
            return _insert_before(
                inst, CastInst(Opcode.ZEXT, inst.condition, ty))
        return None


def _contiguous_runs(sorted_values: List[int]) -> List[Tuple[int, int]]:
    """Group a sorted list of integers into maximal [lo, hi] runs."""
    runs: List[Tuple[int, int]] = []
    for value in sorted_values:
        if runs and value == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], value)
        else:
            runs.append((value, value))
    return runs


from .registry import register_pass

register_pass(
    "algebraic-simplify", AlgebraicSimplify,
    description="strength-reduce, canonicalize compares, merge ranges")
