"""Scalar replacement of aggregates (SROA).

"A compiler can easily help by converting values that reside in memory to
register values, and by splitting large objects into independent smaller
objects, thereby reducing the opportunities for memory access aliasing."
(§3, Instruction simplification.)

The pass splits an alloca of a struct (or small array) into one alloca per
field/element when every access goes through a GEP with a constant offset
that falls entirely inside one field.  mem2reg can then promote the pieces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import AnalysisManager
from ..ir import (
    AllocaInst, ArrayType, ConstantInt, Function, GEPInst, LoadInst, StoreInst,
    StructType, Type,
)
from .pass_manager import Pass


def _field_layout(ty: Type) -> Optional[List[Tuple[int, Type]]]:
    """(byte offset, type) of each scalar piece, or None for non-aggregates
    and aggregates with non-scalar pieces."""
    if isinstance(ty, StructType):
        layout = []
        for index, field in enumerate(ty.fields):
            if not (field.is_integer or field.is_pointer):
                return None
            layout.append((ty.field_offset(index), field))
        return layout
    if isinstance(ty, ArrayType):
        if not (ty.element.is_integer or ty.element.is_pointer):
            return None
        if ty.count > 16:
            return None  # splitting huge arrays explodes the IR
        size = ty.element.size_in_bytes()
        return [(i * size, ty.element) for i in range(ty.count)]
    return None


class ScalarReplacementOfAggregates(Pass):
    """Split aggregate allocas into per-field scalar allocas."""

    name = "sroa"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        changed = False
        for inst in list(function.instructions()):
            if isinstance(inst, AllocaInst):
                changed |= self._try_split(function, inst)
        if not changed:
            return False
        return True

    def _try_split(self, function: Function, alloca: AllocaInst) -> bool:
        layout = _field_layout(alloca.allocated_type)
        if layout is None:
            return False
        offsets = {offset: ty for offset, ty in layout}

        # Every use must be a GEP with a constant offset matching exactly one
        # field, and every use of that GEP must be a whole-field load/store.
        accesses: List[Tuple[GEPInst, int]] = []
        for use in alloca.uses:
            user = use.user
            if not isinstance(user, GEPInst) or user.base is not alloca:
                return False
            offset = 0
            for index in user.indices:
                if not isinstance(index, ConstantInt):
                    return False
                offset += index.signed_value
            if offset not in offsets:
                return False
            field_type = offsets[offset]
            for gep_use in user.uses:
                gep_user = gep_use.user
                if isinstance(gep_user, LoadInst) and \
                        gep_user.type == field_type:
                    continue
                if isinstance(gep_user, StoreInst) and \
                        gep_user.pointer is user and \
                        gep_user.value.type == field_type:
                    continue
                return False
            accesses.append((user, offset))
        if not accesses:
            return False

        # Create one scalar alloca per field and rewrite the accesses.
        assert alloca.parent is not None
        replacements: Dict[int, AllocaInst] = {}
        for offset, field_type in layout:
            piece = AllocaInst(field_type,
                               function.next_name(f"{alloca.name}.f{offset}"))
            alloca.parent.insert_before(alloca, piece)
            replacements[offset] = piece
        for gep, offset in accesses:
            gep.replace_all_uses_with(replacements[offset])
            gep.erase_from_parent()
        alloca.erase_from_parent()
        self.stats.aggregates_split += 1
        return True


from .registry import register_pass

register_pass(
    "sroa", ScalarReplacementOfAggregates,
    description="split aggregates into scalar allocas")
