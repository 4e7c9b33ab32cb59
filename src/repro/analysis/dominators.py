"""Dominator tree and dominance frontiers.

Implements the Cooper/Harvey/Kennedy "A Simple, Fast Dominance Algorithm",
which is what production compilers use for CFGs of this size.  The dominator
tree drives mem2reg (phi placement via dominance frontiers), loop detection,
and several verification-oriented passes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir import BasicBlock, Function
from .cfg import CFG, predecessor_map, reverse_postorder


class DominatorTree:
    """Immediate-dominator tree for the reachable part of a function.

    Pass a prebuilt :class:`~repro.analysis.cfg.CFG` to reuse its traversal
    order and predecessor map instead of recomputing them.
    """

    def __init__(self, function: Function,
                 cfg: Optional[CFG] = None) -> None:
        self.function = function
        if cfg is not None:
            self.rpo = list(cfg.reverse_postorder)
            self._preds = cfg.preds
        else:
            self.rpo = reverse_postorder(function)
            self._preds = predecessor_map(function)
        self._rpo_index: Dict[BasicBlock, int] = {
            block: i for i, block in enumerate(self.rpo)}
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self.children: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in self.rpo}
        self._compute()

    # ----------------------------------------------------------- computation
    def _compute(self) -> None:
        if not self.rpo:
            return
        entry = self.rpo[0]
        preds = self._preds
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {
            block: None for block in self.rpo}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in self.rpo[1:]:
                new_idom: Optional[BasicBlock] = None
                for pred in preds.get(block, []):
                    if pred not in self._rpo_index:
                        continue  # unreachable predecessor
                    if idom[pred] is None:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(pred, new_idom, idom)
                if new_idom is not None and idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True
        self.idom = {block: (None if block is entry else idom[block])
                     for block in self.rpo}
        for block, dom in self.idom.items():
            if dom is not None:
                self.children[dom].append(block)

    def _intersect(self, a: BasicBlock, b: BasicBlock,
                   idom: Dict[BasicBlock, Optional[BasicBlock]]) -> BasicBlock:
        while a is not b:
            while self._rpo_index[a] > self._rpo_index[b]:
                assert idom[a] is not None
                a = idom[a]  # type: ignore[assignment]
            while self._rpo_index[b] > self._rpo_index[a]:
                assert idom[b] is not None
                b = idom[b]  # type: ignore[assignment]
        return a

    # ------------------------------------------------------------- queries
    @property
    def entry(self) -> BasicBlock:
        return self.rpo[0]

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self.idom.get(block)

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (every block dominates itself)."""
        if a is b:
            return True
        runner: Optional[BasicBlock] = self.idom.get(b)
        while runner is not None:
            if runner is a:
                return True
            runner = self.idom.get(runner)
        return False

    def dominance_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """The dominance frontier of every reachable block."""
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {
            block: set() for block in self.rpo}
        preds = self._preds
        for block in self.rpo:
            block_preds = [p for p in preds.get(block, [])
                           if p in self._rpo_index]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom[block]:
                    frontier[runner].add(block)
                    runner = self.idom[runner]
        return frontier
