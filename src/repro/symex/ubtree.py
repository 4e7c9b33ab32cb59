"""A UBTree (set-trie) index over constraint sets.

KLEE's counterexample cache answers a query from previous results via two
set-containment lookups: a cached **UNSAT** constraint set that is a *subset*
of the query proves the query unsatisfiable, and a cached **SAT** set that is
a *superset* of the query provides a model outright (every constraint of the
query is satisfied by it).  In between, models of cached *subsets* of the
query are cheap candidate assignments: they satisfy part of the query by
construction and frequently extend to all of it.

The index that makes those lookups sublinear is the UBTree of Hoffmann &
Koehler (IJCAI'99): sets are stored as sorted element sequences along trie
paths, so subset search only descends edges labelled with query elements and
superset search may additionally skip over non-query elements.

Elements here are hash-consed :class:`~repro.symex.expr.Expr` constraints.
Each tree assigns dense integer ids to elements on first insertion, giving a
stable, deterministic path order that is independent of the caller's
iteration order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .expr import Expr


class _Node:
    """One trie node: children keyed by element id, plus the payload of the
    set ending here (``value`` is meaningful only when ``terminal``)."""

    __slots__ = ("children", "terminal", "value")

    def __init__(self) -> None:
        self.children: Dict[int, "_Node"] = {}
        self.terminal = False
        self.value: object = None


class UBTree:
    """A set-trie mapping frozen constraint sets to payloads.

    Supports exact insertion plus the two containment lookups the
    counterexample cache needs: :meth:`find_subset` (a stored set contained
    in the query) and :meth:`find_superset` (a stored set containing the
    query).  :meth:`iter_subsets` enumerates every stored subset for
    candidate-model trials.
    """

    def __init__(self) -> None:
        self._root = _Node()
        self._element_ids: Dict[Expr, int] = {}
        self._size = 0

    def __len__(self) -> int:
        """Number of stored sets."""
        return self._size

    # ------------------------------------------------------------- helpers
    def _ids_for_insert(self, elements: Iterable[Expr]) -> List[int]:
        ids = self._element_ids
        result = set()
        for element in elements:
            element_id = ids.get(element)
            if element_id is None:
                element_id = len(ids)
                ids[element] = element_id
            result.add(element_id)
        return sorted(result)

    def _ids_for_lookup(self, elements: Iterable[Expr]
                        ) -> Optional[List[int]]:
        """Sorted ids of the query elements, or None when an element has
        never been inserted (no stored superset can exist then)."""
        ids = self._element_ids
        result = set()
        for element in elements:
            element_id = ids.get(element)
            if element_id is None:
                return None
            result.add(element_id)
        return sorted(result)

    def _known_ids(self, elements: Iterable[Expr]) -> List[int]:
        """Sorted ids of the query elements the tree has seen (unknown
        elements cannot occur in any stored set, so subset search may
        simply drop them)."""
        ids = self._element_ids
        return sorted({ids[element] for element in elements
                       if element in ids})

    # ------------------------------------------------------------- mutation
    def insert(self, elements: Iterable[Expr], value: object = True) -> None:
        """Store ``elements`` as one set with ``value`` as its payload.

        Re-inserting an existing set replaces its payload.
        """
        node = self._root
        for element_id in self._ids_for_insert(elements):
            child = node.children.get(element_id)
            if child is None:
                child = _Node()
                node.children[element_id] = child
            node = child
        if not node.terminal:
            self._size += 1
        node.terminal = True
        node.value = value

    # -------------------------------------------------------------- lookup
    def contains(self, elements: Iterable[Expr]) -> bool:
        """Exact membership."""
        ids = self._ids_for_lookup(elements)
        if ids is None:
            return False
        node = self._root
        for element_id in ids:
            node = node.children.get(element_id)
            if node is None:
                return False
        return node.terminal

    def find_subset(self, elements: Iterable[Expr]) -> Optional[object]:
        """The payload of some stored set that is a **subset** of the query,
        or None.  (The empty stored set qualifies for every query.)"""
        query = self._known_ids(elements)

        def search(node: _Node, start: int) -> Optional[_Node]:
            if node.terminal:
                return node
            # Only edges labelled with query elements can stay a subset.
            for index in range(start, len(query)):
                child = node.children.get(query[index])
                if child is not None:
                    found = search(child, index + 1)
                    if found is not None:
                        return found
            return None

        found = search(self._root, 0)
        return None if found is None else found.value

    def find_superset(self, elements: Iterable[Expr]) -> Optional[object]:
        """The payload of some stored set that is a **superset** of the
        query, or None."""
        query = self._ids_for_lookup(elements)
        if query is None:
            return None

        def any_terminal(node: _Node) -> Optional[_Node]:
            if node.terminal:
                return node
            for child in node.children.values():
                found = any_terminal(child)
                if found is not None:
                    return found
            return None

        def search(node: _Node, index: int) -> Optional[_Node]:
            if index == len(query):
                # Every query element is matched; any stored set below
                # here contains them all.
                return any_terminal(node)
            needed = query[index]
            # Ids along a path are strictly increasing, so children labelled
            # above the next needed element can never match it.
            for element_id, child in node.children.items():
                if element_id > needed:
                    continue
                found = search(child, index + 1 if element_id == needed
                               else index)
                if found is not None:
                    return found
            return None

        found = search(self._root, 0)
        return None if found is None else found.value

    def items(self) -> Iterator[Tuple[Tuple[Expr, ...], object]]:
        """Every stored set with its payload, in id-lexicographic trie
        order: ``(elements, value)`` pairs, elements sorted by this tree's
        internal ids.  This is the persistence layer's export path — the
        pairs round-trip through :meth:`insert` on another tree (ids are
        tree-local, so only the element *sets* transfer, which is exactly
        the part containment lookups depend on)."""
        by_id = {element_id: element
                 for element, element_id in self._element_ids.items()}
        path: List[int] = []

        def walk(node: _Node) -> Iterator[Tuple[Tuple[Expr, ...], object]]:
            if node.terminal:
                yield tuple(by_id[eid] for eid in path), node.value
            for element_id in sorted(node.children):
                path.append(element_id)
                yield from walk(node.children[element_id])
                path.pop()

        yield from walk(self._root)

    def iter_subsets(self, elements: Iterable[Expr]) -> Iterator[object]:
        """Payloads of every stored subset of the query, largest-first is
        *not* guaranteed — iteration follows trie order."""
        query = self._known_ids(elements)

        def search(node: _Node, start: int) -> Iterator[object]:
            if node.terminal:
                yield node.value
            for index in range(start, len(query)):
                child = node.children.get(query[index])
                if child is not None:
                    yield from search(child, index + 1)

        yield from search(self._root, 0)


__all__ = ["UBTree"]
