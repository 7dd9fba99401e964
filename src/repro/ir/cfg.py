"""Control-flow graph construction and loop analysis.

Dominators come from the Cooper–Harvey–Kennedy iterative algorithm over
a reverse postorder; natural loops are identified from back edges so the
pipeliner knows which blocks form a pipelined loop body and the
scheduler can reason about loop-carried behaviour. Every traversal is
iterative, so a CFG of any size analyses without touching the recursion
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IRError
from repro.ir.function import IRFunction


@dataclass(frozen=True)
class Loop:
    """A natural loop: ``header`` plus the set of body block names."""

    header: str
    body: frozenset[str]
    back_edges: frozenset[tuple[str, str]]

    def __contains__(self, block_name: str) -> bool:
        return block_name in self.body


@dataclass
class CFG:
    """Successor/predecessor structure over an :class:`IRFunction`.

    ``succ``/``pred`` list every block's neighbours in edge insertion
    order (blocks in function order, each terminator's targets in
    order), with duplicate edges collapsed.
    """

    func: IRFunction
    succ: dict[str, list[str]] = field(default_factory=dict)
    pred: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, func: IRFunction) -> "CFG":
        cfg = cls(func=func)
        for name, block in func.blocks.items():
            cfg.succ[name] = []
            cfg.pred[name] = []
            if block.term is None:
                raise IRError(f"{func.name}/{name}: missing terminator", code="RPR-I020")
        for name, block in func.blocks.items():
            for target in dict.fromkeys(block.term.targets()):
                if target not in func.blocks:
                    raise IRError(f"{func.name}/{name}: unknown target {target!r}", code="RPR-I021")
                cfg.succ[name].append(target)
                cfg.pred[target].append(name)
        return cfg

    # ---- basic queries ---------------------------------------------------

    def successors(self, name: str) -> list[str]:
        return list(self.succ[name])

    def predecessors(self, name: str) -> list[str]:
        return list(self.pred[name])

    def reachable(self) -> set[str]:
        return set(self._postorder())

    def reverse_postorder(self) -> list[str]:
        return self._postorder()[::-1]

    def _postorder(self) -> list[str]:
        """Depth-first postorder from the entry, successors visited in
        order (an explicit stack of successor iterators)."""
        entry = self.func.entry
        order: list[str] = []
        seen = {entry}
        stack = [(entry, iter(self.succ[entry]))]
        while stack:
            node, succs = stack[-1]
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self.succ[succ])))
                    break
            else:
                stack.pop()
                order.append(node)
        return order

    # ---- dominance & loops -------------------------------------------------

    def immediate_dominators(self) -> dict[str, str]:
        """``{block: immediate dominator}`` for every reachable block except
        the entry, which has no immediate dominator and is absent (as are
        unreachable blocks)."""
        order = self.reverse_postorder()
        index = {node: i for i, node in enumerate(order)}
        idom = {order[0]: order[0]}  # the entry's self-link ends the walks

        def intersect(a: str, b: str) -> str:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for node in order[1:]:
                new = None
                for p in self.pred[node]:
                    if p in idom:  # processed and reachable
                        new = p if new is None else intersect(p, new)
                if idom.get(node) != new:
                    idom[node] = new
                    changed = True
        del idom[order[0]]
        return idom

    def dominates(self, a: str, b: str) -> bool:
        return _dominates(self.immediate_dominators(), a, b)

    def natural_loops(self) -> list[Loop]:
        """All natural loops (one per header, merged back edges)."""
        idom = self.immediate_dominators()
        by_header: dict[str, tuple[set[str], set[tuple[str, str]]]] = {}
        reachable = self.reachable()
        for tail, succs in self.succ.items():
            if tail not in reachable:
                continue
            for head in succs:
                if not _dominates(idom, head, tail):
                    continue  # not a back edge
                body = {head}
                stack = [tail]
                while stack:
                    node = stack.pop()
                    if node in body:
                        continue
                    body.add(node)
                    stack.extend(self.pred[node])
                acc = by_header.setdefault(head, (set(), set()))
                acc[0].update(body)
                acc[1].add((tail, head))
        return [
            Loop(header=h, body=frozenset(body), back_edges=frozenset(edges))
            for h, (body, edges) in sorted(by_header.items())
        ]

    def pipelined_loops(self) -> list[Loop]:
        """Loops whose header block carries the PIPELINE pragma."""
        return [
            loop
            for loop in self.natural_loops()
            if self.func.blocks[loop.header].pipeline
        ]


def _dominates(idom: dict[str, str], a: str, b: str) -> bool:
    """Whether ``a`` dominates ``b``: a walk up ``b``'s dominator chain
    (which ends at the entry, absent from ``idom``) meets ``a``."""
    node = b
    while node is not None:
        if node == a:
            return True
        node = idom.get(node)
    return False
