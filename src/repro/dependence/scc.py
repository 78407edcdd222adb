"""Tarjan's strongly connected components, iterative formulation.

The paper identifies dependence cycles with Tarjan's algorithm [36]; we do
the same.  The iterative version avoids Python's recursion limit on the
larger generated loops.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence


def tarjan_sccs(
    nodes: Iterable[int],
    successors: Callable[[int], Iterable[int]],
) -> list[list[int]]:
    """Strongly connected components in reverse topological order.

    Each returned component lists node ids in discovery order.  Components
    appear callees-first: every edge leaving a component points to a
    component that occurs *earlier* in the returned list.
    """
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # Explicit DFS stack: (node, iterator over successors).
        work: list[tuple[int, object]] = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)

        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:  # type: ignore[union-attr]
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                component.reverse()
                sccs.append(component)

    return sccs


def scc_membership(sccs: Sequence[Sequence[int]]) -> dict[int, int]:
    member: dict[int, int] = {}
    for i, comp in enumerate(sccs):
        for node in comp:
            member[node] = i
    return member
