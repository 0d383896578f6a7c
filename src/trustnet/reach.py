"""Reach structure of a directed graph: what closing one agent cuts off.

Built once per kept-edge graph (:attr:`core.KeptEdges.reach`) so that
:func:`indirect.settle_paths` can count the agents the trustor reaches
without passing the trustee, and the advisors among them, in one call,
:meth:`Reach.count`: a walk over the graph's condensation, or a level sweep
over every edge when the trustee is a strong articulation point.

- The strongly connected components (Tarjan, 1972), found by an iterative
  depth-first search over the CSR lists.
- The condensation's arcs: component X -> component Y for each pair joined
  by at least one edge, with the sole tail of those edges (or -1 when they
  have several) and the sole head (or -1).
- The strong articulation points: the agents whose removal leaves their
  component not strongly connected (Italiano, Laura and Santaroni, TCS 447,
  2012).  In a strongly connected graph with root r, an agent other than r
  is one exactly when it is a non-trivial dominator of the flow graph from
  r or of its reverse, and r itself is decided by two sweeps of the
  component without it.  The dominators come from Cooper, Harvey and
  Kennedy's iteration (2001), over breadth-first levels, not postorder.

Closing one agent t leaves every component but its own strongly connected,
since a path between two agents of one component never leaves it; its own
component minus t stays strongly connected exactly when t is not a strong
articulation point (a component of 1 or 2 agents never splits).  An arc
survives unless all its edges leave t or all enter t.  So unless t is a
strong articulation point, the agents reached from s without passing t are
those of the components reached by a walk of the condensation from s's
component, skipping the arcs whose sole tail or sole head is t (every arc
into a component of t alone is one), t itself not counted.  When t is one,
the reach is swept from s level by level over the edges, t left out.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np


@dataclass(frozen=True, slots=True, eq=False)
class Reach:
    """The components of a directed graph over agent indices, its condensation and its cuts.

    ``component[i]`` is agent ``i``'s component and ``size[c]`` the number
    of agents in component ``c``.  Component ``c``'s arcs are positions
    ``ptr[c]:ptr[c+1]`` of ``dst`` (the other component, ascending),
    ``tail`` and ``head`` (the sole tail and sole head of the arc's edges,
    -1 when there are several).  ``cut[i]`` is 1 when agent ``i`` is a
    strong articulation point of a component of at least 3 agents.  Every
    column is an ``array('q')`` but ``cut``, a ``bytearray``.  The graph's
    own edges, in CSR order, run from ``edge_source`` to ``edge_target``,
    read-only ``intp`` arrays that only :meth:`sweep` reads.  Compared by
    identity.
    """

    component: array
    size: array
    ptr: array
    dst: array
    tail: array
    head: array
    cut: bytearray
    edge_source: np.ndarray
    edge_target: np.ndarray

    def count(self, source: int, closed: int, marked: Iterable[int]) -> tuple[int, int]:
        """The number of agents reached from ``source`` without passing ``closed``, and of
        ``marked`` agents among them.

        ``closed`` differs from ``source`` and is not among ``marked``.  One
        walk over the arcs out of the components reached, then one look per
        marked agent; when ``closed`` is a strong articulation point, the
        :meth:`sweep` instead.
        """
        component, size, ptr, dst, tail, head = (
            self.component, self.size, self.ptr, self.dst, self.tail, self.head,
        )
        if self.cut[closed]:
            return self.sweep(source, closed, marked)
        seen = bytearray(len(size))
        start = component[source]
        seen[start] = 1
        stack, reached = [start], 0
        while stack:
            c = stack.pop()
            reached += size[c]
            for k in range(ptr[c], ptr[c + 1]):
                d = dst[k]
                if seen[d] or tail[k] == closed or head[k] == closed:
                    continue
                seen[d] = 1
                stack.append(d)
        if seen[component[closed]]:
            reached -= 1
        return reached, sum([seen[component[a]] for a in marked])

    def sweep(self, source: int, closed: int, marked: Iterable[int]) -> tuple[int, int]:
        """What :meth:`count` answers, by a breadth-first sweep from ``source`` over every
        edge, one numpy step per level, that never enters ``closed``."""
        reached = _levels(
            np.array([source]), self.edge_source, self.edge_target, len(self.component), closed
        ) >= 0
        return int(np.count_nonzero(reached)), int(np.count_nonzero(reached[list(marked)]))


def build_reach(ptr: list[int], dst: list[int]) -> Reach:
    """The :class:`Reach` of the graph whose CSR lists over agent indices are ``ptr`` and ``dst``.

    The components take one pass over the lists, the edge arrays, the arcs
    and the levels numpy steps; the dominator iteration repeats until
    nothing changes, three passes over the giant component's edges on the
    generated worlds.
    """
    n = len(ptr) - 1
    tails = np.repeat(np.arange(n, dtype=np.intp), np.diff(ptr))
    heads = np.array(dst, dtype=np.intp)
    for column in (tails, heads):
        column.flags.writeable = False
    comp = np.array(_components(ptr, dst, n), dtype=np.int64)
    size = np.bincount(comp, minlength=int(comp.max(initial=-1)) + 1)

    # The condensation's arcs, grouped by (tail component, head component).
    cu, cv = comp[tails], comp[heads]
    cross = np.flatnonzero(cu != cv)
    cross = cross[np.lexsort((cv[cross], cu[cross]))]
    cu, cv = cu[cross], cv[cross]
    new = np.ones(len(cross), dtype=bool)
    new[1:] = (cu[1:] != cu[:-1]) | (cv[1:] != cv[:-1])
    starts = np.flatnonzero(new)

    def sole(ends: np.ndarray) -> np.ndarray:
        low, high = np.minimum.reduceat(ends, starts), np.maximum.reduceat(ends, starts)
        return np.where(low == high, low, -1)

    def column(values: np.ndarray) -> array:
        return array("q", np.asarray(values, dtype=np.int64).tobytes())

    return Reach(
        component=column(comp),
        size=column(size),
        ptr=column(np.searchsorted(cu[starts], np.arange(len(size) + 1))),
        dst=column(cv[starts]),
        tail=column(sole(tails[cross])),
        head=column(sole(heads[cross])),
        cut=bytearray(_cuts(comp, size, tails, heads).tobytes()),
        edge_source=tails,
        edge_target=heads,
    )


def _components(ptr: list[int], dst: list[int], n: int) -> list[int]:
    """Each agent's strongly connected component (Tarjan, 1972), iteratively.

    Components are numbered in the order they close, sinks first.
    """
    number, low, component = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    count = found = 0
    for s in range(n):
        if number[s] >= 0:
            continue
        number[s] = low[s] = count
        count += 1
        stack.append(s)
        path, at = [s], [ptr[s]]
        while path:
            v = path[-1]
            k, end = at[-1], ptr[v + 1]
            descended = False
            while k < end:
                w = dst[k]
                k += 1
                if number[w] < 0:
                    at[-1] = k
                    number[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    path.append(w)
                    at.append(ptr[w])
                    descended = True
                    break
                if component[w] < 0 and number[w] < low[v]:
                    low[v] = number[w]
            if descended:
                continue
            path.pop()
            at.pop()
            if low[v] == number[v]:
                while True:
                    w = stack.pop()
                    component[w] = found
                    if w == v:
                        break
                found += 1
            if path:
                u = path[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
    return component


def _cuts(comp: np.ndarray, size: np.ndarray, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Whether each agent is a strong articulation point of a component of at least 3 agents.

    Every such component is rooted at its first agent.  Another agent is a
    cut exactly when it immediately dominates some agent of the component,
    from the root over the edges or over them reversed; the root is one
    when the component less the root is not reached from its second agent
    both ways.  All components are done at once: their inside edges never
    meet.
    """
    n = len(comp)
    cut = np.zeros(n, dtype=bool)
    big = size[comp] >= 3
    members = np.flatnonzero(big)
    if not len(members):
        return cut
    members = members[np.argsort(comp[members], kind="stable")]
    first = np.flatnonzero(np.diff(comp[members], prepend=-1))
    roots, others = members[first], members[first + 1]
    inside = (comp[tails] == comp[heads]) & big[tails]
    src, dst = tails[inside], heads[inside]
    for out, into in ((src, dst), (dst, src)):
        cut[_dominators(roots, members, out, into, n)] = True
        # The root: every other agent of its component must stay reachable.
        level = _levels(others, out, into, n, roots)
        left = np.bincount(comp[level >= 0], minlength=len(size))
        cut[roots[left[comp[roots]] < size[comp[roots]] - 1]] = True
    return cut


def _levels(
    seeds: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
    closed: Union[int, np.ndarray, None] = None,
) -> np.ndarray:
    """Each agent's breadth-first level from ``seeds`` over the edges ``src -> dst``, never
    entering ``closed`` (an agent index, an array of them, or none): -1 for an agent not
    reached, -2 for a closed one."""
    level = np.full(n, -1, dtype=np.int64)
    if closed is not None:
        level[closed] = -2
    level[seeds] = 0
    front = np.zeros(n, dtype=bool)
    frontier, depth = seeds, 0
    while len(frontier):
        front[frontier] = True
        ends = dst[front[src]]
        front[frontier] = False
        frontier = ends[level[ends] == -1]
        depth += 1
        level[frontier] = depth
    return level


def _dominators(
    roots: np.ndarray, members: np.ndarray, src: np.ndarray, dst: np.ndarray, n: int
) -> np.ndarray:
    """The agents, roots aside, that immediately dominate another in the flow graphs from
    ``roots`` over ``src -> dst`` (Cooper, Harvey and Kennedy, 2001).

    ``members`` are the agents of the roots' components, each strongly
    connected.  The agents are numbered by breadth-first level, the roots
    first: a dominator lies on every path, the shortest included, so it is
    numbered before the agents it dominates, and walking up the dominator
    tree lowers the number as the method needs.
    """
    order = members[np.argsort(_levels(roots, src, dst, n)[members], kind="stable")]
    m, r = len(order), len(roots)
    number = np.empty(n, dtype=np.int64)
    number[order] = np.arange(m)
    head = number[dst]
    by_head = np.argsort(head, kind="stable")
    start = np.searchsorted(head[by_head], np.arange(m + 1)).tolist()
    preds = number[src][by_head].tolist()
    idom = list(range(r)) + [-1] * (m - r)
    changed = True
    while changed:
        changed = False
        for b in range(r, m):
            new = -1
            for p in preds[start[b] : start[b + 1]]:
                if idom[p] < 0:
                    continue
                if new < 0:
                    new = p
                    continue
                while p != new:
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
            if idom[b] != new:
                idom[b] = new
                changed = True
    dominates = np.zeros(m, dtype=bool)
    dominates[idom[r:]] = True
    return order[r:][dominates[r:]]
