"""Plain digraph helpers over adjacency dicts ``{node: {successor:
label}}``, in which every node is a key (also those without
successors) and insertion order is iteration order."""

from types import MappingProxyType


def add_edge(adj, src, dst, label=None):
    """Add ``src -> dst`` (and both nodes) unless present; an existing
    edge keeps its label."""
    adj.setdefault(src, {}).setdefault(dst, label)
    adj.setdefault(dst, {})


def reachable(adj, starts):
    """The nodes reachable from `starts` in one or more steps: a start
    node is included only when some path leads (back) to it."""
    seen = set()
    stack = [succ for start in starts for succ in adj.get(start, ())]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(adj.get(node, ()))
    return seen


def reverse(adj):
    """The same graph with every edge turned around (labels kept)."""
    turned = {node: {} for node in adj}
    for node, succs in adj.items():
        for succ, label in succs.items():
            turned.setdefault(succ, {})[node] = label
    return turned


def read_only(adj):
    """`adj` as a read-only mapping of read-only successor maps (both
    ``MappingProxyType``), in the same order."""
    return MappingProxyType(
        {node: MappingProxyType(succs) for node, succs in adj.items()}
    )


def subgraph(adj, nodes):
    """The graph induced by `nodes` (those missing from `adj` ignored)."""
    return {node: {succ: label for succ, label in succs.items() if succ in nodes}
            for node, succs in adj.items() if node in nodes}


def components_bottom_up(adj):
    """Strongly connected components (sets), each after every component
    it reaches.

    Components are numbered in the discovery order of the non-recursive
    Tarjan search with Nuutila's modification; the condensation is sorted
    generation by generation, then reversed: exactly the order of the
    tests' reference graph library.  Stratification merges *consecutive*
    components, so another valid order could change its strata.
    """
    preorder, lowlink, found, done, pending = {}, {}, [], set(), []
    successors = {node: iter(adj[node]) for node in adj}
    for source in adj:
        queue = [] if source in done else [source]
        while queue:
            v = queue[-1]
            if v not in preorder:
                preorder[v] = len(preorder) + 1
            for w in successors[v]:
                if w not in preorder:
                    queue.append(w)
                    break
            else:
                queue.pop()
                lowlink[v] = min([preorder[v]] + [
                    lowlink[w] if preorder[w] > preorder[v] else preorder[w]
                    for w in adj[v] if w not in done])
                if lowlink[v] != preorder[v]:
                    pending.append(v)
                    continue
                component = {v}
                while pending and preorder[pending[-1]] > preorder[v]:
                    component.add(pending.pop())
                done.update(component)
                found.append(component)
    index = {node: i for i, component in enumerate(found) for node in component}
    targets = [{} for _ in found]
    indegree = [0] * len(found)
    for node, succs in adj.items():
        for succ in succs:
            a, b = index[node], index[succ]
            if a != b and b not in targets[a]:
                targets[a][b] = None
                indegree[b] += 1
    order = []
    generation = [i for i, degree in enumerate(indegree) if degree == 0]
    while generation:
        order.extend(generation)
        following = []
        for i in generation:
            for j in targets[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    following.append(j)
        generation = following
    return [found[i] for i in reversed(order)]
