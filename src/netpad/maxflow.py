"""Maximum flow by Dinic's algorithm (1970) in exact integers: the one
max-flow routine of `secure_check` (heaviest channel closures) and
`multipath` (node-disjoint paths and Menger separators)."""


class FlowNetwork:
    """Nodes 0..n_nodes-1 and fixed *arcs*, a list of (tail, head), parallel
    and opposite arcs allowed.  Each run sets the capacities and starts
    from zero flow, so one network serves many capacity lists."""

    def __init__(self, n_nodes: int, arcs):
        self.to = [w for u, v in arcs for w in (v, u)]  # arc k is 2k, its residual twin 2k + 1
        self.out = [[] for _ in range(n_nodes)]
        for i in range(len(self.to)):
            self.out[self.to[i ^ 1]].append(i)

    def max_flow(self, capacities, s: int, t: int):
        """Maximum s-t flow with capacities[k] >= 0 (an int) on arc k.

        Returns (value, flow, reached): flow[k] is the flow on arc k and
        reached[v] says whether the last BFS reached v in the residual graph.
        The reached nodes are the source side of the minimum s-t cut closest
        to s, which is the same for every maximum flow.
        """
        head, to, n_nodes = self.out, self.to, len(self.out)
        cap = [0] * len(to)
        cap[::2] = capacities
        value = 0
        while True:
            level = [-1] * n_nodes
            level[s], queue = 0, [s]
            for u in queue:
                for i in head[u]:
                    if cap[i] and level[to[i]] < 0:
                        level[to[i]] = level[u] + 1
                        queue.append(to[i])
            if level[t] < 0:  # a twin's capacity is its arc's flow
                return value, cap[1::2], [lv >= 0 for lv in level]
            # Blocking flow: advance along the levels, retreat from dead ends.
            nxt, path, u = [0] * n_nodes, [], s
            while True:
                if u == t:
                    push = min(cap[i] for i in path)
                    for i in path:
                        cap[i] -= push
                        cap[i ^ 1] += push
                    value, path, u = value + push, [], s
                out = head[u]
                while nxt[u] < len(out):
                    i = out[nxt[u]]
                    if cap[i] and level[to[i]] == level[u] + 1:
                        path.append(i)
                        u = to[i]
                        break
                    nxt[u] += 1
                else:  # no admissible arc left at u
                    if u == s:
                        break
                    u = to[path.pop() ^ 1]
                    nxt[u] += 1
