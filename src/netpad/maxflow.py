"""Maximum flow by Dinic's algorithm (1970) in exact integers: the one
max-flow routine of `secure_check` (heaviest channel closures) and
`multipath` (node-disjoint paths and Menger separators)."""


def max_flow(n_nodes: int, arcs, s: int, t: int):
    """Maximum s-t flow over nodes 0..n_nodes-1 and *arcs*, a list of
    (u, v, capacity) with integer capacities >= 0; parallel and opposite
    arcs are allowed.

    Returns (value, flow, reached): flow[k] is the flow on arcs[k] and
    reached[v] says whether the last BFS reached v in the residual graph.
    The reached nodes are the source side of the minimum s-t cut closest
    to s, which is the same for every maximum flow.
    """
    head = [[] for _ in range(n_nodes)]
    to, cap = [], []
    for u, v, c in arcs:  # arc 2k and its residual twin 2k + 1
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to.extend((v, u))
        cap.extend((c, 0))
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
