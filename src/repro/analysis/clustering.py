"""Task clustering for HW/SW partitioning — the paper's stated future work.

"Most importantly, some relevant kernels are clustered together in a sense
that the intra-cluster communication is maximized whereas the inter-cluster
communication is minimized" (§V-B) and "in future work, we are planning to
utilize the information provided by the tool for task clustering" (§VI).

This module implements that step for the Delft WorkBench flow: greedy
agglomerative clustering over the QUAD QDU graph, optionally weighted by
tQUAD phase co-activity (kernels that are never active together gain nothing
from sharing a reconfigurable region).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.kernel_phases import KernelPhaseAnalysis
from ..quad.report import QuadReport


@dataclass
class Cluster:
    members: frozenset[str]
    internal_bytes: int          #: communication kept inside the cluster

    def __contains__(self, name: str) -> bool:
        return name in self.members


@dataclass
class ClusteringResult:
    clusters: list[Cluster]
    cut_bytes: int               #: communication crossing cluster borders
    total_bytes: int

    @property
    def intra_fraction(self) -> float:
        """Fraction of all inter-kernel traffic kept inside clusters."""
        if self.total_bytes == 0:
            return 1.0
        return 1.0 - self.cut_bytes / self.total_bytes

    def cluster_of(self, name: str) -> Cluster | None:
        for c in self.clusters:
            if name in c:
                return c
        return None


def _communication_graph(quad: QuadReport, *,
                         include_stack: bool,
                         phases: KernelPhaseAnalysis | None
                         ) -> tuple[dict[str, None],
                                    dict[frozenset[str], int]]:
    """Undirected communication graph as ``(nodes, weights)``.

    ``nodes`` is an insertion-ordered set: each endpoint in the order its
    first edge appears, producer before consumer.  ``weights`` maps each
    unordered kernel pair to its summed bytes, both directions folded.
    """
    nodes: dict[str, None] = {}
    weights: dict[frozenset[str], int] = {}
    idx = 0 if include_stack else 1
    for (producer, consumer), counts in quad.bindings.items():
        if producer == consumer:
            continue
        w = counts[idx]
        if w <= 0:
            continue
        if phases is not None:
            pa = phases.phase_of_kernel(producer)
            pb = phases.phase_of_kernel(consumer)
            if pa is not None and pb is not None and pa is not pb:
                # communication across phases cannot be overlapped in one
                # reconfigurable region; halve its clustering pull
                w = w // 2
        nodes.setdefault(producer)
        nodes.setdefault(consumer)
        pair = frozenset((producer, consumer))
        weights[pair] = weights.get(pair, 0) + w
    return nodes, weights


def cluster_kernels(quad: QuadReport, *, n_clusters: int = 4,
                    include_stack: bool = False,
                    phases: KernelPhaseAnalysis | None = None,
                    main_image_only: bool = True) -> ClusteringResult:
    """Greedy agglomerative clustering: repeatedly merge the pair of
    clusters joined by the heaviest communication edge."""
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    nodes, weights = _communication_graph(quad, include_stack=include_stack,
                                          phases=phases)
    for name in quad.kernel_names(main_image_only=main_image_only):
        nodes.setdefault(name)
    if main_image_only:
        nodes = {n: None for n in nodes
                 if quad.images.get(n, "main") == "main"}
        weights = {pair: w for pair, w in weights.items()
                   if pair <= nodes.keys()}
    # Heaviest edge first.  Equal weights go in adjacency order: grouped
    # under whichever endpoint entered the graph first, first-added first
    # within a group (the sort is stable).
    pos = {n: i for i, n in enumerate(nodes)}
    edges = sorted(weights.items(),
                   key=lambda e: (-e[1], min(map(pos.get, e[0]))))
    total = sum(weights.values())
    # union-find over kernels
    parent = {n: n for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_groups = len(nodes)
    for (u, v), _w in edges:
        if n_groups <= n_clusters:
            break
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            n_groups -= 1
    groups: dict[str, set[str]] = {}
    for n in nodes:
        groups.setdefault(find(n), set()).add(n)
    clusters = []
    cut = 0
    for members in groups.values():
        internal = sum(w for pair, w in edges if pair <= members)
        clusters.append(Cluster(members=frozenset(members),
                                internal_bytes=internal))
    for (u, v), w in edges:
        if find(u) != find(v):
            cut += w
    clusters.sort(key=lambda c: c.internal_bytes, reverse=True)
    return ClusteringResult(clusters=clusters, cut_bytes=cut,
                            total_bytes=total)
