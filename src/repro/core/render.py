"""Human-readable renderings of function graphs and service graphs.

The paper communicates compositions as box-and-arrow diagrams (Figs.
2, 4–7); these helpers produce the terminal equivalent so examples and
experiment logs can show *what* was composed, not just scores:

>>> fg = FunctionGraph.linear(["downscale", "ticker"])
>>> print(render_function_graph(fg))
[downscale] ──▶ [ticker]
"""

from __future__ import annotations

from typing import Optional

from ..topology.overlay import Overlay
from .function_graph import FunctionGraph
from .service_graph import ServiceGraph

__all__ = ["render_function_graph", "render_service_graph", "describe_composition"]

_ARROW = " ──▶ "


def render_function_graph(graph: FunctionGraph) -> str:
    """Render a function graph, one branch per line; commutations marked.

    Linear graphs render as a single chain.  DAGs render each source→sink
    branch on its own line (shared prefixes repeat — branch paths are how
    the paper decomposes service graphs, §2.2).  A ``~`` joins functions
    whose order is exchangeable.
    """
    commuting = {tuple(sorted(pair)) for pair in graph.commutations}

    def fmt(fn: str, nxt: Optional[str]) -> str:
        if nxt is not None and tuple(sorted((fn, nxt))) in commuting:
            return f"[{fn}] ~"
        return f"[{fn}]"

    lines = []
    for branch in graph.branches():
        parts = []
        for i, fn in enumerate(branch):
            nxt = branch[i + 1] if i + 1 < len(branch) else None
            parts.append(fmt(fn, nxt))
        lines.append(_ARROW.join(parts).replace("] ~" + _ARROW, "] ~▶ "))
    return "\n".join(lines)


def render_service_graph(graph: ServiceGraph) -> str:
    """Render an instantiated composition with hosts, one branch per line.

    ``(src)`` and ``(dst)`` bracket each branch; every mapped component
    shows ``function@peer``.
    """
    lines = []
    for branch in graph.pattern.branches():
        parts = [f"(v{graph.source_peer})"]
        for fn in branch:
            meta = graph.component(fn)
            parts.append(f"[{fn} s{meta.component_id}@v{meta.peer}]")
        parts.append(f"(v{graph.dest_peer})")
        lines.append(_ARROW.join(parts))
    return "\n".join(lines)


def describe_composition(
    graph: ServiceGraph, overlay: Optional[Overlay] = None
) -> str:
    """A multi-line summary: rendering + per-branch QoS + link table."""
    lines = [render_service_graph(graph)]
    if overlay is not None:
        for branch in graph.pattern.branches():
            q = graph.branch_qos(overlay, branch)
            lines.append(
                f"  branch {'→'.join(branch)}: "
                f"delay {q.get('delay')*1000:.1f} ms, loss(add) {q.get('loss'):.4f}"
            )
        e2e = graph.end_to_end_qos(overlay)
        lines.append(
            f"  end-to-end (worst branch): delay {e2e.get('delay')*1000:.1f} ms"
        )
    lines.append("  service links:")
    for link in graph.service_links():
        frm = link.from_fn or "sender"
        to = link.to_fn or "receiver"
        lines.append(
            f"    {frm} (v{link.src_peer}) → {to} (v{link.dst_peer}): "
            f"{link.bandwidth:.2f} Mbps"
        )
    return "\n".join(lines)
