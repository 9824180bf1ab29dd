"""Function graphs: the abstract half of the composition problem (§2.1).

A composite service request names required service *functions* connected
by **dependency links** (output of one feeds the next) and **commutation
links** (the composition order of two adjacent functions may be
exchanged — e.g. colour filter ↔ image scaling).  Resolving each
commutation link to a concrete order yields a **composition pattern**;
the set of patterns is one dimension of the paper's two-dimensional
mapping problem (Fig. 4).

The graph must be a DAG.  A commutation pair must be *chain-adjacent*
(edge a→b where b is a's only successor and a is b's only predecessor),
which is the only configuration where "exchange the order" is
well-defined — and matches every example in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["FunctionGraph", "FunctionGraphError", "CommutationPair"]

MAX_PATTERNS = 8  # commutation patterns a composer expands per request

CommutationPair = FrozenSet[str]


class FunctionGraphError(ValueError):
    """Raised for malformed function graphs."""


@dataclass(frozen=True)
class FunctionGraph:
    """An immutable DAG of function names with commutation annotations."""

    functions: Tuple[str, ...]
    edges: FrozenSet[Tuple[str, str]]
    commutations: FrozenSet[CommutationPair] = frozenset()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def linear(
        cls, functions: Sequence[str], commutations: Iterable[Tuple[str, str]] = ()
    ) -> "FunctionGraph":
        """A chain F1 → F2 → ... → Fk."""
        edges = {(a, b) for a, b in zip(functions, functions[1:])}
        return cls.from_edges(functions, edges, commutations)

    @classmethod
    def from_edges(
        cls,
        functions: Sequence[str],
        edges: Iterable[Tuple[str, str]],
        commutations: Iterable[Tuple[str, str]] = (),
    ) -> "FunctionGraph":
        fg = cls(
            functions=tuple(functions),
            edges=frozenset((a, b) for a, b in edges),
            commutations=frozenset(frozenset(p) for p in commutations),
        )
        fg.validate()
        return fg

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    # adjacency is queried on every probe hop; the graph is immutable, so
    # the maps are computed lazily once per instance (cached_property
    # writes straight to __dict__, which frozen dataclasses permit)
    @cached_property
    def _succ_map(self) -> Dict[str, Tuple[str, ...]]:
        out: Dict[str, List[str]] = {f: [] for f in self.functions}
        for a, b in self.edges:
            out[a].append(b)
        return {f: tuple(sorted(v)) for f, v in out.items()}

    @cached_property
    def _pred_map(self) -> Dict[str, Tuple[str, ...]]:
        out: Dict[str, List[str]] = {f: [] for f in self.functions}
        for a, b in self.edges:
            out[b].append(a)
        return {f: tuple(sorted(v)) for f, v in out.items()}

    def successors(self, f: str) -> Tuple[str, ...]:
        return self._succ_map.get(f, ())

    def predecessors(self, f: str) -> Tuple[str, ...]:
        return self._pred_map.get(f, ())

    @cached_property
    def _sources(self) -> Tuple[str, ...]:
        has_pred = {b for _, b in self.edges}
        return tuple(f for f in self.functions if f not in has_pred)

    @cached_property
    def _sinks(self) -> Tuple[str, ...]:
        has_succ = {a for a, _ in self.edges}
        return tuple(f for f in self.functions if f not in has_succ)

    def sources(self) -> Tuple[str, ...]:
        return self._sources

    def sinks(self) -> Tuple[str, ...]:
        return self._sinks

    def is_linear(self) -> bool:
        return all(
            len(self.successors(f)) <= 1 and len(self.predecessors(f)) <= 1
            for f in self.functions
        )

    def topological_order(self) -> List[str]:
        return list(self._topological_order)

    @cached_property
    def _topological_order(self) -> Tuple[str, ...]:
        indeg: Dict[str, int] = {f: 0 for f in self.functions}
        for _, b in self.edges:
            indeg[b] += 1
        ready = sorted(f for f, d in indeg.items() if d == 0)
        order: List[str] = []
        while ready:
            f = ready.pop(0)
            order.append(f)
            for s in self.successors(f):
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
            ready.sort()
        if len(order) != len(self.functions):
            raise FunctionGraphError("function graph contains a cycle")
        return tuple(order)

    def validate(self) -> None:
        fnset = set(self.functions)
        if len(fnset) != len(self.functions):
            raise FunctionGraphError("duplicate function names")
        if not self.functions:
            raise FunctionGraphError("empty function graph")
        for a, b in self.edges:
            if a not in fnset or b not in fnset:
                raise FunctionGraphError(f"edge ({a},{b}) references unknown function")
            if a == b:
                raise FunctionGraphError(f"self-loop on {a}")
        self.topological_order()  # raises on cycle
        if len(self.functions) > 1:
            # weak connectivity: every function participates in some edge
            touched = {x for e in self.edges for x in e}
            isolated = fnset - touched
            if isolated:
                raise FunctionGraphError(f"isolated functions: {sorted(isolated)}")
        for pair in self.commutations:
            if len(pair) != 2:
                raise FunctionGraphError(f"commutation pair must have 2 functions: {pair}")
            a, b = sorted(pair)
            if a not in fnset or b not in fnset:
                raise FunctionGraphError(f"commutation references unknown function: {pair}")
            if not (self._chain_adjacent(a, b) or self._chain_adjacent(b, a)):
                raise FunctionGraphError(
                    f"commutation pair {sorted(pair)} is not chain-adjacent"
                )

    def _chain_adjacent(self, a: str, b: str) -> bool:
        """True iff edge a→b exists, b is a's only successor and a b's only pred."""
        return (
            (a, b) in self.edges
            and self.successors(a) == (b,)
            and self.predecessors(b) == (a,)
        )

    # ------------------------------------------------------------------
    # commutation
    # ------------------------------------------------------------------
    def commutation_partner(self, f: str) -> Optional[str]:
        for pair in self.commutations:
            if f in pair:
                (other,) = pair - {f}
                return other
        return None

    def ordered_pair(self, pair: CommutationPair) -> Optional[Tuple[str, str]]:
        """The (upstream, downstream) order of a commutation pair, if adjacent."""
        a, b = sorted(pair)
        if self._chain_adjacent(a, b):
            return (a, b)
        if self._chain_adjacent(b, a):
            return (b, a)
        return None

    def swap(self, first: str, second: str) -> "FunctionGraph":
        """Exchange the order of chain-adjacent ``first → second``.

        ``... → P → first → second → S → ...`` becomes
        ``... → P → second → first → S → ...``; the commutation link is
        preserved (the pair could in principle be swapped back).
        """
        if not self._chain_adjacent(first, second):
            raise FunctionGraphError(
                f"cannot swap {first}->{second}: not chain-adjacent"
            )
        new_edges: Set[Tuple[str, str]] = set()
        for a, b in self.edges:
            if (a, b) == (first, second):
                new_edges.add((second, first))
            elif b == first:  # P -> first  becomes  P -> second
                new_edges.add((a, second))
            elif a == second:  # second -> S  becomes  first -> S
                new_edges.add((first, b))
            else:
                new_edges.add((a, b))
        fg = FunctionGraph(
            functions=self.functions,
            edges=frozenset(new_edges),
            commutations=self.commutations,
        )
        fg.validate()
        return fg

    def composition_patterns(
        self, max_patterns: int = MAX_PATTERNS
    ) -> List[Tuple[FrozenSet[CommutationPair], "FunctionGraph"]]:
        """The concrete orders derivable by applying commutation subsets,
        at most ``max_patterns`` of them.

        Returns ``[(applied_pairs, pattern_graph), ...]`` starting with the
        original order (empty set).  Non-adjacent results of earlier swaps
        are skipped (cannot occur for disjoint pairs, which validation
        enforces de facto since pairs are chain-adjacent and share no
        functions with other pairs in well-formed graphs).
        """
        patterns: List[Tuple[FrozenSet[CommutationPair], FunctionGraph]] = [
            (frozenset(), self)
        ]
        if max_patterns < 1:
            raise FunctionGraphError(f"max_patterns must be >= 1, got {max_patterns}")
        seen: Set[FrozenSet[Tuple[str, str]]] = {self.edges}
        frontier = [(frozenset(), self)]
        while frontier:
            applied, graph = frontier.pop(0)
            for pair in self.commutations:
                if len(patterns) >= max_patterns:
                    return patterns
                if pair in applied:
                    continue
                ordered = graph.ordered_pair(pair)
                if ordered is None:
                    continue
                swapped = graph.swap(*ordered)
                if swapped.edges in seen:
                    continue
                seen.add(swapped.edges)
                entry = (applied | {pair}, swapped)
                patterns.append(entry)
                frontier.append(entry)
        return patterns

    # ------------------------------------------------------------------
    # branches
    # ------------------------------------------------------------------
    def branches(self) -> List[Tuple[str, ...]]:
        """All source→sink function paths ("branch paths", §2.2).

        A linear graph has exactly one branch; Fig. 2's example has two
        (s1→s9→s13 and s1→s7→s13 at the service level).
        """
        return list(self._branches)

    @cached_property
    def _branches(self) -> Tuple[Tuple[str, ...], ...]:
        # an explicit stack, not a recursive closure: a closure that calls
        # itself is a reference cycle through ``self``, which would leave
        # every graph to the cycle collector
        out: List[Tuple[str, ...]] = []
        stack: List[List[str]] = []
        for src in self.sources():
            stack.append([src])
        while stack:
            path = stack.pop()
            succ = self.successors(path[-1])
            if not succ:
                out.append(tuple(path))
            for s in succ:
                stack.append(path + [s])
        return tuple(sorted(out))

    def __len__(self) -> int:
        return len(self.functions)

    def __repr__(self) -> str:
        edges = ", ".join(f"{a}->{b}" for a, b in sorted(self.edges))
        extra = ""
        if self.commutations:
            pairs = ", ".join("~".join(sorted(p)) for p in sorted(self.commutations, key=sorted))
            extra = f", commute[{pairs}]"
        return f"FunctionGraph({edges or '|'.join(self.functions)}{extra})"
