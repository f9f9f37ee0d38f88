"""Class taxonomy (parent -> child DAG) constraining label repair.

On disk an ontology is a text file of `parent_name child_name` lines;
names are resolved against the corpus class table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


class OntologyError(Exception):
    pass


class CycleError(OntologyError):
    """Raised when the relation graph is not a DAG; carries one offending cycle."""

    def __init__(self, cycle: list[int]):
        self.cycle = cycle
        super().__init__(f"ontology contains a cycle: {' -> '.join(map(str, cycle))}")


@dataclass
class Ontology:
    num_classes: int
    children: list[list[int]]
    parents: list[list[int]]

    @classmethod
    def from_edges(cls, num_classes: int, edges) -> "Ontology":
        """Build from (parent, child) index pairs; duplicates are collapsed."""
        children = [set() for _ in range(num_classes)]
        parents = [set() for _ in range(num_classes)]
        for p, c in edges:
            p, c = int(p), int(c)
            for k in (p, c):
                if not 0 <= k < num_classes:
                    raise OntologyError(f"class id {k} out of range [0, {num_classes})")
            children[p].add(c)
            parents[c].add(p)
        return cls(
            num_classes,
            [sorted(s) for s in children],
            [sorted(s) for s in parents],
        )

    def validate(self) -> None:
        """Accept iff the graph is a DAG; otherwise raise CycleError naming one cycle."""
        cycle = self._find_cycle()
        if cycle is not None:
            raise CycleError(cycle)

    def _find_cycle(self) -> list[int] | None:
        """First cycle of a depth-first search in class order (explicit stack), or None."""
        state = [0] * self.num_classes  # 0 unvisited, 1 on path, 2 done
        for root in range(self.num_classes):
            if state[root]:
                continue
            state[root] = 1
            path, pending = [root], [iter(self.children[root])]
            while path:
                for c in pending[-1]:
                    if state[c] == 1:
                        return path[path.index(c) :] + [c]
                    if state[c] == 0:
                        state[c] = 1
                        path.append(c)
                        pending.append(iter(self.children[c]))
                        break
                else:
                    state[path.pop()] = 2
                    pending.pop()
        return None


def read_ontology(path: str | Path, class_names: list[str]) -> Ontology:
    """Parse `parent child` lines, resolving names against the class table."""
    index_of = {name: k for k, name in enumerate(class_names)}
    edges = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise OntologyError(f"line {lineno}: expected 'parent child', got {line!r}")
        for name in parts:
            if name not in index_of:
                raise OntologyError(f"line {lineno}: unknown class {name!r}")
        edges.append((index_of[parts[0]], index_of[parts[1]]))
    onto = Ontology.from_edges(len(class_names), edges)
    onto.validate()
    return onto


def write_ontology(onto: Ontology, path: str | Path, class_names: list[str]) -> None:
    lines = []
    for p in range(onto.num_classes):
        for c in onto.children[p]:
            lines.append(f"{class_names[p]} {class_names[c]}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
