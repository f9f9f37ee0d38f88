"""Class taxonomy (parent -> child DAG) constraining label repair.

An ontology is one (C, C) bool matrix ``edges``, with ``edges[p, c]`` true
when p is a parent of c; building one that holds a cycle raises CycleError.
On disk it is a text file of `parent_name child_name` lines; names are
resolved against the corpus class table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class OntologyError(Exception):
    pass


class CycleError(OntologyError):
    """Raised when the relation graph is not a DAG; carries one offending cycle."""

    def __init__(self, cycle: list[int]):
        self.cycle = cycle
        super().__init__(f"ontology contains a cycle: {' -> '.join(map(str, cycle))}")


@dataclass(eq=False)  # the generated == would compare arrays
class Ontology:
    edges: np.ndarray

    def __post_init__(self):
        """Refuse a cyclic graph, naming the first cycle of a depth-first search in class
        order (explicit stack)."""
        children = [np.flatnonzero(row).tolist() for row in self.edges]
        state = [0] * len(children)  # 0 unvisited, 1 on path, 2 done
        for root in range(len(children)):
            if state[root]:
                continue
            state[root] = 1
            path, pending = [root], [iter(children[root])]
            while path:
                for c in pending[-1]:
                    if state[c] == 1:
                        raise CycleError(path[path.index(c) :] + [c])
                    if state[c] == 0:
                        state[c] = 1
                        path.append(c)
                        pending.append(iter(children[c]))
                        break
                else:
                    state[path.pop()] = 2
                    pending.pop()

    @property
    def num_classes(self) -> int:
        return len(self.edges)

    @classmethod
    def from_edges(cls, num_classes: int, edges) -> "Ontology":
        """Build from (parent, child) index pairs; a repeated pair is one edge."""
        matrix = np.zeros((num_classes, num_classes), dtype=bool)
        for p, c in edges:
            p, c = int(p), int(c)
            for k in (p, c):
                if not 0 <= k < num_classes:
                    raise OntologyError(f"class id {k} out of range [0, {num_classes})")
            matrix[p, c] = True
        return cls(matrix)


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
    return Ontology.from_edges(len(class_names), edges)


def write_ontology(onto: Ontology, path: str | Path, class_names: list[str]) -> None:
    lines = [f"{class_names[p]} {class_names[c]}" for p, c in np.argwhere(onto.edges)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
