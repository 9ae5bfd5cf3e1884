"""Exception types shared across the library."""


class ParseError(ValueError):
    """Malformed digraph text input. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class NotStronglyConnected(ValueError):
    """The pipeline requires a strongly connected input digraph."""


class UnreachableVertex(NotStronglyConnected):
    """The root of a requested spanning out-tree cannot reach some vertex."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is not reachable from the root")


class BudgetExceeded(RuntimeError):
    """An exhaustive search ran out of its node budget.

    The outcome of the aborted search is unknown; callers must never treat
    this as evidence of absence.
    """

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exhausted after {nodes} nodes")


class NotFinalTree(ValueError):
    """Arc partitioning requires a final out-tree."""


class NotAcyclic(ValueError):
    """A subdigraph that must be acyclic (backward-to-ancestor arcs only) contains
    a directed cycle; this signals a broken arc partition upstream."""


class InfeasibleSpec(ValueError):
    """A generator spec that cannot be realized (e.g. too few arcs requested)."""
