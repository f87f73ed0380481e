"""Exception types shared across the package."""


class TwinWidthError(Exception):
    """Base class for all errors raised by this package."""


# -- trigraph construction and mutation -------------------------------------

class SelfLoop(TwinWidthError):
    pass


class DuplicateEdge(TwinWidthError):
    pass


class BadEndpoint(TwinWidthError):
    pass


class SameVertex(TwinWidthError):
    pass


class DeadVertex(TwinWidthError):
    pass


class BadVertexSet(TwinWidthError):
    pass


# -- sequences and lifts -----------------------------------------------------

class DeadVertexAtStep(TwinWidthError):
    def __init__(self, index, vertex):
        super().__init__(f"step {index} references dead vertex {vertex}")
        self.index = index
        self.vertex = vertex


class IncompleteSequence(TwinWidthError):
    pass


class InstanceMismatch(TwinWidthError):
    pass


# -- solver ------------------------------------------------------------------

class BudgetExceeded(TwinWidthError):
    """The search refused to run or stopped because a configured budget hit.

    ``kind`` is one of ``"vertices"``, ``"nodes"`` or ``"time"``.
    """

    def __init__(self, amount, limit, kind="vertices"):
        super().__init__(f"{kind} budget exceeded: {amount} > {limit}")
        self.amount = amount
        self.limit = limit
        self.kind = kind


# -- structural analysis and reduction rules ---------------------------------

class Disconnected(TwinWidthError):
    pass


class PreconditionViolated(TwinWidthError):
    pass


# -- file formats --------------------------------------------------------------

class ParseError(TwinWidthError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphSyntaxError(ParseError):
    pass


class BadStepLine(GraphSyntaxError):
    pass


class HeaderMismatch(ParseError):
    pass


class IndexOutOfRange(ParseError):
    pass
