"""Exception types shared across the package."""


class OnlineMapfError(Exception):
    """Base class for all package-specific errors."""


class DisconnectedWorld(OnlineMapfError):
    """The traversable part of the environment is not a single connected component."""


class EmptyWorld(OnlineMapfError):
    """The environment has no traversable location at all."""


class InvalidEdge(OnlineMapfError):
    """An edge is a self-loop or references a vertex that does not exist."""


class UnplannedAgent(OnlineMapfError):
    """An operation required a path for an agent that has none."""


class BudgetExhausted(OnlineMapfError):
    """A search exceeded its node budget before finding a provably optimal answer."""


class OddM(OnlineMapfError):
    """The line family is only defined for an even number of agents."""


class ProtocolViolation(OnlineMapfError):
    """An adaptive reveal source was queried out of order."""


class MalformedSat(OnlineMapfError):
    """A SAT instance violates the <=3,=3 occurrence or clause-size constraints."""


class NotMakespanThree(OnlineMapfError):
    """Assignment decoding needs a makespan-3 plan and got something else."""


class ParseError(OnlineMapfError):
    """A text input failed to parse; carries file name and line number."""

    def __init__(self, message, source="<string>", line=None):
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")
