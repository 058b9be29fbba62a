"""Exception types shared across the package.

Plain ValueError/TypeError are used for scalar argument misuse; the classes
here carry structured payloads (violation lists, collision witnesses, field
context) that callers and the CLI can serialize. Each keeps its payload in
``args`` and formats its message in ``__str__``, so a pickled error (one a
catalog worker sends back) comes back with the same payload and message.
"""

from __future__ import annotations


class IasiError(Exception):
    """Base class for structured errors raised by this package."""


class LabelOverflowError(IasiError):
    """An element or induced sum would exceed the 64-bit unsigned range."""


class GraphValidationError(IasiError):
    """Raised when raw graph data violates the simple-graph invariants.

    ``violations`` holds one GraphViolation per offending element.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(self.violations)

    def __str__(self):
        return "invalid graph: " + "; ".join(str(v) for v in self.violations)


class InvalidLabelingError(IasiError):
    """A vertex labeling is not total or assigns an empty set."""


class LabelCollisionError(IasiError):
    """Two distinct elements received the same set-label.

    ``witness`` is a Collision naming the clashing pair.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(witness)

    def __str__(self):
        return f"label collision: {self.witness}"


class NotArithmeticError(IasiError):
    """An operation requiring an arithmetic labeling got something else."""


class DisconnectedGraphError(IasiError):
    """An operation requiring a connected graph got a disconnected one."""


class SchemaError(IasiError):
    """A document does not match the labeling-document schema.

    ``context`` locates the offending field (dotted path / line info).
    """

    def __init__(self, message, context=None):
        self.context = context
        super().__init__(message, context)

    def __str__(self):
        message = self.args[0]
        return message if self.context is None else f"{self.context}: {message}"
