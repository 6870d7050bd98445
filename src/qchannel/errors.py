"""Exception types shared across the package.

Input problems (bad files, unknown builtin names, malformed parameters) are
kept on a separate branch from mathematical precondition failures so the CLI
can map the two families to distinct exit codes.
"""


class QChannelError(Exception):
    """Base class for every error raised by this package."""


class InputError(QChannelError):
    """Malformed or unrecognized input."""


class SchemaError(InputError):
    """A JSON document does not match its documented schema."""


class UnknownGateError(InputError):
    """Gate name outside the supported set."""


class UnknownCodeError(InputError):
    """Builtin code name not recognized."""


class UnknownChannelError(InputError):
    """Builtin channel name not recognized."""


class InvalidParameterError(InputError):
    """Parameter outside its documented range."""


class QubitIndexError(InputError):
    """Qubit slot index outside 1..n."""


class PreconditionError(QChannelError):
    """A mathematical precondition of an operation does not hold."""


class ShapeMismatchError(PreconditionError):
    pass


class DimensionMismatchError(PreconditionError):
    pass


class NotHermitianError(PreconditionError):
    pass


class NotPSDError(PreconditionError):
    pass


class NotUnitaryError(PreconditionError):
    pass


class NotTracePreservingError(PreconditionError):
    pass


class NotUnitalError(PreconditionError):
    pass


class InvalidMeasurementError(PreconditionError):
    """Measurement operators fail the completeness sum."""


class DependentInputError(PreconditionError):
    """Input vectors are numerically linearly dependent."""


class ConditionViolatedError(PreconditionError):
    """A stated correctability condition fails on re-verification."""


class NotAnAlgebraError(PreconditionError):
    """Operator space is not closed under products/adjoints or lacks the identity."""


class SizeLimitError(PreconditionError):
    """An operation would allocate beyond the documented size envelope."""


class StructureResolutionError(PreconditionError):
    """Randomized block-structure resolution stayed ambiguous across retries."""


class WrongArityError(PreconditionError):
    """Oracle arity does not fit the algorithm."""


class PromiseViolatedError(PreconditionError):
    """Oracle table is neither constant nor balanced."""
