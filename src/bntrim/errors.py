"""Exception types shared across the package."""


class BntrimError(Exception):
    """Base class for errors raised by this package."""


class ModelError(BntrimError):
    """Invalid model construction, or an operation applied to an unfit model."""


class ParseError(BntrimError):
    """Malformed network document or dataset file.

    ``problems`` lists each violation found in a structurally invalid
    network; it is empty for other parse failures.
    """

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        problems: tuple[str, ...] = (),
    ):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f" column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column
        self.problems = problems


class ZeroEvidenceError(BntrimError):
    """A query was conditioned on evidence of probability zero."""


class EnumerationLimitError(BntrimError):
    """An exhaustive enumeration would exceed the configured size guard."""


class UsageError(BntrimError):
    """Malformed command-line invocation."""
