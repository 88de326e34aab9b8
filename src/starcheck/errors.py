"""Exception types shared across the package."""


class ParseError(ValueError):
    """Syntax or validation error in an input document, with position info."""

    def __init__(self, filename: str, line: int, column: int, message: str):
        self.filename = filename
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{filename}:{line}:{column}: {message}")


class BudgetError(RuntimeError):
    """A configured size or enumeration budget was exceeded."""


class ContextError(ValueError):
    """The ideal context is not admissible for the given algebra."""


class UsageError(ValueError):
    """Bad input on the command line: an unknown context, a non-positive
    budget, a file that is not UTF-8, a search the algebra cannot serve."""
