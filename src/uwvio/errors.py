"""The exceptions that uwvio raises, one per CLI exit code.

Every error carries an ``exit_code`` used by the CLI: 2 for input/parse
problems (`InputError`), 1 for computational failures (`UwvioError`).
The message says what went wrong; no caller needs to tell two failures of
the same family apart by type.
"""


class UwvioError(Exception):
    """A computation that cannot finish; the base of every uwvio error."""
    exit_code = 1


class InputError(UwvioError):
    """Malformed or unusable input data."""
    exit_code = 2


class EventLogError(InputError):
    """Malformed event-log line; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
