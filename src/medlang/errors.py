"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the command line front end:
config errors -> 2, data errors -> 3, numerical failures -> 4.
"""


class MedlangError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(MedlangError):
    """Invalid configuration: bad paths, out-of-range knobs, empty lexicon."""

    exit_code = 2


class DataError(MedlangError):
    """Malformed or contradictory input data."""

    exit_code = 3


class ParseError(DataError):
    """Malformed input line (transcript, units, records, estimates); carries its line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NumericalError(MedlangError):
    """Numerical failure: non-convergent fit, degenerate bootstrap."""

    exit_code = 4
