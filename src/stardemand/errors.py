"""Exception types shared across the package, and its file helpers.

The CLI maps these onto exit codes: usage/config problems -> 1,
data problems -> 2, numerical failures -> 3.
"""

import json


class ConfigError(Exception):
    """Bad configuration or usage."""


class DataError(Exception):
    """Malformed or inconsistent input data."""


class NumericalError(Exception):
    """A numerical routine failed to produce a usable result."""


def open_input(path, what: str, **kwargs):
    """``open(path, **kwargs)`` for reading an input file; a file that
    cannot be opened is a DataError naming ``what`` it was to hold."""
    try:
        return open(path, **kwargs)
    except OSError as e:
        raise DataError(f"cannot read {what}: {e}") from None


def write_json(path, obj) -> None:
    """Write a JSON artifact: ``obj`` indented by two, then a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
