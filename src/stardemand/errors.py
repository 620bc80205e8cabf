"""Exception types shared across the package, and its two file helpers:
:func:`open_input` for every input file and :func:`write_json` for JSON
artifacts.

The CLI maps these onto exit codes: usage/config problems -> 1,
data problems -> 2, numerical failures -> 3.
"""

import csv
import json
from contextlib import contextmanager


class ConfigError(Exception):
    """Bad configuration or usage."""


class DataError(Exception):
    """Malformed or inconsistent input data."""


class NumericalError(Exception):
    """A numerical routine failed to produce a usable result."""


@contextmanager
def open_input(source, what: str, **kwargs):
    """``open(source, **kwargs)`` for reading an input file, as a context
    manager; an already open text file is used as it is and left open. An
    OSError, UnicodeDecodeError, csv.Error or JSONDecodeError raised in
    opening or reading it is a DataError, ``cannot read <what> <path>: ...``."""
    try:
        if hasattr(source, "read"):
            yield source
        else:
            with open(source, **kwargs) as fh:
                yield fh
    except (OSError, UnicodeDecodeError, csv.Error, json.JSONDecodeError) as e:
        raise DataError(f"cannot read {what} {source}: {e}") from None


def write_json(path, obj) -> None:
    """Write a JSON artifact: ``obj`` indented by two, then a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
