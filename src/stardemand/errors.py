"""Exception types shared across the package, and its file helpers.

The CLI maps these onto exit codes: usage/config problems -> 1,
data problems -> 2, numerical failures -> 3.
"""

import csv
import json
from contextlib import contextmanager

import numpy as np


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


# Characters on which numpy's reader parts ways with csv.reader and float:
# numpy's ``U`` dtype drops a string's trailing NULs, and its float parser
# strips \x1c-\x1f as whitespace, which ``float`` rejects.
_NUMPY_UNSAFE = "\0\x1c\x1d\x1e\x1f"


def loadtxt_csv(lines: list[str], longest: int, **kwargs) -> np.ndarray | None:
    """``np.loadtxt(lines, **kwargs)`` of comma-separated, double-quoted
    ``lines``, the longest of which is ``longest`` characters; or None where
    numpy might read them otherwise than ``csv.reader`` and ``float`` do:
    where it raises ValueError, where a line is longer than
    ``csv.field_size_limit()`` (csv.reader raises on a longer field), or
    where a character of ``_NUMPY_UNSAFE`` occurs."""
    text = "".join(lines)
    if longest > csv.field_size_limit() or any(c in text for c in _NUMPY_UNSAFE):
        return None
    try:
        # comments=None: the default "#" would cut a field short
        return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, **kwargs)
    except ValueError:
        return None


def write_json(path, obj) -> None:
    """Write a JSON artifact: ``obj`` indented by two, then a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
