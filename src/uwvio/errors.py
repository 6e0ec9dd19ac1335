"""Exception hierarchy shared by all uwvio modules.

Every error carries an ``exit_code`` used by the CLI: 2 for input/parse
problems, 1 for computational failures.
"""

import itertools
import re


class UwvioError(Exception):
    exit_code = 1


class InputError(UwvioError):
    """Malformed or unusable input data."""
    exit_code = 2


# --- MP4 demuxing ---

class NotMp4(InputError):
    pass


class TruncatedFile(InputError):
    pass


class MalformedBox(InputError):
    pass


class NoTelemetryTrack(InputError):
    pass


class InconsistentSampleTable(InputError):
    pass


class AlignmentError(InputError):
    pass


# --- GPMF / KLV parsing ---

class TruncatedKlv(InputError):
    pass


class BadTypeCode(InputError):
    pass


class StreamNotFound(InputError):
    pass


class ScaleMismatch(InputError):
    pass


# --- synchronization ---

class NonMonotonicPayloads(InputError):
    pass


class ZeroCount(InputError):
    pass


class MissingStream(InputError):
    pass


class CountMismatch(InputError):
    pass


# --- Allan analysis ---

class SeriesTooShort(UwvioError):
    pass


class NonPositiveTau(UwvioError):
    pass


class FitRegionEmpty(UwvioError):
    pass


# --- global map ---

class DuplicateKeyframe(UwvioError):
    pass


class UnknownKeyframe(UwvioError):
    pass


class InvalidQuality(UwvioError):
    pass


class UnknownLandmark(UwvioError):
    pass


class EventLogError(InputError):
    """Malformed event-log line; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# --- trajectory evaluation ---

class NoMatches(UwvioError):
    pass


class DegenerateConfiguration(UwvioError):
    pass


class EmptyPairs(UwvioError):
    pass


class InsufficientDetections(UwvioError):
    pass


# --- point-cloud registration ---

class EmptyCloud(UwvioError):
    pass


class TooFewPoints(UwvioError):
    pass


class ConsensusFailure(UwvioError):
    pass


class NoOverlap(UwvioError):
    pass


def loadtxt_line_no(lines, row, skip=0):
    """1-based number of the line that np.loadtxt read as data row ``row``:
    it skips the first ``skip`` lines, then every line that holds nothing
    but whitespace and a `#` comment."""
    data = (no for no, line in enumerate(lines, start=1)
            if no > skip and line.partition("#")[0].strip())
    return next(itertools.islice(data, row, None))


def loadtxt_field_error(path, exc, lines, skip=0):
    """np.loadtxt's message for a field that does not parse, naming the
    file line in place of numpy's count of data rows; None for others."""
    bad = re.fullmatch(r"(.*) at row (\d+), (column \d+)\.", str(exc))
    if bad:
        return f"{path}:{loadtxt_line_no(lines, int(bad[2]), skip)}: {bad[1]} in {bad[3]}"
