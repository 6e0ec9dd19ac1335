"""Exception hierarchy shared by all uwvio modules.

Every error carries an ``exit_code`` used by the CLI: 2 for input/parse
problems, 1 for computational failures.
"""


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
