"""ISO-BMFF (MP4) container walking: locate the GoPro `gpmd` telemetry
track and pull its raw payloads with media timestamps.

Read-only and streaming-friendly: box parsing seeks past payloads and
never loads the video track; only telemetry sample bytes are copied. The
sample tables (ISO/IEC 14496-12 §8.6–8.7) are read into column arrays, and
every entry count they declare is checked against the bytes of its box, or
against the file length, before it sizes anything.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

CONTAINER_BOXES = {
    "moov", "trak", "mdia", "minf", "stbl", "edts", "dinf", "udta",
    "mvex", "moof", "traf",
}

# fourccs plausible as the first top-level box of a real MP4
TOP_LEVEL_STARTERS = {"ftyp", "moov", "mdat", "free", "skip", "wide", "styp",
                      "sidx", "moof", "uuid", "pnot"}


@dataclass
class BoxHeader:
    fourcc: str
    size: int
    offset: int
    header_len: int
    children: list = field(default_factory=list)

    @property
    def payload_offset(self):
        return self.offset + self.header_len

    @property
    def payload_size(self):
        return self.size - self.header_len

    def find(self, fourcc):
        for child in self.children:
            if child.fourcc == fourcc:
                return child
        return None


@dataclass
class TrackSampleTable:
    """One track's samples as int64 columns; times in ``timescale`` ticks."""
    timescale: int
    offsets: np.ndarray       # (n,) file offset of each sample
    sizes: np.ndarray         # (n,) bytes
    decode_times: np.ndarray  # (n,) ticks since the track start
    durations: np.ndarray     # (n,) ticks


@dataclass(frozen=True)
class RawPayload:
    data: bytes
    start_time: float
    duration: float


def _file_length(f):
    pos = f.tell()
    f.seek(0, 2)
    end = f.tell()
    f.seek(pos)
    return end


def parse_box_tree(f):
    """Parse the nested box structure of an MP4 file.

    Returns the list of top-level BoxHeaders. Payload bytes are never
    copied; leaves carry offsets only.
    """
    file_len = _file_length(f)
    if file_len < 8:
        raise InputError(f"file too short for any box ({file_len} bytes)")
    f.seek(4)
    first_fourcc = f.read(4)
    if first_fourcc.decode("ascii", errors="replace") not in TOP_LEVEL_STARTERS:
        raise InputError(f"unexpected leading box {first_fourcc!r}")
    boxes = _parse_boxes(f, 0, file_len, top_level=True)
    if not any(b.fourcc in ("ftyp", "moov") for b in boxes):
        raise InputError("no ftyp/moov box found")
    return boxes


def _parse_boxes(f, start, end, top_level=False):
    boxes = []
    pos = start
    while pos + 8 <= end:
        f.seek(pos)
        raw = f.read(8)
        if len(raw) < 8:
            raise InputError(f"short read at offset {pos}")
        size32, fourcc_raw = struct.unpack(">I4s", raw)
        if not all(0x20 <= b < 0x7F for b in fourcc_raw):
            raise InputError(f"non-ASCII fourcc at offset {pos}: {fourcc_raw!r}")
        fourcc = fourcc_raw.decode("ascii")
        header_len = 8
        if size32 == 1:
            ext = f.read(8)
            if len(ext) < 8:
                raise InputError(f"short extended size at offset {pos}")
            size = struct.unpack(">Q", ext)[0]
            header_len = 16
        elif size32 == 0:
            if not top_level:
                raise InputError(
                    f"{fourcc} at offset {pos}: size 0 only valid at top level")
            size = end - pos
        else:
            size = size32
        if size < header_len:
            raise InputError(
                f"{fourcc} at offset {pos}: size {size} < header {header_len}")
        if pos + size > end:
            raise InputError(
                f"{fourcc} at offset {pos}: declared size {size} exceeds "
                f"available {end - pos} bytes")
        box = BoxHeader(fourcc=fourcc, size=size, offset=pos, header_len=header_len)
        if fourcc in CONTAINER_BOXES:
            box.children = _parse_boxes(f, pos + header_len, pos + size)
        boxes.append(box)
        pos += size
    if pos != end:
        raise InputError(f"{end - pos} stray bytes at offset {pos}")
    return boxes


def _read_payload(f, box):
    f.seek(box.payload_offset)
    data = f.read(box.payload_size)
    if len(data) < box.payload_size:
        raise InputError(f"{box.fourcc}: short payload read")
    return data


def _require(box, fourcc):
    child = box.find(fourcc)
    if child is None:
        raise InputError(f"missing {fourcc} under {box.fourcc}")
    return child


def _u32(body, at, fourcc):
    if len(body) < at + 4:
        raise InputError(
            f"{fourcc}: {len(body)} bytes, need {at + 4}")
    return int.from_bytes(body[at:at + 4], "big")


def _full_box(f, box):
    """Version and body (the payload past version/flags) of a full box."""
    data = _read_payload(f, box)
    return _u32(data, 0, box.fourcc) >> 24, data[4:]


def _entries(body, fourcc, fields, at=4):
    """The (count, fields) big-endian table that starts at ``at``, right
    after its u32 entry count: u64 entries for co64, u32 for the rest."""
    count = _u32(body, at - 4, fourcc)
    dtype = np.dtype(">u8" if fourcc == "co64" else ">u4")
    room = (len(body) - at) // (fields * dtype.itemsize)
    if count > room:
        raise InputError(
            f"{fourcc} declares {count} entries, its box holds {room}")
    return np.frombuffer(body, dtype, count * fields, at).reshape(count, fields)


def find_gpmf_track(tree, f):
    """Return the sample table of the first track with sample format `gpmd`.

    Decode times accumulate the time-to-sample table; file offsets resolve
    through the sample-to-chunk and chunk-offset tables (stco or co64).
    """
    moov = next((b for b in tree if b.fourcc == "moov"), None)
    if moov is None:
        raise InputError("no moov box")
    for trak in moov.children:
        table = _track_table(trak, f) if trak.fourcc == "trak" else None
        if table is not None:
            return table
    raise InputError("no track with sample format gpmd")


def _track_table(trak, f):
    mdia = trak.find("mdia")
    minf = mdia.find("minf") if mdia else None
    stbl = minf.find("stbl") if minf else None
    stsd = stbl.find("stsd") if stbl else None
    if stsd is None:
        return None
    _, body = _full_box(f, stsd)
    if _u32(body, 0, "stsd") < 1 or len(body) < 16 or body[8:12] != b"gpmd":
        return None

    version, body = _full_box(f, _require(mdia, "mdhd"))
    timescale = _u32(body, 16 if version == 1 else 8, "mdhd")
    if timescale == 0:
        raise InputError("mdhd timescale is 0")
    file_len = _file_length(f)

    # time-to-sample runs: (count, delta)
    stts = _entries(_full_box(f, _require(stbl, "stts"))[1], "stts", 2).astype(np.int64)

    # sample sizes: one size for every sample, or a table of them
    _, body = _full_box(f, _require(stbl, "stsz"))
    uniform, count = _u32(body, 0, "stsz"), _u32(body, 4, "stsz")
    if uniform:
        if count * uniform > file_len:
            raise InputError(
                f"stsz declares {count} samples of {uniform} bytes, "
                f"file holds {file_len}")
        sizes = np.full(count, uniform, dtype=np.int64)
    else:
        sizes = _entries(body, "stsz", 1, at=8)[:, 0].astype(np.int64)

    if stts[:, 0].sum() != count:
        raise InputError(
            f"stts declares {stts[:, 0].sum()} samples, stsz {count}")
    durations = np.repeat(stts[:, 1], stts[:, 0])

    co = stbl.find("stco") or stbl.find("co64")
    if co is None:
        raise InputError("no stco/co64 chunk offsets")
    # an offset past the file end stays past it, and fits in int64
    chunks = np.minimum(_entries(_full_box(f, co)[1], co.fourcc, 1)[:, 0],
                        file_len + 1).astype(np.int64)

    # sample-to-chunk runs: (first_chunk, samples_per_chunk, description)
    stsc = _entries(_full_box(f, _require(stbl, "stsc"))[1], "stsc", 3).astype(np.int64)
    if np.any(np.diff(stsc[:, 0]) <= 0):
        raise InputError("stsc first_chunk does not increase")
    # a chunk takes the last run starting at or before its 1-based number,
    # and no samples before the first run; the size table caps the total
    run = np.searchsorted(stsc[:, 0], np.arange(1, len(chunks) + 1), side="right")
    ends = np.minimum(np.cumsum(np.append(0, stsc[:, 1])[run]), count)
    placed = int(ends[-1]) if len(ends) else 0
    if placed != count:
        raise InputError(
            f"chunk layout yields {placed} samples, size table {count}")
    per_chunk = np.diff(ends, prepend=0)

    # a sample sits after the samples before it in its chunk
    before = np.concatenate(([0], np.cumsum(sizes)))
    offsets = before[:-1] + np.repeat(chunks - before[ends - per_chunk], per_chunk)
    past = np.flatnonzero(offsets + sizes > file_len)
    if past.size:
        i = past[0]
        raise InputError(
            f"sample at {offsets[i]} (+{sizes[i]}) exceeds file end {file_len}")

    return TrackSampleTable(timescale=timescale, offsets=offsets, sizes=sizes,
                            decode_times=np.cumsum(durations) - durations,
                            durations=durations)


def extract_payloads(table, f):
    """Copy every telemetry sample out of the file as a RawPayload."""
    starts = (table.decode_times / table.timescale).tolist()
    durations = (table.durations / table.timescale).tolist()
    payloads = []
    for offset, size, start, duration in zip(
            table.offsets.tolist(), table.sizes.tolist(), starts, durations):
        f.seek(offset)
        data = f.read(size)
        if len(data) < size:
            raise InputError(f"short payload read at offset {offset}")
        if size % 4 != 0:
            raise InputError(
                f"payload at offset {offset} is {size} bytes, not 32-bit aligned")
        payloads.append(RawPayload(data=data, start_time=start, duration=duration))
    return payloads


# --- fixture writer -------------------------------------------------------

def _box(fourcc, payload):
    return struct.pack(">I4s", 8 + len(payload), fourcc.encode("ascii")) + payload


def _full(fourcc, body, version=0, flags=0):
    return _box(fourcc, struct.pack(">I", (version << 24) | flags) + body)


def write_fixture_mp4(path, payloads, timescale=1000, durations=None, gpmd=True):
    """Write a minimal valid MP4: a stub video track, then the given
    telemetry payloads in a `gpmd` track unless ``gpmd`` is false.

    ``payloads`` is a list of byte blocks stored as one sample each in a
    `gpmd` track; ``durations`` are per-sample durations in timescale ticks
    (default: 1010 each, the ~1.01 s cadence of a 29.97 Hz recording).
    """
    payloads = [bytes(p) for p in payloads]
    if durations is None:
        durations = [1010] * len(payloads)
    if len(durations) != len(payloads):
        raise ValueError("durations length must match payloads")

    ftyp = _box("ftyp", b"isom" + struct.pack(">I", 0x200) + b"isommp41")
    mdat_payload = b"".join(payloads)
    mdat = _box("mdat", mdat_payload)
    mdat_offset = len(ftyp)
    data_start = mdat_offset + 8

    traks = _stub_video_trak(track_id=1)
    if gpmd:
        traks += _gpmd_trak(track_id=2, timescale=timescale, payloads=payloads,
                            durations=durations, data_start=data_start)

    total_duration = sum(durations)
    mvhd = _full("mvhd", struct.pack(">IIII", 0, 0, timescale, total_duration) +
                 struct.pack(">I", 0x00010000) + struct.pack(">H", 0x0100) +
                 b"\x00" * 10 + _identity_matrix() + b"\x00" * 24 +
                 struct.pack(">I", 3))
    moov = _box("moov", mvhd + traks)

    with open(path, "wb") as f:
        f.write(ftyp + mdat + moov)
    return path


def _identity_matrix():
    return struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0, 0x40000000)


def _stbl(sample_entry, sizes, durations, offsets):
    stsd = _full("stsd", struct.pack(">I", 1) + sample_entry)
    n = len(sizes)
    stts_entries = []
    for d in durations:
        if stts_entries and stts_entries[-1][1] == d:
            stts_entries[-1][0] += 1
        else:
            stts_entries.append([1, d])
    stts = _full("stts", struct.pack(">I", len(stts_entries)) +
                 b"".join(struct.pack(">II", c, d) for c, d in stts_entries))
    stsz = _full("stsz", struct.pack(">II", 0, n) +
                 struct.pack(f">{n}I", *sizes))
    # one chunk per sample keeps the layout trivial
    stsc = _full("stsc", struct.pack(">I", 1) + struct.pack(">III", 1, 1, 1)
                 if n else struct.pack(">I", 0))
    stco = _full("stco", struct.pack(">I", n) + struct.pack(f">{n}I", *offsets))
    return _box("stbl", stsd + stts + stsz + stsc + stco)


def _gpmd_trak(track_id, timescale, payloads, durations, data_start):
    sizes = [len(p) for p in payloads]
    offsets = []
    pos = data_start
    for s in sizes:
        offsets.append(pos)
        pos += s
    # minimal gpmd sample entry: 6 reserved bytes + data_reference_index
    sample_entry = struct.pack(">I4s", 16, b"gpmd") + b"\x00" * 6 + struct.pack(">H", 1)
    stbl = _stbl(sample_entry, sizes, durations, offsets)
    return _trak(track_id, timescale, sum(durations), "meta", stbl)


def _stub_video_trak(track_id):
    sample_entry = struct.pack(">I4s", 16, b"avc1") + b"\x00" * 6 + struct.pack(">H", 1)
    stbl = _stbl(sample_entry, [], [], [])
    return _trak(track_id, 30000, 0, "vide", stbl)


def _trak(track_id, timescale, duration, handler, stbl):
    tkhd = _full("tkhd", struct.pack(">IIIII", 0, 0, track_id, 0, duration) +
                 b"\x00" * 8 + struct.pack(">HHHH", 0, 0, 0, 0) +
                 _identity_matrix() + struct.pack(">II", 0, 0), flags=7)
    mdhd = _full("mdhd", struct.pack(">IIII", 0, 0, timescale, duration) +
                 struct.pack(">HH", 0x55C4, 0))
    hdlr = _full("hdlr", struct.pack(">I", 0) + handler.encode("ascii") +
                 b"\x00" * 12 + b"uwvio fixture\x00")
    dref = _full("dref", struct.pack(">I", 1) + _full("url ", b"", flags=1))
    dinf = _box("dinf", dref)
    nmhd = _full("nmhd", b"")
    minf = _box("minf", nmhd + dinf + stbl)
    mdia = _box("mdia", mdhd + hdlr + minf)
    return _box("trak", tkhd + mdia)
