import io
import struct

import numpy as np
import pytest

from uwvio import fixtures, mp4
from uwvio.cli import main
from uwvio.errors import (AlignmentError, InconsistentSampleTable, MalformedBox,
                          NoTelemetryTrack, NotMp4, TruncatedFile)


def box_bytes(fourcc, payload=b""):
    return struct.pack(">I4s", 8 + len(payload), fourcc.encode()) + payload


class CountingReader(io.BytesIO):
    """Byte source that counts how many bytes have been read."""

    def __init__(self, data):
        super().__init__(data)
        self.bytes_read = 0

    def read(self, n=-1):
        data = super().read(n)
        self.bytes_read += len(data)
        return data


def test_minimal_ftyp_moov_tree():
    data = box_bytes("ftyp", b"isom" + b"\x00" * 12) + box_bytes("moov")
    boxes = mp4.parse_box_tree(io.BytesIO(data))
    assert len(boxes) == 2
    assert boxes[0].fourcc == "ftyp"
    assert boxes[0].size == 24
    assert boxes[0].offset == 0
    assert boxes[0].header_len == 8
    assert boxes[1].fourcc == "moov"
    assert boxes[1].size == 8
    assert boxes[1].offset == 24


def test_empty_file_is_not_mp4():
    with pytest.raises(NotMp4):
        mp4.parse_box_tree(io.BytesIO(b""))


def test_garbage_file_is_not_mp4():
    with pytest.raises(NotMp4):
        mp4.parse_box_tree(io.BytesIO(b"hello world, this is not a movie"))


def test_oversized_box_is_truncated():
    data = box_bytes("ftyp", b"isom" + b"\x00" * 12)
    data += struct.pack(">I4s", 0xFFFFFFFF, b"moov")
    with pytest.raises(TruncatedFile):
        mp4.parse_box_tree(io.BytesIO(data))


def test_box_smaller_than_header_is_malformed():
    data = box_bytes("ftyp", b"isom" + b"\x00" * 12)
    data += struct.pack(">I4s", 4, b"free")
    with pytest.raises(MalformedBox):
        mp4.parse_box_tree(io.BytesIO(data))


def test_size_zero_box_extends_to_eof_at_top_level():
    data = box_bytes("ftyp", b"isom" + b"\x00" * 12)
    data += struct.pack(">I4s", 0, b"mdat") + b"\x00" * 100
    boxes = mp4.parse_box_tree(io.BytesIO(data))
    assert boxes[-1].fourcc == "mdat"
    assert boxes[-1].size == 108


def test_size_zero_nested_is_malformed():
    inner = struct.pack(">I4s", 0, b"trak") + b"\x00" * 8
    data = box_bytes("ftyp", b"isom" + b"\x00" * 12) + box_bytes("moov", inner)
    with pytest.raises(MalformedBox):
        mp4.parse_box_tree(io.BytesIO(data))


def test_64bit_extended_size():
    payload = b"\x00" * 32
    big = struct.pack(">I4s", 1, b"mdat") + struct.pack(">Q", 16 + len(payload)) + payload
    data = box_bytes("ftyp", b"isom" + b"\x00" * 12) + big
    boxes = mp4.parse_box_tree(io.BytesIO(data))
    assert boxes[1].size == 48
    assert boxes[1].header_len == 16


def test_fixture_track_and_payloads(tmp_path):
    path = tmp_path / "fix.mp4"
    fixtures.fixture_mp4(path, n_payloads=3, accel_count=8, gyro_count=8,
                         shut_count=2)
    with open(path, "rb") as f:
        tree = mp4.parse_box_tree(f)
        table = mp4.find_gpmf_track(tree, f)
        assert table.timescale == 1000
        assert len(table.sizes) == 3
        payloads = mp4.extract_payloads(table, f)
    assert [p.start_time for p in payloads] == [0.0, 1.01, 2.02]
    assert all(p.duration == 1.01 for p in payloads)


def test_no_gpmd_track(tmp_path):
    path = tmp_path / "novideo.mp4"
    mp4.write_fixture_mp4(path, [b"\x00" * 8], gpmd=False)
    with open(path, "rb") as f:
        tree = mp4.parse_box_tree(f)
        with pytest.raises(NoTelemetryTrack):
            mp4.find_gpmf_track(tree, f)


def test_payload_start_time_arithmetic(tmp_path):
    path = tmp_path / "t.mp4"
    payloads = [b"\x00" * 4, b"\x11" * 8, b"\x22" * 12]
    mp4.write_fixture_mp4(path, payloads, timescale=1000,
                          durations=[1010, 1010, 980])
    with open(path, "rb") as f:
        table = mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
        out = mp4.extract_payloads(table, f)
    assert [p.start_time for p in out] == [0.0, 1.010, 2.020]
    assert [p.duration for p in out] == [1.010, 1.010, 0.980]


def test_single_payload(tmp_path):
    path = tmp_path / "one.mp4"
    mp4.write_fixture_mp4(path, [b"\xab" * 16], durations=[500])
    with open(path, "rb") as f:
        table = mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
        out = mp4.extract_payloads(table, f)
    assert len(out) == 1
    assert out[0].start_time == 0.0
    assert out[0].data == b"\xab" * 16


def test_unaligned_payload_rejected(tmp_path):
    path = tmp_path / "bad.mp4"
    mp4.write_fixture_mp4(path, [b"\x00" * 7], durations=[500])
    with open(path, "rb") as f:
        table = mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
        with pytest.raises(AlignmentError):
            mp4.extract_payloads(table, f)


def test_round_trip_payloads(tmp_path):
    rng = np.random.default_rng(3)
    payloads = [rng.bytes(4 * int(rng.integers(1, 64))) for _ in range(20)]
    durations = [int(rng.integers(500, 2000)) for _ in range(20)]
    path = tmp_path / "rt.mp4"
    mp4.write_fixture_mp4(path, payloads, timescale=1000, durations=durations)
    with open(path, "rb") as f:
        table = mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
        out = mp4.extract_payloads(table, f)
    assert [p.data for p in out] == payloads
    expected_start = np.cumsum([0] + durations[:-1]) / 1000.0
    got = np.array([p.start_time for p in out])
    assert np.all(np.abs(got - expected_start) <= 1e-3)  # one tick
    assert np.all(np.diff(got) > 0)


def test_parse_reads_headers_not_payloads(tmp_path):
    path = tmp_path / "big.mp4"
    mp4.write_fixture_mp4(path, [b"\x00" * 1_000_000], durations=[1000])
    data = open(path, "rb").read()
    reader = CountingReader(data)
    mp4.parse_box_tree(reader)
    # header walking must not touch the megabyte payload
    assert reader.bytes_read < 10_000


# --- sample tables: malformed and chunked ------------------------------

STBL = ("mdia", "minf", "stbl")


def _chain(data, *path):
    """Boxes from moov down ``path`` in the gpmd track, which follows the
    fixture's stub video track."""
    moov = next(b for b in mp4.parse_box_tree(io.BytesIO(data)) if b.fourcc == "moov")
    chain = [moov, [b for b in moov.children if b.fourcc == "trak"][-1]]
    for fourcc in path:
        chain.append(chain[-1].find(fourcc))
    return chain


def _patched(fourcc, at, change):
    """Corruption: the u32 ``at`` bytes into the payload of a sample-table
    box, passed through ``change``."""
    def corrupt(data):
        pos = _chain(data, *STBL, fourcc)[-1].payload_offset + at
        out = bytearray(data)
        struct.pack_into(">I", out, pos, change(struct.unpack_from(">I", data, pos)[0]))
        return bytes(out)
    return corrupt


def _replaced(path, new):
    """Corruption: the box at ``path`` replaced by ``new``, its ancestors
    resized to match (moov follows mdat, so no sample moves)."""
    def corrupt(data):
        chain = _chain(data, *path)
        box = chain[-1]
        out = bytearray(data[:box.offset] + new + data[box.offset + box.size:])
        for parent in chain[:-1]:
            struct.pack_into(">I", out, parent.offset, parent.size + len(new) - box.size)
        return bytes(out)
    return corrupt


MALFORMED = {
    "stts count past box end": _patched("stts", 4, lambda n: n + 1),
    "stsz count past box end": _patched("stsz", 8, lambda n: n + 1),
    "stsc count past box end": _patched("stsc", 4, lambda n: n + 1),
    "stco count past box end": _patched("stco", 4, lambda n: n + 1),
    "uniform stsz past file end": _patched("stsz", 4, lambda _: 1 << 31),
    "3-byte mdhd": _replaced(("mdia", "mdhd"), box_bytes("mdhd", b"\x00" * 3)),
    "stsc first_chunk decreases": _replaced(
        STBL + ("stsc",), box_bytes("stsc", struct.pack(">8I", 0, 2, 2, 1, 1, 1, 1, 1))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_sample_table(tmp_path, capsys, case):
    path = fixtures.fixture_mp4(tmp_path / "f.mp4", n_payloads=3, accel_count=8,
                                gyro_count=8, shut_count=2)
    path.write_bytes(MALFORMED[case](path.read_bytes()))
    with open(path, "rb") as f:
        with pytest.raises(InconsistentSampleTable):
            mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
    assert main(["-q", "--out-dir", str(tmp_path / "out"), "extract", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _loop_table(chunk_offsets, runs, sizes, durations):
    """The per-chunk, per-sample loop the column reader replaced:
    (offset, size, decode time, duration) of each sample."""
    samples, decode_time, i = [], 0, 0
    for ci, chunk_off in enumerate(chunk_offsets):
        per_chunk = 0
        for first_chunk, samples_per_chunk, _desc in runs:
            if ci + 1 >= first_chunk:
                per_chunk = samples_per_chunk
        offset = chunk_off
        for _ in range(per_chunk):
            if i >= len(sizes):
                break
            samples.append((offset, sizes[i], decode_time, durations[i]))
            offset += sizes[i]
            decode_time += durations[i]
            i += 1
    return samples


@pytest.mark.parametrize("per_chunk, co", [
    ([2] * 5, "stco"),
    ([1, 3, 3, 0, 2, 4], "stco"),  # an empty chunk; the last holds more than remain
    ([0, 4, 4, 4], "co64"),
])
def test_chunked_layout_matches_per_sample_loop(tmp_path, per_chunk, co):
    rng = np.random.default_rng(1)
    payloads = [bytes(4 * int(n)) for n in rng.integers(1, 9, size=10)]
    durations = rng.integers(500, 1500, size=10).tolist()
    path = tmp_path / "c.mp4"
    mp4.write_fixture_mp4(path, payloads, durations=durations)
    with open(path, "rb") as f:
        contiguous = mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
    # regroup the contiguous samples into chunks of per_chunk samples
    firsts = np.minimum(np.cumsum([0] + per_chunk[:-1]), len(payloads) - 1)
    chunk_offsets = contiguous.offsets[firsts].tolist()
    runs = [(c + 1, n, 1) for c, n in enumerate(per_chunk)
            if c == 0 or n != per_chunk[c - 1]]
    stsc = struct.pack(f">{2 + 3 * len(runs)}I", 0, len(runs), *[v for r in runs for v in r])
    offsets = struct.pack(f">II{len(chunk_offsets)}{'Q' if co == 'co64' else 'I'}",
                          0, len(chunk_offsets), *chunk_offsets)
    data = _replaced(STBL + ("stsc",), box_bytes("stsc", stsc))(path.read_bytes())
    path.write_bytes(_replaced(STBL + ("stco",), box_bytes(co, offsets))(data))
    with open(path, "rb") as f:
        table = mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
    got = list(zip(table.offsets.tolist(), table.sizes.tolist(),
                   table.decode_times.tolist(), table.durations.tolist()))
    assert got == _loop_table(chunk_offsets, runs, [len(p) for p in payloads], durations)
    assert table.offsets.tolist() == contiguous.offsets.tolist()
