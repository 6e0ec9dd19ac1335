"""GPMF telemetry parsing.

GPMF is a big-endian key-length-value encoding with a 32-bit aligned
payload: 4-char ASCII key, 1-byte type code, 1-byte item size, 2-byte
big-endian repeat count, followed by item_size * repeat bytes padded up to
the next 4-byte boundary. Type code 0 marks a nested container.

A numeric leaf decodes with one `np.frombuffer` at its offset in the
payload into a (repeat, channels) array; a sensor stream comes out of all
payload trees at once, as their concatenated leaves divided by the sibling
SCAL divisors. Layout follows the GPMF spec (https://github.com/gopro/gpmf-parser).
"""

import struct
from typing import NamedTuple

import numpy as np

from .errors import InputError

# type letter -> big-endian scalar dtype
SCALAR_TYPES = {letter: np.dtype(code) for letter, code in (
    ("b", "i1"), ("B", "u1"), ("s", ">i2"), ("S", ">u2"), ("l", ">i4"),
    ("L", ">u4"), ("j", ">i8"), ("J", ">u8"), ("f", ">f4"), ("d", ">f8"))}

# text-like types, decoded to str
TEXT_TYPES = {"c", "U", "F"}

# per-stream channel counts we insist on for the sensors we consume
SENSOR_CHANNELS = {"ACCL": 3, "GYRO": 3, "SHUT": 1, "GPS5": 5}


_HEADER = struct.Struct(">4sBBH")


class KlvHeader(NamedTuple):
    key: str
    type_code: int
    item_size: int
    repeat: int

    @property
    def padded_len(self):
        return (self.item_size * self.repeat + 3) // 4 * 4


class KlvNode:
    """A container and its child nodes, or a leaf whose padded payload
    starts at ``offset`` in ``raw``: the parsed buffer, which a leaf
    shares with its siblings, or bytes of its own."""
    __slots__ = ("header", "children", "_buf", "_offset")

    def __init__(self, header, children=None, raw=b"", offset=0):
        self.header = header
        self.children = [] if children is None else children
        self._buf = raw
        self._offset = offset

    @property
    def raw(self):
        return self._buf[self._offset:self._offset + self.header.padded_len]

    @property
    def key(self):
        return self.header.key

    @property
    def is_container(self):
        return self.header.type_code == 0

    def values(self):
        """Decode the leaf payload according to its type letter.

        Numeric types come back as a float array of shape (repeat, channels)
        where channels = item_size // scalar size. Text types come back as a
        list of strings. Unknown type letters raise InputError.
        """
        letter = chr(self.header.type_code)
        if letter in TEXT_TYPES:
            raw, size = self.raw, self.header.item_size
            return [raw[i * size:(i + 1) * size].split(b"\x00")[0].decode(
                "ascii", errors="replace") for i in range(self.header.repeat)]
        return _numeric(self, self.key).astype(float)


def parse_klv(data):
    """Parse one GPMF payload into its KLV tree.

    Returns the list of top-level nodes (usually a single DEVC container)
    wrapped in a synthetic root container. Leaves keep offsets into the
    payload's bytes instead of copies of them.
    """
    data = bytes(data)
    return KlvNode(KlvHeader("", 0, 0, 0), _parse_nodes(data, 0, len(data)))


def _parse_nodes(data, start, end):
    nodes, pos = [], start
    while pos < end:
        if end - pos < 8:
            raise InputError(f"trailing {end - pos} bytes, need 8 for a header")
        key_raw, type_code, item_size, repeat = _HEADER.unpack_from(data, pos)
        key = key_raw.decode("latin-1")
        # printable ASCII: isprintable() alone passes letters such as é
        if not (key.isascii() and key.isprintable()):
            raise InputError(f"non-ASCII key at offset {pos - start}: {key_raw!r}")
        header = KlvHeader(key, type_code, item_size, repeat)
        pos += 8
        length = item_size * repeat
        padded = (length + 3) & -4
        if pos + padded > end:
            raise InputError(
                f"{key}: declares {padded} payload bytes, {end - pos} remain")
        if type_code == 0:
            nodes.append(KlvNode(header, _parse_nodes(data, pos, pos + length)))
        else:
            nodes.append(KlvNode(header, [], data, pos))
        pos += padded
    return nodes


def write_klv(nodes):
    """Serialize KLV nodes back to wire bytes (fixture/round-trip helper)."""
    out = bytearray()
    for node in nodes:
        h = node.header
        if h.type_code == 0:
            payload = write_klv(node.children)
            # containers declare their payload length as item_size * repeat
            h = KlvHeader(key=h.key, type_code=0, item_size=1, repeat=len(payload))
        else:
            payload = node.raw
        out += h.key.encode("ascii")
        out += struct.pack(">BBH", h.type_code, h.item_size, h.repeat)
        out += payload
        out += b"\x00" * (-len(payload) % 4)
    return bytes(out)


def make_leaf(key, letter, values, channels=1):
    """Build a leaf node from python values (fixture helper)."""
    if letter in SCALAR_TYPES:
        dtype = SCALAR_TYPES[letter]
        flat = np.asarray(values).reshape(-1)
        raw = flat.astype(dtype).tobytes()
        item_size = dtype.itemsize * channels
        repeat = flat.size // channels
    elif letter in TEXT_TYPES:
        if isinstance(values, str):
            values = [values]
        item_size = max(len(v) for v in values)
        raw = b"".join(v.encode("ascii").ljust(item_size, b"\x00") for v in values)
        repeat = len(values)
    else:
        raise InputError(f"unsupported fixture type {letter!r}")
    raw += b"\x00" * (-len(raw) % 4)
    header = KlvHeader(key=key, type_code=ord(letter), item_size=item_size, repeat=repeat)
    return KlvNode(header=header, raw=raw)


def make_container(key, children):
    payload_len = sum(8 + c.header.padded_len for c in children)
    header = KlvHeader(key=key, type_code=0, item_size=1, repeat=payload_len)
    return KlvNode(header=header, children=list(children))


def _iter_streams(root):
    """Every STRM container under the given node, breadth first."""
    queue = [root]
    for node in queue:    # the loop also visits what it appends
        for child in node.children:
            if child.key == "STRM":
                yield child
            elif child.is_container:
                queue.append(child)


def _numeric(node, key):
    """A numeric leaf's payload as (repeat, channels) in its wire dtype."""
    h = node.header
    letter = chr(h.type_code)
    if letter in TEXT_TYPES:
        raise InputError(f"{key}: {h.key} is not numeric")
    dtype = SCALAR_TYPES.get(letter)
    if dtype is None:
        raise InputError(f"{h.key}: unsupported type letter {letter!r}")
    channels, rest = divmod(h.item_size, dtype.itemsize)
    if rest:
        raise InputError(f"{h.key}: item size {h.item_size} not a "
                         f"multiple of {dtype.itemsize} for type '{letter}'")
    flat = np.frombuffer(node._buf, dtype, h.repeat * channels, node._offset)
    return flat.reshape(h.repeat, channels)


def extract_stream(roots, keys, axis_order=None):
    """Physically scaled samples of the sensor FourCCs ``keys`` over the
    payload trees ``roots``, as whole-recording columns.

    Walks each tree once. Per key, concatenates in order every STRM
    container holding it, and divides the raw values element-wise by the
    sibling SCAL divisors in one division (a divisor that is zero or not
    finite is an `InputError`). ``axis_order`` names the device channel
    order of 3-channel streams, e.g. "zxy" means device channel 0 carries
    z; their columns come out in (x, y, z) order. Returns one (n, channels)
    array per key, or None where no STRM holds the key, and the
    (len(roots), len(keys)) int64 sample counts of each tree.
    """
    found = [[] for _ in keys]     # per key: (leaf, SCAL) pairs in order
    counts = [[0] * len(roots) for _ in keys]
    for i, root in enumerate(roots):
        for strm in _iter_streams(root):
            first = {}
            for child in strm.children:
                first.setdefault(child.key, child)
            for k, key in enumerate(keys):
                leaf = first.get(key)
                if leaf is not None:
                    found[k].append((leaf, first.get("SCAL")))
                    counts[k][i] += leaf.header.repeat
    return ([_scaled(key, leaves, axis_order) for key, leaves in zip(keys, found)],
            np.array(counts, dtype=np.int64).reshape(len(keys), -1).T)


def _scaled(key, leaves, axis_order):
    if not leaves:
        return None
    # keys other than the sensors' take the first leaf's channel count
    channels = SENSOR_CHANNELS.get(key) or _numeric(leaves[0][0], key).shape[1]
    raws, divisors, rows = [], [], []
    for leaf, scal in leaves:
        raw = _numeric(leaf, key)
        if raw.shape[1] != channels:
            raise InputError(f"{key}: expected {channels} channels, got {raw.shape[1]}")
        div = np.ones(channels) if scal is None else _numeric(scal, key).reshape(-1)
        if div.size == 1:
            div = div.repeat(channels)
        elif div.size != channels:
            raise InputError(
                f"{key}: SCAL has {div.size} divisors for {channels} channels")
        raws.append(raw)
        divisors.append(div)
        rows.append(len(raw))
    per_leaf = np.concatenate(divisors, dtype=float).reshape(len(divisors), channels)
    bad = per_leaf[~np.isfinite(per_leaf) | (per_leaf == 0)]
    if bad.size:
        raise InputError(f"{key}: SCAL divisor {bad[0]:g} is zero or not finite")
    values = np.concatenate(raws, dtype=float) / np.repeat(per_leaf, rows, axis=0)
    if axis_order is not None and channels == 3:
        values = values[:, [axis_order.index(a) for a in "xyz"]]
    return values
