"""GPMF telemetry parsing.

GPMF is a big-endian key-length-value encoding with a 32-bit aligned
payload: 4-char ASCII key, 1-byte type code, 1-byte item size, 2-byte
big-endian repeat count, followed by item_size * repeat bytes padded up to
the next 4-byte boundary. Type code 0 marks a nested container.

Numeric leaves decode with one `np.frombuffer` into a (repeat, channels)
float array; a sensor stream comes out as that array divided by its
sibling SCAL divisors. Layout follows the GPMF spec
(https://github.com/gopro/gpmf-parser).
"""

import struct
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class KlvHeader:
    key: str
    type_code: int
    item_size: int
    repeat: int

    @property
    def payload_len(self):
        return self.item_size * self.repeat

    @property
    def padded_len(self):
        return (self.payload_len + 3) // 4 * 4


@dataclass
class KlvNode:
    header: KlvHeader
    children: list = field(default_factory=list)
    raw: bytes = b""

    @property
    def key(self):
        return self.header.key

    @property
    def is_container(self):
        return self.header.type_code == 0

    def find(self, key):
        for child in self.children:
            if child.key == key:
                return child
        return None

    def values(self):
        """Decode the leaf payload according to its type letter.

        Numeric types come back as a numpy array of shape (repeat, channels)
        where channels = item_size // scalar size. Text types come back as a
        list of strings. Unknown type letters raise InputError.
        """
        letter = chr(self.header.type_code)
        if letter in SCALAR_TYPES:
            dtype = SCALAR_TYPES[letter]
            channels, rest = divmod(self.header.item_size, dtype.itemsize)
            if rest:
                raise InputError(
                    f"{self.key}: item size {self.header.item_size} not a "
                    f"multiple of {dtype.itemsize} for type '{letter}'")
            flat = np.frombuffer(self.raw, dtype, self.header.repeat * channels)
            return flat.astype(float).reshape(self.header.repeat, channels)
        if letter in TEXT_TYPES:
            out = []
            for i in range(self.header.repeat):
                chunk = self.raw[i * self.header.item_size:(i + 1) * self.header.item_size]
                out.append(chunk.split(b"\x00")[0].decode("ascii", errors="replace"))
            return out
        raise InputError(f"{self.key}: unsupported type letter {letter!r}")


def parse_klv(data):
    """Parse one GPMF payload into its KLV tree.

    Returns the list of top-level nodes (usually a single DEVC container)
    wrapped in a synthetic root container.
    """
    root = KlvNode(header=KlvHeader(key="", type_code=0, item_size=0, repeat=0))
    root.children = _parse_nodes(bytes(data))
    return root


def _parse_nodes(data):
    nodes = []
    pos = 0
    total = len(data)
    while pos < total:
        if total - pos < 8:
            raise InputError(f"trailing {total - pos} bytes, need 8 for a header")
        key_raw = data[pos:pos + 4]
        if not all(0x20 <= b < 0x7F for b in key_raw):
            raise InputError(f"non-ASCII key at offset {pos}: {key_raw!r}")
        type_code, item_size, repeat = struct.unpack(">BBH", data[pos + 4:pos + 8])
        header = KlvHeader(key=key_raw.decode("ascii"), type_code=type_code,
                           item_size=item_size, repeat=repeat)
        pos += 8
        if pos + header.padded_len > total:
            raise InputError(
                f"{header.key}: declares {header.padded_len} payload bytes, "
                f"{total - pos} remain")
        payload = data[pos:pos + header.padded_len]
        pos += header.padded_len
        node = KlvNode(header=header)
        if header.type_code == 0:
            node.children = _parse_nodes(payload[:header.payload_len])
        else:
            node.raw = payload
        nodes.append(node)
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
    """Yield every STRM container anywhere under the given node."""
    stack = [root]
    while stack:
        node = stack.pop(0)
        for child in node.children:
            if child.key == "STRM":
                yield child
            elif child.is_container:
                stack.append(child)


def _numeric(node, key):
    values = node.values()
    if not isinstance(values, np.ndarray):
        raise InputError(f"{key}: {node.key} is not numeric")
    return values


def extract_stream(root, key, axis_order=None):
    """Physically scaled samples of one sensor FourCC as an (n, channels)
    array.

    Concatenates, in order, every STRM container under ``root`` holding
    ``key`` (multiple payload trees are handled by the caller), divides raw
    values element-wise by the sibling SCAL divisors (a divisor that is
    zero or not finite is an `InputError`), and optionally
    re-orders 3-channel device axes into (x, y, z) output order.
    ``axis_order`` names the device channel order, e.g. "zxy" means device
    channel 0 carries z. Returns None when no STRM holds ``key``.
    """
    chunks = []
    for strm in _iter_streams(root):
        data = strm.find(key)
        if data is None:
            continue
        raw = _numeric(data, key)
        expected = SENSOR_CHANNELS.get(key)
        if expected is not None and raw.shape[1] != expected:
            raise InputError(
                f"{key}: expected {expected} channels, got {raw.shape[1]}")
        scal = strm.find("SCAL")
        if scal is not None:
            divisors = _numeric(scal, key).reshape(-1)
            if divisors.size == 1:
                divisors = np.full(raw.shape[1], divisors[0])
            elif divisors.size != raw.shape[1]:
                raise InputError(
                    f"{key}: SCAL has {divisors.size} divisors for "
                    f"{raw.shape[1]} channels")
            bad = divisors[~np.isfinite(divisors) | (divisors == 0)]
            if bad.size:
                raise InputError(f"{key}: SCAL divisor {bad[0]:g} is zero or not finite")
        else:
            divisors = np.ones(raw.shape[1])
        chunks.append(raw / divisors)
    if not chunks:
        return None
    values = np.vstack(chunks)
    if axis_order is not None and values.shape[1] == 3:
        values = values[:, [axis_order.index(a) for a in "xyz"]]
    return values
