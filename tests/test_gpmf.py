import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwvio import gpmf
from uwvio.errors import InputError
from uwvio.gpmf import (KlvHeader, KlvNode, extract_stream, make_container,
                        make_leaf, parse_klv, write_klv)


def klv_bytes(key, letter, item_size, repeat, payload):
    head = key.encode() + struct.pack(">BBH", 0 if letter is None else ord(letter),
                                      item_size, repeat)
    return head + payload + b"\x00" * (-len(payload) % 4)


def test_single_int32_leaf():
    data = klv_bytes("TSMP", "L", 4, 1, struct.pack(">I", 12345))
    root = parse_klv(data)
    node = root.children[0]
    assert node.key == "TSMP"
    assert not node.is_container
    assert node.values().tolist() == [[12345.0]]


def test_three_channel_int16_leaf():
    payload = struct.pack(">6h", 100, -200, 300, -400, 500, -600)
    data = klv_bytes("ACCL", "s", 6, 2, payload)
    node = parse_klv(data).children[0]
    vals = node.values()
    assert vals.shape == (2, 3)
    assert vals.tolist() == [[100, -200, 300], [-400, 500, -600]]


def test_padding_to_32_bits():
    # 6-byte payload occupies 8 bytes on the wire
    payload = struct.pack(">3h", 1, 2, 3)
    data = klv_bytes("GYRO", "s", 6, 1, payload)
    assert len(data) == 16
    follow = klv_bytes("TSMP", "L", 4, 1, struct.pack(">I", 7))
    root = parse_klv(data + follow)
    assert [c.key for c in root.children] == ["GYRO", "TSMP"]


def test_nested_container():
    inner = klv_bytes("SCAL", "l", 4, 1, struct.pack(">i", 418))
    inner += klv_bytes("ACCL", "l", 12, 1, struct.pack(">3i", 418, 836, -418))
    strm = klv_bytes("STRM", None, 1, len(inner), inner)
    devc = klv_bytes("DEVC", None, 1, len(strm), strm)
    root = parse_klv(devc)
    assert root.children[0].key == "DEVC"
    strm_node = root.children[0].children[0]
    assert strm_node.key == "STRM"
    assert [c.key for c in strm_node.children] == ["SCAL", "ACCL"]


def test_text_type():
    data = klv_bytes("SIUN", "c", 4, 1, b"m/s2")
    assert parse_klv(data).children[0].values() == ["m/s2"]


def test_truncated_header():
    with pytest.raises(InputError, match="^trailing 3 bytes, need 8 for a header$"):
        parse_klv(b"ACC")


def test_truncated_payload():
    data = klv_bytes("ACCL", "l", 12, 4, b"\x00" * 12)
    with pytest.raises(InputError, match="^ACCL: declares 48 payload bytes, 12 remain$"):
        parse_klv(data[:20])


def test_unknown_type_letter_is_opaque_until_decoded():
    data = klv_bytes("XXXX", "?", 4, 1, b"\xde\xad\xbe\xef")
    node = parse_klv(data).children[0]
    assert node.key == "XXXX"
    with pytest.raises(InputError, match="^XXXX: unsupported type letter '\\?'$"):
        node.values()


def test_scal_division():
    strm = make_container("STRM", [
        make_leaf("SCAL", "l", [418]),
        make_leaf("ACCL", "l", np.array([[418, 836, -209]]), channels=3),
    ])
    root = parse_klv(write_klv([make_container("DEVC", [strm])]))
    stream = extract_stream(root, "ACCL")
    assert np.allclose(stream, [[1.0, 2.0, -0.5]])


def test_per_channel_scal():
    strm = make_container("STRM", [
        make_leaf("SCAL", "l", [1, 2, 4]),
        make_leaf("GYRO", "l", np.array([[8, 8, 8]]), channels=3),
    ])
    stream = extract_stream(parse_klv(write_klv([strm])), "GYRO")
    assert np.allclose(stream, [[8.0, 4.0, 2.0]])


def test_scal_channel_mismatch():
    strm = make_container("STRM", [
        make_leaf("SCAL", "l", [1, 2]),
        make_leaf("GYRO", "l", np.array([[8, 8, 8]]), channels=3),
    ])
    with pytest.raises(InputError, match="^GYRO: SCAL has 2 divisors for 3 channels$"):
        extract_stream(parse_klv(write_klv([strm])), "GYRO")


@pytest.mark.parametrize("letter, divisors", [
    ("l", [0]), ("l", [1, 0, 4]), ("f", [np.inf]), ("f", [1.0, 2.0, np.nan])])
def test_zero_or_non_finite_scal_rejected(letter, divisors):
    strm = make_container("STRM", [
        make_leaf("SCAL", letter, divisors),
        make_leaf("ACCL", "l", np.array([[8, 8, 8]]), channels=3),
    ])
    with pytest.raises(InputError, match="^ACCL: SCAL divisor .* is zero or not finite$"):
        extract_stream(parse_klv(write_klv([strm])), "ACCL")


def test_missing_stream():
    strm = make_container("STRM", [make_leaf("SHUT", "f", [[0.01]], channels=1)])
    assert extract_stream(parse_klv(write_klv([strm])), "ACCL") is None


def test_axis_order_permutation():
    strm = make_container("STRM", [
        make_leaf("ACCL", "l", np.array([[10, 20, 30]]), channels=3),
    ])
    root = parse_klv(write_klv([strm]))
    # device order "zxy": channel0=z, channel1=x, channel2=y
    stream = extract_stream(root, "ACCL", axis_order="zxy")
    assert stream.tolist() == [[20.0, 30.0, 10.0]]
    identity = extract_stream(root, "ACCL")
    assert identity.tolist() == [[10.0, 20.0, 30.0]]


def test_duplicate_streams_concatenate_in_order():
    def strm(vals):
        return make_container("STRM", [
            make_leaf("ACCL", "l", np.asarray(vals), channels=3)])
    root = parse_klv(write_klv([strm([[1, 2, 3]]), strm([[4, 5, 6]])]))
    stream = extract_stream(root, "ACCL")
    assert stream.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_all_scalar_types_round_trip_values():
    cases = {
        "b": [-128, 127], "B": [0, 255], "s": [-32768, 32767],
        "S": [0, 65535], "l": [-2**31, 2**31 - 1], "L": [0, 2**32 - 1],
        "j": [-2**63, 2**63 - 1], "J": [0, 2**63], "f": [1.5, -0.25],
        "d": [1e-300, -1e300],
    }
    for letter, vals in cases.items():
        leaf = make_leaf("TEST", letter, vals)
        node = parse_klv(write_klv([leaf])).children[0]
        got = node.values().reshape(-1)
        assert np.array_equal(got, np.array(vals, dtype=float)), letter


# --- property: write -> parse is the identity on random trees --------------

_scalar_letters = sorted(gpmf.SCALAR_TYPES)

_keys = st.text(alphabet=st.characters(min_codepoint=0x41, max_codepoint=0x5A),
                min_size=4, max_size=4)


@st.composite
def leaf_nodes(draw):
    letter = draw(st.sampled_from(_scalar_letters + ["c"]))
    key = draw(_keys)
    if letter == "c":
        strings = draw(st.lists(
            st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                    min_size=1, max_size=8), min_size=1, max_size=3))
        return make_leaf(key, letter, strings)
    if letter == "f":
        vals = draw(st.lists(st.floats(-1e4, 1e4, width=32), min_size=1, max_size=6))
    elif letter == "d":
        vals = draw(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=6))
    else:
        lo = -100 if letter in "bsljj" else 0
        vals = draw(st.lists(st.integers(lo, 100), min_size=1, max_size=6))
    return make_leaf(key, letter, vals)


def klv_trees(depth):
    if depth == 0:
        return leaf_nodes()
    return st.one_of(
        leaf_nodes(),
        st.builds(make_container, _keys,
                  st.lists(klv_trees(depth - 1), min_size=0, max_size=3)),
    )


def assert_nodes_equal(a, b):
    assert a.header == b.header
    assert a.raw == b.raw
    assert len(a.children) == len(b.children)
    for ca, cb in zip(a.children, b.children):
        assert_nodes_equal(ca, cb)


@settings(max_examples=150, deadline=None)
@given(st.lists(klv_trees(3), min_size=1, max_size=4))
def test_write_parse_round_trip(nodes):
    wire = write_klv(nodes)
    assert len(wire) % 4 == 0
    reparsed = parse_klv(wire)
    assert len(reparsed.children) == len(nodes)
    for orig, back in zip(nodes, reparsed.children):
        assert_nodes_equal(orig, back)
    # second generation is byte-identical
    assert write_klv(reparsed.children) == wire


def test_scaling_linearity():
    raw = np.array([[300, -600, 900]])
    def scaled(divisor):
        strm = make_container("STRM", [
            make_leaf("SCAL", "l", [divisor]),
            make_leaf("ACCL", "l", raw, channels=3),
        ])
        return extract_stream(parse_klv(write_klv([strm])), "ACCL")
    assert np.allclose(scaled(100) * 100, scaled(50) * 50)
    assert np.allclose(scaled(100), scaled(300) * 3)
