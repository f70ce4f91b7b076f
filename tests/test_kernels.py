import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ealm.kernels import lcs_length, pack_nibbles, unpack_nibbles


def lcs_oracle(a, b):
    # textbook quadratic DP, kept independent of the production path
    la, lb = len(a), len(b)
    dp = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la):
        for j in range(lb):
            if a[i] == b[j]:
                dp[i + 1][j + 1] = dp[i][j] + 1
            else:
                dp[i + 1][j + 1] = max(dp[i][j + 1], dp[i + 1][j])
    return dp[la][lb]


def pack_oracle(codes) -> bytes:
    # two's-complement nibbles, even index in the low half, odd tail padded with 0
    nibs = [int(c) & 0xF for c in codes] + [0] * (len(codes) % 2)
    return bytes(lo | hi << 4 for lo, hi in zip(nibs[0::2], nibs[1::2]))


def test_pack_unpack_parity_and_roundtrip():
    rng = np.random.default_rng(0)
    for n in (0, 1, 2, 7, 64, 255):
        codes = rng.integers(-8, 8, size=n).astype(np.int8)
        packed = pack_nibbles(codes)
        assert bytes(packed) == pack_oracle(codes)
        assert np.array_equal(unpack_nibbles(packed, n), codes)


def test_pack_known_bytes():
    assert bytes(pack_nibbles(np.asarray([3, -1], np.int8))) == b"\xf3"
    assert bytes(pack_nibbles(np.asarray([-8], np.int8))) == b"\x08"


def test_pack_nibbles_examples():
    assert bytes(pack_nibbles(np.asarray([3, -1], np.int8))) == b"\xf3"
    assert bytes(pack_nibbles(np.asarray([], np.int8))) == b""
    single = bytes(pack_nibbles(np.asarray([5], np.int8)))
    assert len(single) == 1 and single[0] >> 4 == 0


@given(st.lists(st.integers(min_value=-8, max_value=7), max_size=64))
@settings(max_examples=200, deadline=None)
def test_pack_nibbles_roundtrip_property(codes):
    arr = np.asarray(codes, dtype=np.int8)
    packed = pack_nibbles(arr)
    assert packed.size == (len(codes) + 1) // 2
    assert unpack_nibbles(packed, len(codes)).tolist() == codes


def test_lcs_against_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.integers(0, 5, size=rng.integers(0, 20)).astype(np.int64)
        b = rng.integers(0, 5, size=rng.integers(0, 20)).astype(np.int64)
        want = lcs_oracle(list(a), list(b))
        assert lcs_length(a, b) == want


def test_lcs_known_values():
    a = np.asarray([1, 2, 3, 4], np.int64)
    b = np.asarray([1, 3, 2, 4], np.int64)
    assert lcs_length(a, b) == 3
    assert lcs_length(a, a) == 4
    assert lcs_length(a, np.asarray([9], np.int64)) == 0
    assert lcs_length(np.asarray([], np.int64), a) == 0


@given(st.lists(st.integers(0, 3), max_size=15), st.lists(st.integers(0, 3), max_size=15))
@settings(max_examples=200, deadline=None)
def test_lcs_property(a, b):
    aa = np.asarray(a, np.int64)
    bb = np.asarray(b, np.int64)
    want = lcs_oracle(a, b)
    assert lcs_length(aa, bb) == want
    assert lcs_length(bb, aa) == want
