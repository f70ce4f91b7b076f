"""Inner-loop kernels in numpy: nibble packing, N:M masks, LCS length."""

import numpy as np

# There is no JIT path; the flag stays for tools that report the environment.
HAS_NUMBA = False


# ---------------------------------------------------------------------------
# 4-bit nibble packing (two's complement, low nibble = even index)


def pack_nibbles(codes):
    codes = np.asarray(codes, dtype=np.int8)
    n = codes.size
    padded = np.zeros((n + 1) // 2 * 2, dtype=np.int8)
    padded[:n] = codes
    u = (padded.astype(np.int16) & 0xF).astype(np.uint8)
    return (u[0::2] | (u[1::2] << 4)).astype(np.uint8)


def unpack_nibbles(packed, n):
    packed = np.asarray(packed, dtype=np.uint8)
    u = np.empty(packed.size * 2, dtype=np.uint8)
    u[0::2] = packed & 0xF
    u[1::2] = packed >> 4
    u = u[:n]
    signed = u.astype(np.int8)
    signed[u >= 8] -= 16
    return signed


# ---------------------------------------------------------------------------
# N:M sparsity mask for one matrix: per row, in each consecutive group of m,
# keep the n largest |w| (ties keep the lower in-group index). Trailing
# partial group of size g keeps min(n, g).


def nm_mask_kernel(w, n, m):
    rows, cols = w.shape
    mask = np.zeros((rows, cols), dtype=np.bool_)
    a = np.abs(w)
    full = cols // m * m
    if full:
        groups = a[:, :full].reshape(rows, -1, m)
        # stable argsort ascending; last n per group are the keepers, but ties
        # must keep the LOWER index, so sort by (-|w|, index) via lexsort-free
        # trick: argsort of -|w| with stable kind keeps lower index first.
        order = np.argsort(-groups, axis=2, kind="stable")
        keep = order[:, :, :n]
        gm = np.zeros_like(groups, dtype=np.bool_)
        np.put_along_axis(gm, keep, True, axis=2)
        mask[:, :full] = gm.reshape(rows, full)
    g = cols - full
    if g:
        tail = a[:, full:]
        order = np.argsort(-tail, axis=1, kind="stable")
        keep = order[:, : min(n, g)]
        tm = np.zeros_like(tail, dtype=np.bool_)
        np.put_along_axis(tm, keep, True, axis=1)
        mask[:, full:] = tm
    return mask


# ---------------------------------------------------------------------------
# Longest common subsequence length over integer id sequences (ROUGE-L).


def lcs_length(a, b):
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0
    prev = np.zeros(lb + 1, dtype=np.int64)
    cur = np.zeros(lb + 1, dtype=np.int64)
    for i in range(la):
        eq = b == a[i]
        cur[1:] = np.where(eq, prev[:-1] + 1, 0)
        np.maximum.accumulate(np.maximum(cur[1:], prev[1:]), out=cur[1:])
        prev, cur = cur, prev
    return int(prev[lb])

