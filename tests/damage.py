"""The byte damage the reader property tests apply to a valid file."""

from __future__ import annotations

from hypothesis import strategies as st

# Bytes for overwrites and insertions. 0x7F and 0xFF over a float's high
# byte make an inf or a NaN; 0x80 and 0xFF are never utf-8 on their own.
_BYTE = st.sampled_from([0x00, 0x7F, 0x80, 0xFF]) | st.integers(0, 255)
_BYTES = st.lists(_BYTE, min_size=1, max_size=4).map(bytes)


@st.composite
def damaged(draw, raw: bytes):
    """raw after one to three 1-4 byte overwrites, deletions or
    insertions, or truncations."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["overwrite", "delete", "insert", "truncate"]))
        at = draw(st.integers(0, len(raw)))
        if kind == "overwrite":
            patch = draw(_BYTES)
            raw = raw[:at] + patch + raw[at + len(patch) :]
        elif kind == "delete":
            raw = raw[:at] + raw[at + draw(st.integers(1, 4)) :]
        elif kind == "insert":
            raw = raw[:at] + draw(_BYTES) + raw[at:]
        else:
            raw = raw[:at]
    return raw
