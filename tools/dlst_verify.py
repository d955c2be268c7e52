#!/usr/bin/env python3
"""Verify DLST artifacts against the format spec, without the Rust crate.

An independent re-implementation, standard library only, of what the
`dl-store` crate docs specify: the 8-lane checksum and the version-3
layout, in which every byte of a file has exactly one check.

- The trailer (the last 8 bytes) holds the checksum of the head: the
  header, hparams and tensor directory.
- Each payload is covered by its own directory checksum alone.
- Every padding byte (between the directory and the first payload, and
  between payloads) must be zero.
- The last payload ends where the trailer starts (the directory does,
  when there are no tensors).

Checks run in the crate's order: magic, version, length, the section
walk, trailer, padding, payload sums. Run from the repository root:

    python3 tools/dlst_verify.py [ARTIFACT ...]

With no argument it verifies crates/store/tests/golden/tiny_mlp.dlst.
Before the files it checks the checksum's known answers; after each file
it checks that every copy with one flipped byte is rejected. Exit status
1 names the first failure.
"""

import pathlib
import struct
import sys

GOLDEN = pathlib.Path("crates/store/tests/golden/tiny_mlp.dlst")
MAGIC = b"DLST"
VERSION = 3
ALIGN = 64
MASK = (1 << 64) - 1
SEED = 0xCBF29CE484222325
MUL = 0x9E3779B97F4A7C15

# (length of the input 0, 1, 2, ... wrapping at 256, checksum): the
# known answers the crate's own tests pin.
KNOWN_ANSWERS = [
    (0, 0x323BD2EE79AFCCEF),
    (1, 0x8E38BFD7A0114A18),
    (7, 0x7BD1DC163F6E375C),
    (63, 0x40330AFC1A02664C),
    (64, 0xCFA706EA1D96F277),
    (65, 0x296A775D9B8D5BE4),
    (1000, 0xFF0AAB410C34AB0A),
]


class Reject(Exception):
    """The artifact breaks a rule of the format."""


def step(lane, word):
    x = ((lane ^ word) * MUL) & MASK
    return ((x ^ (x >> 32)) * MUL) & MASK


def checksum(data):
    lanes = [SEED] * 8
    full = len(data) - len(data) % 64
    for block in range(0, full, 64):
        for i in range(8):
            (word,) = struct.unpack_from("<Q", data, block + 8 * i)
            lanes[i] = step(lanes[i], word)
    for j, byte in enumerate(data[full:]):
        lanes[j // 8] = step(lanes[j // 8], byte)
    h = step(SEED, len(data))
    for lane in lanes:
        h = step(h, lane)
    return h


class Walk:
    """Bounds-checked little-endian reads over the body (no trailer)."""

    def __init__(self, body):
        self.body = body
        self.pos = 8

    def take(self, n):
        if self.pos + n > len(self.body):
            raise Reject(f"truncated: a field at {self.pos} needs {n} bytes")
        out = self.body[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def text(self):
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise Reject(f"non-UTF-8 text before {self.pos}") from None


def walk_sections(body):
    """The tensor directory and where the head ends."""
    w = Walk(body)
    n_hparams, n_tensors = w.u32(), w.u32()
    for _ in range(n_hparams):
        name = w.text()
        tag = w.u8()
        if tag in (0, 1):
            w.u64()
        elif tag == 2:
            w.text()
        elif tag == 3:
            w.take(w.u32())
        else:
            raise Reject(f"hparam {name!r}: unknown tag {tag}")
    entries = []
    prev_end = 0
    for _ in range(n_tensors):
        name = w.text()
        dtype = w.u8()
        if dtype not in (0, 1):
            raise Reject(f"tensor {name!r}: unknown dtype {dtype}")
        elements = 1
        for _ in range(w.u32()):
            elements *= w.u64()
        if dtype == 1:
            w.take(8)  # scale and zero point, two f32s
            bits = w.u8()
            if not 1 <= bits <= 8:
                raise Reject(f"tensor {name!r}: {bits}-bit codes")
        offset, length, stored = w.u64(), w.u64(), w.u64()
        if offset % ALIGN:
            raise Reject(f"tensor {name!r}: payload offset {offset} unaligned")
        if offset < prev_end:
            raise Reject(f"tensor {name!r}: payload overlaps the previous one")
        if offset + length > len(body):
            raise Reject(f"tensor {name!r}: payload runs past the trailer")
        if length != elements * (4 if dtype == 0 else 1):
            raise Reject(f"tensor {name!r}: {length} bytes for {elements} elements")
        prev_end = offset + length
        entries.append((name, offset, length, stored))
    if entries and entries[0][1] < w.pos:
        raise Reject(f"tensor {entries[0][0]!r}: payload starts inside the directory")
    return entries, w.pos


def verify(data):
    """Raises Reject unless `data` is a valid version-3 artifact."""
    if data[:4] != MAGIC:
        raise Reject(f"bad magic {data[:4]!r}")
    if len(data) < 8:
        raise Reject("truncated header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise Reject(f"unsupported version {version}")
    if len(data) < 24:
        raise Reject("shorter than a header and trailer")
    body = data[:-8]
    entries, head = walk_sections(body)
    (trailer,) = struct.unpack_from("<Q", data, len(data) - 8)
    if checksum(body[:head]) != trailer:
        raise Reject("trailer does not match the head")
    at = head
    for name, offset, length, _ in entries:
        if any(body[at:offset]):
            raise Reject(f"non-zero padding before tensor {name!r}")
        at = offset + length
    if at != len(body):
        raise Reject(f"{len(body) - at} stray bytes before the trailer")
    for name, offset, length, stored in entries:
        if checksum(body[offset : offset + length]) != stored:
            raise Reject(f"tensor {name!r}: payload checksum mismatch")
    return head, entries


def main(argv):
    for length, want in KNOWN_ANSWERS:
        got = checksum(bytes(i % 256 for i in range(length)))
        if got != want:
            print(f"checksum of {length} counting bytes is {got:#018x}, spec says {want:#018x}")
            return 1
    paths = [pathlib.Path(p) for p in argv] or [GOLDEN]
    for path in paths:
        data = path.read_bytes()
        try:
            head, entries = verify(data)
        except Reject as e:
            print(f"{path}: rejected: {e}")
            return 1
        for at in range(len(data)):
            flipped = bytearray(data)
            flipped[at] ^= 0x01
            try:
                verify(bytes(flipped))
            except Reject:
                continue
            print(f"{path}: a flipped byte {at} still verifies")
            return 1
        print(
            f"ok: {path} ({len(data)} bytes, {head}-byte head, {len(entries)} tensors); "
            f"all {len(data)} one-byte flips rejected"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
