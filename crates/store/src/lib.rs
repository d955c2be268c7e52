//! `dl-store` — byte-stable binary model artifacts.
//!
//! Nothing in the stack survived a process before this crate: trained
//! networks and quantized variants all lived as in-memory structs. `dl-store` is the hinge between training and
//! deployment — a hand-rolled, zero-dependency binary format in the
//! ggml lineage (magic + version header, an hparams section, a named
//! tensor directory) with two hard guarantees:
//!
//! 1. **Byte stability.** Saving the same model twice produces the same
//!    bytes: fixed little-endian encoding, insertion-ordered sections, no
//!    hash-map iteration anywhere. A committed golden file regression-
//!    tests the layout itself.
//! 2. **Bit-identical round-trips.** `save → load` reproduces parameters,
//!    structure and forward behaviour exactly. A `dl_compress::QuantizedMlp`
//!    is stored as the packed weight and bias codes plus quant params it
//!    holds — never dequantized on the way to disk — and decodes back into
//!    those same codes, so it re-encodes byte for byte and `load →
//!    dequantize` equals `dequantize → save` to the bit.
//!
//! Tensor payloads start on 64-byte-aligned offsets so the layout is
//! mmap-friendly: a reader can map the file and point kernels straight at
//! the payload bytes. [`Artifact::parse`] checks every byte of a file
//! exactly once, and hashes each byte at most once:
//!
//! - the trailer is the [`checksum`] of the **head**: the header, the
//!   hparams and the tensor directory;
//! - each payload is covered by its own directory checksum alone (the
//!   directory, and so every payload sum, is under the trailer);
//! - every padding byte, between the directory and the first payload and
//!   between payloads, must be zero;
//! - the body ends exactly where the last payload ends (where the
//!   directory ends when there are no tensors), so the trailer follows
//!   it directly.
//!
//! Errors are typed [`StoreError`]s, reported in this order: bad magic;
//! a foreign version ([`StoreError::UnsupportedVersion`], checked right
//! after the magic, so a file of another version is named as such and
//! never fails a later check instead); a file shorter than a header and
//! trailer; damage found walking the sections (bounds, UTF-8, tags,
//! dims, quant bit widths, payload ranges) as
//! [`StoreError::Truncated`] or [`StoreError::Corrupt`]; a trailer that
//! disagrees with the head ([`StoreError::ChecksumMismatch`] on
//! `"file"`); non-zero padding or stray bytes before the trailer
//! ([`StoreError::Corrupt`]); last, the first payload, in directory
//! order, that disagrees with its checksum (a mismatch naming the
//! tensor). The walk comes before the trailer because it is what finds
//! the head's end; it reads every length it follows against the buffer,
//! so a damaged head gives a typed error either way.
//!
//! ```text
//! offset 0        "DLST" magic · u32 version (3)        -+
//!                 u32 hparam count · u32 tensor count    | the head,
//!                 hparams    (name, tagged value) ...    | covered by
//!                 directory  (name, dtype, dims, quant   | the trailer
//!                             params, payload offset,    |
//!                             len, checksum) ...        -+
//!                 -- zero pad to 64 --
//! aligned 64      payload 0  (f32 little-endian or packed int8 codes,
//!                             covered by its directory checksum)
//!                 -- zero pad to 64 --
//! aligned 64      payload 1 ...                         (last payload)
//! end - 8         u64 checksum of the head
//! ```
//!
//! A parse reads names, string and byte hparams and dims in place (see
//! [`HParam`] and [`Dims`]), so it makes two allocations however many
//! sections an artifact holds; [`Scope`] builds the names a decoder
//! looks up in one reused buffer.
//!
//! # The checksum
//!
//! Both checksum fields hold [`checksum`], a 64-bit hash that runs
//! eight independent lanes over little-endian words. It is meant to be
//! re-implemented by tools that verify artifacts without this crate.
//! All arithmetic is on `u64` and wraps modulo 2^64; `SEED` is
//! `0xcbf29ce484222325` (the FNV-1a 64-bit offset basis), `MUL` is
//! `0x9e3779b97f4a7c15`, and one step is
//!
//! ```text
//! step(l, w):  x = (l XOR w) * MUL
//!              return (x XOR (x >> 32)) * MUL      (>> is a logical shift)
//! ```
//!
//! Over `n` input bytes `b[0..n]`:
//!
//! 1. Set the eight lanes `l[0..8]` to `SEED`.
//! 2. For each full 64-byte block starting at byte `64k`, for each lane
//!    `i` in `0..8`: `l[i] = step(l[i], w)`, where `w` is the
//!    little-endian `u64` at bytes `64k + 8i .. 64k + 8i + 8`.
//! 3. The `n % 64` bytes left after the last full block form the tail.
//!    For each tail byte `t[j]` in order: `l[j / 8] = step(l[j / 8],
//!    t[j])`, the byte zero-extended to a `u64`.
//! 4. Fold: `h = step(SEED, n)`, then `h = step(h, l[i])` for `i` in
//!    `0..8`. The checksum is `h`, stored little-endian.
//!
//! The empty input sums to `0x323bd2ee79afccef`. Every step is a
//! bijection in the state and in the absorbed value, so a single
//! changed byte always changes the sum. The shift between the two
//! multiplies is what catches changes to several words: a product only
//! carries upwards and `2^63 * MUL = 2^63`, so with one multiply per
//! step a flipped bit 63 (the sign of every odd-index `f32` in a
//! payload) would pass through every later step unchanged, and two
//! such flips would cancel. Version 1 used serial FNV-1a, one byte per
//! multiply; version 2 had this checksum but a trailer over the whole
//! body, which hashed every payload twice. This build reads neither.
//!
//! On top of the raw [`format`](mod@format) live the model codecs: [`network`]
//! encodes/decodes any f32 `dl_nn::Network` (all eight layer kinds) under
//! a key prefix so several models share one artifact — which is how
//! `dl-serve` persists whole variant families — and, through a codec of
//! its own, a native int8 `dl_compress::QuantizedMlp` as its packed
//! codes.

#![warn(missing_docs)]

pub mod format;
pub mod network;

pub use format::{
    checksum, Artifact, ArtifactBuilder, Dims, Dtype, HParam, Scope, TensorEntry, ALIGN,
};
pub use network::{
    decode_network, decode_quantized_mlp, encode_network, encode_quantized_mlp, load_network,
    save_network,
};

/// Everything that can go wrong reading an artifact.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the `DLST` magic.
    BadMagic([u8; 4]),
    /// The header names a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The buffer ends before a section it promises.
    Truncated {
        /// Bytes the parser needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// What the checksum covers (`"file"` or a tensor name).
        what: String,
        /// Checksum stored in the artifact.
        expected: u64,
        /// Checksum recomputed from the bytes.
        actual: u64,
    },
    /// Structurally invalid content (bad dims, missing entries, ...).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic(m) => write!(f, "bad magic {m:?}, expected \"DLST\""),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Truncated { needed, have } => {
                write!(f, "truncated artifact: needed {needed} bytes, have {have}")
            }
            StoreError::ChecksumMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch on {what}: stored {expected:#018x}, computed {actual:#018x}"
            ),
            StoreError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
