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
//!    structure and forward behaviour exactly. Int8 tensors from
//!    `dl-compress` are stored as their packed codes plus quant params —
//!    never dequantized on the way to disk — so `load → dequantize`
//!    equals `dequantize → save` to the bit.
//!
//! Tensor payloads start on 64-byte-aligned offsets so the layout is
//! mmap-friendly: a reader can map the file and point kernels straight at
//! the payload bytes. Corruption is detected twice over — a whole-file
//! checksum in the trailer and a per-tensor payload checksum in the
//! directory, both verified by [`Artifact::parse`] in one walk that
//! hashes each byte once — with typed [`StoreError`]s for truncation,
//! bad magic and checksum mismatches.
//!
//! ```text
//! offset 0        "DLST" magic · u32 version
//!                 u32 hparam count · u32 tensor count
//!                 hparams      (name, tagged value) ...
//!                 directory    (name, dtype, dims, quant params,
//!                               payload offset/len/checksum) ...
//!                 -- zero pad to 64 --
//! aligned 64      payload 0    (f32 little-endian or packed int8 codes)
//!                 -- zero pad to 64 --
//! aligned 64      payload 1 ...
//! end - 8         u64 FNV-1a checksum of every preceding byte
//! ```
//!
//! On top of the raw [`format`](mod@format) live the model codecs: [`network`]
//! encodes/decodes any `dl_nn::Network` (all eight layer kinds) under a
//! key prefix so several models share one artifact — which is how
//! `dl-serve` persists whole variant families.

#![warn(missing_docs)]

pub mod format;
pub mod network;

pub use format::{fnv1a, Artifact, ArtifactBuilder, Dtype, HParam, TensorEntry, ALIGN};
pub use network::{
    decode_network, decode_network_with_quant, encode_network, encode_network_q8, load_network,
    load_network_file, save_network, save_network_file,
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
