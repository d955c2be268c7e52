//! The raw artifact format: builder, parser, checksums.
//!
//! Everything is little-endian and insertion-ordered; there is no
//! hash-map anywhere in the encode path, so the same inputs always
//! produce the same bytes. See the crate docs for the layout diagram and
//! for which check covers which bytes.

use crate::StoreError;
use dl_compress::QuantizedTensor;
use dl_tensor::Tensor;
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// File magic: the first four bytes of every artifact.
const MAGIC: [u8; 4] = *b"DLST";

/// Format version this build writes and reads: 3, whose trailer covers
/// the header, hparams and directory, and whose payloads are covered by
/// their directory checksums alone.
const VERSION: u32 = 3;

/// Tensor payload alignment in bytes. Payload offsets are multiples of
/// this, so a memory-mapped artifact can hand kernels cache-line- and
/// SIMD-aligned pointers without copying.
pub const ALIGN: usize = 64;

/// Minimum parseable artifact: header (16 bytes) + trailer checksum (8).
const MIN_LEN: usize = 24;

/// Fewest bytes an hparam takes (empty name, tag, empty string) and a
/// directory entry takes (empty name, dtype, no dims, offset, length,
/// checksum). A walk reserves no more of either than the bytes left
/// could hold, whatever count the header claims.
const MIN_HPARAM_LEN: usize = 4 + 1 + 4;
const MIN_ENTRY_LEN: usize = 4 + 1 + 4 + 24;

/// Seed of every lane and of the fold: the FNV-1a 64-bit offset basis.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd multiplier of [`mix`]: 2^64 divided by the golden ratio, the
/// usual dense constant of multiplicative hashing.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Independent lanes in [`checksum`]; one block is one `u64` per lane.
const LANES: usize = 8;
const BLOCK: usize = 8 * LANES;

/// One lane step: absorb `w` into `l`, then multiply, fold the high
/// half down, multiply again. Each part is a bijection. A product only
/// carries upwards, and `2^63 * MUL = 2^63` (mod 2^64), so with one
/// multiply per step, shifted or rotated before or after, some flipped
/// bit would cross a step as a fixed difference and two flips could
/// cancel; the shift between two multiplies leaves no such bit.
fn mix(l: u64, w: u64) -> u64 {
    let x = (l ^ w).wrapping_mul(MUL);
    (x ^ (x >> 32)).wrapping_mul(MUL)
}

/// The format's checksum: eight interleaved lanes, each absorbing a
/// little-endian word per step, then folded with the length. The lane
/// chains are independent, so the CPU overlaps them. Each lane step
/// passes through `black_box`, which keeps the lanes in scalar
/// registers: on AVX-512 targets LLVM otherwise packs them into
/// `vpmullq` vector multiplies, which run about half as fast as eight
/// scalar chains. The barrier changes speed only, never the bits.
///
/// The crate docs spell the algorithm out for external verifiers. Every
/// step is a bijection in the state and in the absorbed value, so any
/// change confined to one lane word or one tail byte (a single flipped
/// byte, for instance) changes the sum; each step also spreads any
/// change over the whole lane, so changes in several words do not
/// cancel by construction.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [SEED; LANES];
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (l, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(w.try_into().expect("8 bytes"));
            *l = std::hint::black_box(mix(*l, w));
        }
    }
    for (j, &b) in blocks.remainder().iter().enumerate() {
        lanes[j / 8] = mix(lanes[j / 8], u64::from(b));
    }
    lanes
        .iter()
        .fold(mix(SEED, bytes.len() as u64), |h, &l| mix(h, l))
}

/// Payload element encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// Little-endian `f32`s, 4 bytes per element.
    F32,
    /// Packed int8 affine codes from `dl-compress`, 1 byte per element,
    /// with scale / zero point / bit width carried in the directory.
    Q8,
}

impl Dtype {
    fn tag(self) -> u8 {
        match self {
            Dtype::F32 => 0,
            Dtype::Q8 => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Dtype::F32),
            1 => Some(Dtype::Q8),
            _ => None,
        }
    }

    fn elem_bytes(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::Q8 => 1,
        }
    }
}

/// A typed hparam value. Floating hyper-parameters that must round-trip
/// exactly are stored as bit patterns in [`HParam::U64`] by convention
/// (the codecs in [`crate::network`] do this for every `f32` knob).
///
/// A parsed artifact's `Str` and `Bytes` values borrow its bytes; a
/// value handed to an [`ArtifactBuilder`] may borrow or own.
#[derive(Debug, Clone, PartialEq)]
pub enum HParam<'a> {
    /// Unsigned integer (also used for `f32`/`f64` bit patterns).
    U64(u64),
    /// Double-precision float (only for values where rounding is benign).
    F64(f64),
    /// UTF-8 string.
    Str(Cow<'a, str>),
    /// Opaque bytes (e.g. shard cursors packed little-endian).
    Bytes(Cow<'a, [u8]>),
}

/// The dimensions of a directory entry, read in place from the
/// artifact (one little-endian `u64` each), so a parse allocates
/// nothing per entry.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Dims<'a>(&'a [u8]);

impl<'a> Dims<'a> {
    /// Number of dimensions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// Whether there are no dimensions (a scalar).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The dimensions in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = usize> + 'a {
        let words = self.0.as_chunks::<8>().0;
        words.iter().map(|w| u64::from_le_bytes(*w) as usize)
    }

    /// The dimensions as an owned list, such as a tensor's shape.
    #[must_use]
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl fmt::Debug for Dims<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One tensor directory entry, as parsed back from an artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorEntry<'a> {
    /// Namespaced tensor name (e.g. `net.layer0.weight`).
    pub name: &'a str,
    /// Payload encoding.
    pub dtype: Dtype,
    /// Logical dimensions.
    pub dims: Dims<'a>,
    /// Absolute payload offset (a multiple of [`ALIGN`]).
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// [`checksum`] of the payload bytes.
    pub checksum: u64,
    /// `(scale, zero, bits)` for [`Dtype::Q8`] entries; `bits` is 1 to 8.
    pub quant: Option<(f32, f32, u8)>,
}

/// A tensor waiting for [`ArtifactBuilder::finish`], its payload still
/// borrowed from the caller.
struct PendingTensor<'a> {
    name: String,
    dims: Vec<usize>,
    payload: Payload<'a>,
}

/// A borrowed payload, written into the artifact once by `finish`.
enum Payload<'a> {
    F32(&'a [f32]),
    Q8 {
        codes: &'a [u8],
        scale: f32,
        zero: f32,
        bits: u8,
    },
}

impl Payload<'_> {
    fn dtype(&self) -> Dtype {
        match self {
            Payload::F32(_) => Dtype::F32,
            Payload::Q8 { .. } => Dtype::Q8,
        }
    }

    /// Encoded length in bytes.
    fn len(&self) -> usize {
        match self {
            Payload::F32(data) => data.len() * 4,
            Payload::Q8 { codes, .. } => codes.len(),
        }
    }

    /// Appends the encoded bytes: `f32` little-endian, codes as they are.
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Payload::F32(data) => {
                for v in *data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Payload::Q8 { codes, .. } => out.extend_from_slice(codes),
        }
    }
}

/// Incrementally assembles an artifact; [`ArtifactBuilder::finish`]
/// lays out the bytes. Hparams and tensors keep insertion order, and
/// names are checked for duplicates once, when the bytes are laid out.
/// Hparam values and tensor payloads are borrowed for `'a`, so each
/// payload is copied exactly once, into the finished artifact.
#[derive(Default)]
#[must_use = "a builder does nothing until finish() lays out the bytes"]
pub struct ArtifactBuilder<'a> {
    hparams: Vec<(String, HParam<'a>)>,
    tensors: Vec<PendingTensor<'a>>,
}

impl<'a> ArtifactBuilder<'a> {
    /// An empty builder.
    pub fn new() -> Self {
        ArtifactBuilder::default()
    }

    /// Appends one hparam.
    pub fn hparam(&mut self, name: impl Into<String>, value: HParam<'a>) {
        self.hparams.push((name.into(), value));
    }

    /// Appends an `f32` tensor.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the product of `dims`.
    pub fn tensor_f32(&mut self, name: impl Into<String>, dims: &[usize], data: &'a [f32]) {
        let len: usize = dims.iter().product();
        assert_eq!(data.len(), len, "payload length must match dims");
        self.tensors.push(PendingTensor {
            name: name.into(),
            dims: dims.to_vec(),
            payload: Payload::F32(data),
        });
    }

    /// Appends a packed-int8 tensor: the raw codes plus quant params,
    /// exactly as held by a `dl_compress::QuantizedTensor`.
    ///
    /// # Panics
    /// Panics if the code count does not match the product of `dims`.
    pub fn tensor_q8(
        &mut self,
        name: impl Into<String>,
        dims: &[usize],
        codes: &'a [u8],
        scale: f32,
        zero: f32,
        bits: u8,
    ) {
        let len: usize = dims.iter().product();
        assert_eq!(codes.len(), len, "code count must match dims");
        self.tensors.push(PendingTensor {
            name: name.into(),
            dims: dims.to_vec(),
            payload: Payload::Q8 {
                codes,
                scale,
                zero,
                bits,
            },
        });
    }

    /// Size of the directory entry for `t` once encoded.
    fn entry_len(t: &PendingTensor<'_>) -> usize {
        // name (4 + bytes) + dtype (1) + ndims (4) + dims (8 each)
        // + quant (4+4+1 for Q8) + offset (8) + len (8) + checksum (8)
        let quant = match t.payload {
            Payload::Q8 { .. } => 9,
            Payload::F32(_) => 0,
        };
        4 + t.name.len() + 1 + 4 + 8 * t.dims.len() + quant + 24
    }

    /// Lays out the final byte image: header, hparams, directory,
    /// aligned payloads, trailer. Every byte is hashed once: each
    /// payload for its directory entry, the head (header, hparams,
    /// directory) for the trailer.
    ///
    /// # Panics
    /// Panics on a duplicate hparam or tensor name — keys are namespaced
    /// by the codecs, so a collision is a programming error, not a data
    /// error.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        assert_unique("hparam", self.hparams.iter().map(|(n, _)| n.as_str()));
        assert_unique("tensor", self.tensors.iter().map(|t| t.name.as_str()));
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, self.hparams.len() as u32);
        put_u32(&mut out, self.tensors.len() as u32);
        for (name, value) in &self.hparams {
            put_str(&mut out, name);
            match value {
                HParam::U64(v) => {
                    out.push(0);
                    put_u64(&mut out, *v);
                }
                HParam::F64(v) => {
                    out.push(1);
                    put_u64(&mut out, v.to_bits());
                }
                HParam::Str(s) => {
                    out.push(2);
                    put_str(&mut out, s);
                }
                HParam::Bytes(b) => {
                    out.push(3);
                    put_u32(&mut out, b.len() as u32);
                    out.extend_from_slice(b);
                }
            }
        }

        // Directory size is known up front, so payload offsets are too.
        let dir_start = out.len();
        let head_len = dir_start + self.tensors.iter().map(Self::entry_len).sum::<usize>();
        let mut end = head_len;
        let mut offsets = Vec::with_capacity(self.tensors.len());
        for t in &self.tensors {
            let offset = align_up(end);
            offsets.push(offset);
            end = offset + t.payload.len();
        }
        out.reserve_exact(end + 8 - out.len());

        // Payloads first, straight from the borrowed data; the directory
        // in front of them is written once they can be hashed in place.
        out.resize(head_len, 0);
        for (t, &off) in self.tensors.iter().zip(&offsets) {
            out.resize(off, 0);
            t.payload.write(&mut out);
        }
        let mut dir = Vec::with_capacity(head_len - dir_start);
        for (t, &off) in self.tensors.iter().zip(&offsets) {
            let len = t.payload.len();
            put_str(&mut dir, &t.name);
            dir.push(t.payload.dtype().tag());
            put_u32(&mut dir, t.dims.len() as u32);
            for &d in &t.dims {
                put_u64(&mut dir, d as u64);
            }
            if let Payload::Q8 {
                scale, zero, bits, ..
            } = t.payload
            {
                put_u32(&mut dir, scale.to_bits());
                put_u32(&mut dir, zero.to_bits());
                dir.push(bits);
            }
            put_u64(&mut dir, off as u64);
            put_u64(&mut dir, len as u64);
            put_u64(&mut dir, checksum(&out[off..off + len]));
        }
        out[dir_start..head_len].copy_from_slice(&dir);
        let trailer = checksum(&out[..head_len]);
        put_u64(&mut out, trailer);
        out
    }
}

/// Panics naming a `what` that `names` holds twice: one sort, so a
/// family's hundreds of names cost a few thousand compares, not one per
/// pair.
fn assert_unique<'n>(what: &str, names: impl Iterator<Item = &'n str>) {
    let mut sorted: Vec<&str> = names.collect();
    sorted.sort_unstable();
    if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
        panic!("duplicate {what} {:?}", pair[0]);
    }
}

fn align_up(n: usize) -> usize {
    n.div_ceil(ALIGN) * ALIGN
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A parsed artifact view over a byte buffer. Parsing verifies
/// everything up front: magic, version, structure, the trailer over the
/// head, the zero padding and every per-tensor payload checksum. Names,
/// string and byte hparams and dims are read in place, so a parse makes
/// two allocations however many sections the artifact holds. Reads
/// after a successful parse slice the verified bytes without re-hashing
/// them.
#[derive(Debug)]
#[must_use = "a parsed artifact is a read-only view; query it for tensors"]
pub struct Artifact<'a> {
    data: &'a [u8],
    hparams: Vec<(&'a str, HParam<'a>)>,
    entries: Vec<TensorEntry<'a>>,
    head_len: usize,
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or(StoreError::Truncated {
            needed: usize::MAX,
            have: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(StoreError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<&'a str, StoreError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| StoreError::Corrupt("non-UTF-8 name".into()))
    }

    /// The most items of `min_len` bytes each that the rest could hold.
    fn room_for(&self, count: usize, min_len: usize) -> usize {
        count.min((self.buf.len() - self.pos) / min_len)
    }
}

/// The hparams and directory of an artifact, and where the directory
/// ends: the end of the head that the trailer covers.
struct Sections<'a> {
    hparams: Vec<(&'a str, HParam<'a>)>,
    entries: Vec<TensorEntry<'a>>,
    head_len: usize,
}

/// Walks the hparams and directory that follow the magic and version in
/// `body`, the artifact without its trailer. The walk runs before any
/// checksum (it finds the end of the head the trailer covers), and a
/// matching trailer would prove nothing about intent anyway, so every
/// read is bounds-checked and no count the file claims reserves more
/// than the bytes left could hold: any
/// byte pattern yields sections or a typed error without a huge
/// allocation. Payload ranges must start after the directory and ascend
/// without overlap, as [`ArtifactBuilder::finish`] writes them; q8
/// codes must take 1 to 8 bits; anything else is [`StoreError::Corrupt`].
/// `file_len` is the whole artifact's length, for
/// [`StoreError::Truncated`].
fn parse_sections(body: &[u8], file_len: usize) -> Result<Sections<'_>, StoreError> {
    let mut c = Cursor { buf: body, pos: 8 };
    let n_hparams = c.u32()? as usize;
    let n_tensors = c.u32()? as usize;

    let mut hparams = Vec::with_capacity(c.room_for(n_hparams, MIN_HPARAM_LEN));
    for _ in 0..n_hparams {
        let name = c.str()?;
        let value = match c.u8()? {
            0 => HParam::U64(c.u64()?),
            1 => HParam::F64(f64::from_bits(c.u64()?)),
            2 => HParam::Str(Cow::Borrowed(c.str()?)),
            3 => {
                let len = c.u32()? as usize;
                HParam::Bytes(Cow::Borrowed(c.take(len)?))
            }
            tag => {
                return Err(StoreError::Corrupt(format!(
                    "unknown hparam tag {tag} for {name:?}"
                )))
            }
        };
        hparams.push((name, value));
    }

    let mut entries: Vec<TensorEntry<'_>> =
        Vec::with_capacity(c.room_for(n_tensors, MIN_ENTRY_LEN));
    let mut prev_end = 0;
    for _ in 0..n_tensors {
        let name = c.str()?;
        let dtype = Dtype::from_tag(c.u8()?)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown dtype for {name:?}")))?;
        let ndims = c.u32()? as usize;
        let dims = Dims(c.take(ndims.saturating_mul(8))?);
        let quant = match dtype {
            Dtype::F32 => None,
            Dtype::Q8 => {
                let scale = f32::from_bits(c.u32()?);
                let zero = f32::from_bits(c.u32()?);
                let bits = c.u8()?;
                if !(1..=8).contains(&bits) {
                    return Err(StoreError::Corrupt(format!(
                        "tensor {name:?} claims {bits}-bit codes; q8 codes take 1 to 8 bits"
                    )));
                }
                Some((scale, zero, bits))
            }
        };
        let offset = c.u64()? as usize;
        let len = c.u64()? as usize;
        let checksum = c.u64()?;
        if !offset.is_multiple_of(ALIGN) {
            return Err(StoreError::Corrupt(format!(
                "tensor {name:?} payload offset {offset} is not {ALIGN}-byte aligned"
            )));
        }
        if offset < prev_end {
            return Err(StoreError::Corrupt(format!(
                "tensor {name:?} payload at {offset} starts before the previous one ends at {prev_end}"
            )));
        }
        let end = offset.checked_add(len).ok_or_else(|| {
            StoreError::Corrupt(format!("tensor {name:?} payload range overflows"))
        })?;
        prev_end = end;
        if end > body.len() {
            return Err(StoreError::Truncated {
                needed: end.saturating_add(8),
                have: file_len,
            });
        }
        let expect = dims
            .iter()
            .try_fold(dtype.elem_bytes(), usize::checked_mul)
            .ok_or_else(|| {
                StoreError::Corrupt(format!("tensor {name:?} dims {dims:?} overflow"))
            })?;
        if len != expect {
            return Err(StoreError::Corrupt(format!(
                "tensor {name:?} payload is {len} bytes for dims {dims:?}"
            )));
        }
        entries.push(TensorEntry {
            name,
            dtype,
            dims,
            offset,
            len,
            checksum,
            quant,
        });
    }
    let head_len = c.pos;
    if let Some(first) = entries.first().filter(|e| e.offset < head_len) {
        return Err(StoreError::Corrupt(format!(
            "tensor {:?} payload at {} starts inside the directory, which ends at {head_len}",
            first.name, first.offset
        )));
    }
    Ok(Sections {
        hparams,
        entries,
        head_len,
    })
}

/// Requires every byte of `body` outside the head and the payloads to be
/// zero, and the body to end where the last payload ends (where the head
/// ends when there are no tensors). `entries` ascend from `head_len`, as
/// [`parse_sections`] checked.
fn check_padding(
    body: &[u8],
    head_len: usize,
    entries: &[TensorEntry<'_>],
) -> Result<(), StoreError> {
    let mut at = head_len;
    for e in entries {
        if let Some(i) = body[at..e.offset].iter().position(|&b| b != 0) {
            return Err(StoreError::Corrupt(format!(
                "padding byte {} before tensor {:?} is not zero",
                at + i,
                e.name
            )));
        }
        at = e.offset + e.len;
    }
    if at != body.len() {
        return Err(StoreError::Corrupt(format!(
            "{} stray bytes between the last section, ending at {at}, and the trailer",
            body.len() - at
        )));
    }
    Ok(())
}

impl<'a> Artifact<'a> {
    /// Parses and validates `data` as an artifact: every byte is read by
    /// exactly one check, and each payload is hashed once.
    ///
    /// # Errors
    /// In order of precedence: [`StoreError::BadMagic`] for a foreign
    /// file; [`StoreError::UnsupportedVersion`] for any version but this
    /// build's, so a file of another version is named as such rather
    /// than failing a check; [`StoreError::Truncated`] for one shorter
    /// than a header and trailer; [`StoreError::Truncated`] when the
    /// sections overrun the buffer, or [`StoreError::Corrupt`] for any
    /// other structural damage found walking them;
    /// [`StoreError::ChecksumMismatch`] on `"file"` when the trailer
    /// disagrees with the head (header, hparams and directory);
    /// [`StoreError::Corrupt`] for a non-zero padding byte or bytes after
    /// the last payload; last, [`StoreError::ChecksumMismatch`] naming
    /// the first tensor, in directory order, whose payload disagrees with
    /// its checksum.
    pub fn parse(data: &'a [u8]) -> Result<Self, StoreError> {
        let truncated = || StoreError::Truncated {
            needed: MIN_LEN,
            have: data.len(),
        };
        let magic: [u8; 4] = data
            .get(..4)
            .ok_or_else(truncated)?
            .try_into()
            .expect("4 bytes");
        if magic != MAGIC {
            return Err(StoreError::BadMagic(magic));
        }
        let version = data.get(4..8).ok_or_else(truncated)?;
        let version = u32::from_le_bytes(version.try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        if data.len() < MIN_LEN {
            return Err(truncated());
        }
        let (body, trailer) = data.split_at(data.len() - 8);
        let Sections {
            hparams,
            entries,
            head_len,
        } = parse_sections(body, data.len())?;
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        let actual = checksum(&body[..head_len]);
        if stored != actual {
            return Err(StoreError::ChecksumMismatch {
                what: "file".into(),
                expected: stored,
                actual,
            });
        }
        check_padding(body, head_len, &entries)?;
        for e in &entries {
            let actual = checksum(&body[e.offset..e.offset + e.len]);
            if actual != e.checksum {
                return Err(StoreError::ChecksumMismatch {
                    what: e.name.to_string(),
                    expected: e.checksum,
                    actual,
                });
            }
        }
        Ok(Artifact {
            data,
            hparams,
            entries,
            head_len,
        })
    }

    /// Length of the head: the header, hparams and directory, which
    /// start the artifact and are the bytes its trailer covers.
    #[must_use]
    pub fn head_len(&self) -> usize {
        self.head_len
    }

    /// Length of the whole artifact in bytes, trailer included.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// All hparams in stored order.
    #[must_use]
    pub fn hparams(&self) -> &[(&'a str, HParam<'a>)] {
        &self.hparams
    }

    /// All tensor directory entries in stored order.
    #[must_use]
    pub fn entries(&self) -> &[TensorEntry<'a>] {
        &self.entries
    }

    /// The hparam `name`, searching from `*hint` on and moving the hint
    /// past the match.
    fn find_hparam(&self, name: &str, hint: &mut usize) -> Option<&HParam<'a>> {
        find_from(&self.hparams, hint, |(n, _)| *n == name).map(|(_, v)| v)
    }

    /// A required `U64` hparam.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when missing or differently typed.
    pub fn hparam_u64(&self, name: &str) -> Result<u64, StoreError> {
        u64_of(name, self.find_hparam(name, &mut 0))
    }

    /// A required `Str` hparam.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when missing or differently typed.
    pub fn hparam_str(&self, name: &str) -> Result<&str, StoreError> {
        str_of(name, self.find_hparam(name, &mut 0))
    }

    /// Looks up a tensor entry by name.
    #[must_use]
    pub fn tensor(&self, name: &str) -> Option<&TensorEntry<'a>> {
        self.find_entry(name, &mut 0).ok()
    }

    /// A required tensor entry, searched for from `*hint` on; the hint
    /// moves past the match.
    fn find_entry(&self, name: &str, hint: &mut usize) -> Result<&TensorEntry<'a>, StoreError> {
        find_from(&self.entries, hint, |e| e.name == name)
            .ok_or_else(|| StoreError::Corrupt(format!("missing tensor {name:?}")))
    }

    /// The raw payload bytes of `entry`, which must be one of this
    /// artifact's [`Artifact::entries`]. [`Artifact::parse`] verified
    /// them against the directory checksum, so this only slices.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when `entry` does not name a payload of
    /// this artifact's directory (same offset, length and checksum).
    pub fn payload(&self, entry: &TensorEntry<'_>) -> Result<&'a [u8], StoreError> {
        let ours = self.entries.iter().any(|e| {
            e.offset == entry.offset && e.len == entry.len && e.checksum == entry.checksum
        });
        if !ours {
            return Err(StoreError::Corrupt(format!(
                "tensor {:?} is not in this artifact's directory",
                entry.name
            )));
        }
        Ok(self.bytes(entry))
    }

    /// The payload of one of this artifact's own directory entries.
    fn bytes(&self, entry: &TensorEntry<'_>) -> &'a [u8] {
        &self.data[entry.offset..entry.offset + entry.len]
    }

    /// Decodes `entry`, one of this artifact's own, as an `f32` tensor:
    /// one pass from the payload into the tensor's buffer.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`], naming the tensor, when it is not `F32`.
    pub(crate) fn f32_of(&self, entry: &TensorEntry<'_>) -> Result<Tensor, StoreError> {
        if entry.dtype != Dtype::F32 {
            return Err(StoreError::Corrupt(format!(
                "tensor {:?} is not f32",
                entry.name
            )));
        }
        let words = self.bytes(entry).as_chunks::<4>().0;
        let data = words.iter().map(|w| f32::from_le_bytes(*w)).collect();
        Tensor::from_vec(data, entry.dims.to_vec())
            .map_err(|e| StoreError::Corrupt(format!("tensor {:?}: {e:?}", entry.name)))
    }

    /// Decodes `entry`, one of this artifact's own, back into a
    /// `dl_compress::QuantizedTensor`: codes untouched, no dequantize
    /// round-trip.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`], naming the tensor, when it is not `Q8` or
    /// holds a code wider than its bit width.
    pub(crate) fn q8_of(&self, entry: &TensorEntry<'_>) -> Result<QuantizedTensor, StoreError> {
        let Some((scale, zero, bits)) = entry.quant.filter(|_| entry.dtype == Dtype::Q8) else {
            return Err(StoreError::Corrupt(format!(
                "tensor {:?} is not q8",
                entry.name
            )));
        };
        let codes = self.bytes(entry).to_vec();
        QuantizedTensor::try_from_parts(codes, scale, zero, bits, entry.dims.to_vec())
            .map_err(|e| StoreError::Corrupt(format!("tensor {:?}: {e}", entry.name)))
    }

    /// Lookups under the name scope `scope` (such as `v2.net.layer1.`),
    /// formatted once.
    pub fn scope(&self, scope: fmt::Arguments<'_>) -> Scope<'_, 'a> {
        let mut s = Scope {
            artifact: self,
            name: String::new(),
            scope_len: 0,
            next_hparam: 0,
            next_entry: 0,
        };
        s.enter(scope);
        s
    }
}

/// The first item of `items` that `is` picks, searching from `*hint` to
/// the end and then from the start; the hint moves past the match.
/// Decoders read fields in about the order the encoders wrote them, so
/// with the hint a lookup mostly hits on its first comparison.
fn find_from<'s, T>(items: &'s [T], hint: &mut usize, is: impl Fn(&T) -> bool) -> Option<&'s T> {
    let start = (*hint).min(items.len());
    let (front, back) = items.split_at(start);
    let at = match back.iter().position(&is) {
        Some(i) => start + i,
        None => front.iter().position(&is)?,
    };
    *hint = at + 1;
    Some(&items[at])
}

fn u64_of(name: &str, value: Option<&HParam<'_>>) -> Result<u64, StoreError> {
    match value {
        Some(HParam::U64(v)) => Ok(*v),
        _ => Err(StoreError::Corrupt(format!("missing u64 hparam {name:?}"))),
    }
}

fn f32_bits_of(name: &str, value: Option<&HParam<'_>>) -> Result<f32, StoreError> {
    u32::try_from(u64_of(name, value)?)
        .map(f32::from_bits)
        .map_err(|_| StoreError::Corrupt(format!("hparam {name:?} is not an f32 bit pattern")))
}

fn f64_of(name: &str, value: Option<&HParam<'_>>) -> Result<f64, StoreError> {
    match value {
        Some(HParam::F64(v)) => Ok(*v),
        _ => Err(StoreError::Corrupt(format!("missing f64 hparam {name:?}"))),
    }
}

fn str_of<'r>(name: &str, value: Option<&'r HParam<'_>>) -> Result<&'r str, StoreError> {
    match value {
        Some(HParam::Str(s)) => Ok(s),
        _ => Err(StoreError::Corrupt(format!("missing str hparam {name:?}"))),
    }
}

/// Lookups of one artifact under a name scope: a field's name is the
/// scope followed by the field (`v2.net.layer1.` and `weight`), built in
/// one reused buffer, so a decoder allocates nothing per lookup. Each
/// search starts where the last one matched, so in a file that holds a
/// name twice (no builder writes one) a lookup may find either copy.
#[must_use = "a scope only looks names up"]
pub struct Scope<'r, 'a> {
    artifact: &'r Artifact<'a>,
    name: String,
    scope_len: usize,
    next_hparam: usize,
    next_entry: usize,
}

impl<'r, 'a> Scope<'r, 'a> {
    /// Moves to the name scope `scope`, reusing the buffer.
    pub fn enter(&mut self, scope: fmt::Arguments<'_>) {
        self.name.clear();
        self.name
            .write_fmt(scope)
            .expect("formatting into a String cannot fail");
        self.scope_len = self.name.len();
    }

    /// The full name of `field` in this scope.
    pub fn name(&mut self, field: &str) -> &str {
        self.name.truncate(self.scope_len);
        self.name.push_str(field);
        &self.name
    }

    /// The full name of hparam `field` and its value, if present.
    fn hparam(&mut self, field: &str) -> (&str, Option<&'r HParam<'a>>) {
        let a = self.artifact;
        self.name(field);
        (&self.name, a.find_hparam(&self.name, &mut self.next_hparam))
    }

    /// [`Artifact::hparam_u64`] of `field`.
    ///
    /// # Errors
    /// As [`Artifact::hparam_u64`].
    pub fn u64(&mut self, field: &str) -> Result<u64, StoreError> {
        let (name, value) = self.hparam(field);
        u64_of(name, value)
    }

    /// The `f32` hparam `field`, stored as a `U64` bit pattern.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when missing, differently typed, or not a
    /// valid `f32` bit pattern.
    pub fn f32_bits(&mut self, field: &str) -> Result<f32, StoreError> {
        let (name, value) = self.hparam(field);
        f32_bits_of(name, value)
    }

    /// The `F64` hparam `field` (stored as a bit pattern, recovered
    /// exactly).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when missing or differently typed.
    pub fn f64(&mut self, field: &str) -> Result<f64, StoreError> {
        let (name, value) = self.hparam(field);
        f64_of(name, value)
    }

    /// [`Artifact::hparam_str`] of `field`.
    ///
    /// # Errors
    /// As [`Artifact::hparam_str`].
    pub fn str(&mut self, field: &str) -> Result<&'r str, StoreError> {
        let (name, value) = self.hparam(field);
        str_of(name, value)
    }

    /// The `Bytes` hparam `field`.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when missing or differently typed.
    pub fn bytes(&mut self, field: &str) -> Result<&'r [u8], StoreError> {
        match self.hparam(field) {
            (_, Some(HParam::Bytes(b))) => Ok(b),
            (name, _) => Err(StoreError::Corrupt(format!(
                "missing bytes hparam {name:?}"
            ))),
        }
    }

    /// The directory entry of the tensor `field`.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when there is none.
    pub fn tensor(&mut self, field: &str) -> Result<&'r TensorEntry<'a>, StoreError> {
        let a = self.artifact;
        self.name(field);
        a.find_entry(&self.name, &mut self.next_entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> Vec<u8> {
        let mut b = ArtifactBuilder::new();
        b.hparam("model.kind", HParam::Str("test".into()));
        b.hparam("model.layers", HParam::U64(2));
        b.hparam("model.lr", HParam::F64(0.125));
        b.hparam("model.cursors", HParam::Bytes(vec![1, 2, 3, 4].into()));
        b.tensor_f32("w0", &[2, 3], &[1.0, -2.5, 3.25, 0.0, 4.5, -6.75]);
        b.tensor_q8("w1", &[4], &[0, 127, 255, 63], 0.5, -1.0, 8);
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let bytes = sample();
        let a = Artifact::parse(&bytes).expect("valid artifact");
        assert_eq!(a.hparam_str("model.kind").unwrap(), "test");
        assert_eq!(a.hparam_u64("model.layers").unwrap(), 2);
        let mut s = a.scope(format_args!("model."));
        assert_eq!(s.f64("lr").unwrap(), 0.125);
        assert_eq!(s.bytes("cursors").unwrap(), &[1, 2, 3, 4]);
        let names: Vec<&str> = a.entries().iter().map(|e| e.name).collect();
        assert_eq!(names, ["w0", "w1"]);
        let mut s = a.scope(format_args!(""));
        let w0 = a.f32_of(s.tensor("w0").unwrap()).unwrap();
        assert_eq!(w0.dims(), &[2, 3]);
        assert_eq!(w0.data(), &[1.0, -2.5, 3.25, 0.0, 4.5, -6.75]);
        let w1 = a.q8_of(s.tensor("w1").unwrap()).unwrap();
        assert_eq!(w1.codes(), &[0, 127, 255, 63]);
        assert_eq!(w1.scale(), 0.5);
        assert_eq!(w1.zero_point(), -1.0);
        assert_eq!(w1.bits(), 8);
        assert_eq!(w1.dims(), &[4]);
    }

    #[test]
    fn encoding_is_byte_stable_and_aligned() {
        let a = sample();
        let b = sample();
        assert_eq!(a, b, "same inputs, same bytes");
        let parsed = Artifact::parse(&a).unwrap();
        for e in parsed.entries() {
            assert_eq!(e.offset % ALIGN, 0, "{} misaligned", e.name);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        match Artifact::parse(&bytes) {
            Err(StoreError::BadMagic(m)) => assert_eq!(&m[1..], b"LST"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected_at_any_cut() {
        let bytes = sample();
        // Every strict prefix must fail — with Truncated until the cut
        // reaches the trailer, and never with a panic.
        for cut in [0, 3, 4, 10, 16, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = Artifact::parse(&bytes[..cut]).expect_err("prefix must not parse");
            match err {
                StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::BadMagic(_) => {}
                other => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    /// Length of `clean`'s head, the bytes its trailer covers.
    fn head_len(clean: &[u8]) -> usize {
        Artifact::parse(clean).expect("clean artifact").head_len()
    }

    #[test]
    fn head_length_counts_header_hparams_and_directory() {
        // Header 16; hparams 23 + 25 + 21 + 26; directory entries
        // 51 (w0: f32, two dims) + 52 (w1: q8, one dim).
        let bytes = sample();
        assert_eq!(head_len(&bytes), 16 + 95 + 103);
        let a = Artifact::parse(&bytes).unwrap();
        // w0 starts at the next boundary, w1 after zero padding, and the
        // trailer right after w1.
        let [w0, w1] = [0, 1].map(|i| a.entries()[i]);
        assert_eq!((w0.offset, w0.len, w1.offset, w1.len), (256, 24, 320, 4));
        assert_eq!(bytes.len(), 324 + 8);
    }

    #[test]
    fn flipped_byte_fails_the_file_checksum() {
        // Model.lr's value: any bit pattern is an f64, so the sections
        // still walk and only the trailer can notice.
        let mut bytes = sample();
        let lr = 0.125f64.to_bits().to_le_bytes();
        let at = bytes.windows(8).position(|w| w == lr).expect("lr value");
        bytes[at + 3] ^= 0x10;
        match Artifact::parse(&bytes) {
            Err(StoreError::ChecksumMismatch { what, .. }) => assert_eq!(what, "file"),
            other => panic!("expected file checksum failure, got {other:?}"),
        }
    }

    /// Recomputes the trailer over the first `head` bytes.
    fn reseal(bytes: &mut [u8], head: usize) {
        let n = bytes.len();
        let fixed = checksum(&bytes[..head]);
        bytes[n - 8..].copy_from_slice(&fixed.to_le_bytes());
    }

    /// Where `e`'s offset, length and checksum fields sit in `bytes`.
    fn entry_tail_at(bytes: &[u8], e: &TensorEntry) -> usize {
        let tail: Vec<u8> = [e.offset as u64, e.len as u64, e.checksum]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        bytes
            .windows(24)
            .position(|w| w == tail)
            .expect("entry fields")
    }

    #[test]
    fn payload_corruption_behind_a_fixed_trailer_fails_the_tensor_checksum() {
        // The trailer covers the head, not the payloads, so it still
        // holds over a flipped payload byte; the tensor's own directory
        // checksum catches it at parse, before any tensor is read.
        let mut bytes = sample();
        let off = Artifact::parse(&bytes)
            .unwrap()
            .tensor("w0")
            .unwrap()
            .offset;
        bytes[off] ^= 0x01;
        match Artifact::parse(&bytes) {
            Err(StoreError::ChecksumMismatch { what, .. }) => assert_eq!(what, "w0"),
            other => panic!("expected tensor checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn every_flipped_byte_is_rejected_without_a_panic() {
        let clean = sample();
        let a = Artifact::parse(&clean).unwrap();
        let head = a.head_len();
        let payload_of = |at: usize| {
            a.entries()
                .iter()
                .find(|e| (e.offset..e.offset + e.len).contains(&at))
                .map(|e| e.name)
        };
        let trailer = clean.len() - 8;
        for at in 0..clean.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bytes = clean.clone();
                bytes[at] ^= mask;
                let case = format!("byte {at} ^ {mask:#04x}");
                match (Artifact::parse(&bytes), payload_of(at)) {
                    (Err(StoreError::BadMagic(_)), _) if at < 4 => {}
                    (Err(StoreError::UnsupportedVersion(_)), _) if (4..8).contains(&at) => {}
                    // A head byte: the trailer catches it, unless the
                    // sections no longer walk.
                    (Err(StoreError::ChecksumMismatch { what, .. }), _)
                        if (8..head).contains(&at) =>
                    {
                        assert_eq!(what, "file", "{case}");
                    }
                    (Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)), _)
                        if (8..head).contains(&at) => {}
                    (Err(StoreError::ChecksumMismatch { what, .. }), _) if at >= trailer => {
                        assert_eq!(what, "file", "{case}");
                    }
                    (Err(StoreError::ChecksumMismatch { what, .. }), Some(name)) => {
                        assert_eq!(what, name, "{case}");
                    }
                    (Err(StoreError::Corrupt(msg)), None) if (head..trailer).contains(&at) => {
                        assert!(msg.contains("padding"), "{case}: {msg}");
                    }
                    (other, _) => panic!("{case}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn non_zero_padding_is_corrupt() {
        // Padding is covered by no checksum, so it must be zero: between
        // the directory and w0, between w0 and w1.
        let clean = sample();
        for at in [head_len(&clean), 300, 319] {
            let mut bytes = clean.clone();
            bytes[at] = 1;
            match Artifact::parse(&bytes) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("padding byte {at}")), "{msg}");
                }
                other => panic!("padding byte {at}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn bytes_inserted_before_the_trailer_are_corrupt() {
        let mut no_tensors = ArtifactBuilder::new();
        no_tensors.hparam("k", HParam::U64(7));
        for clean in [sample(), no_tensors.finish()] {
            for stray in [&[0u8][..], &[0; 64], &[1, 2, 3]] {
                let mut bytes = clean.clone();
                let trailer = bytes.len() - 8;
                bytes.splice(trailer..trailer, stray.iter().copied());
                match Artifact::parse(&bytes) {
                    Err(StoreError::Corrupt(msg)) => assert!(msg.contains("stray"), "{msg}"),
                    other => panic!(
                        "{} stray bytes: expected Corrupt, got {other:?}",
                        stray.len()
                    ),
                }
            }
        }
    }

    #[test]
    fn resealed_huge_counts_and_dims_are_typed_errors() {
        let clean = sample();
        let parsed = Artifact::parse(&clean).unwrap();
        let tail = entry_tail_at(&clean, parsed.tensor("w0").unwrap());
        drop(parsed);
        let dims = tail - 16;
        // (field offset, field width): hparam count, tensor count, w0's
        // ndims, first dim, offset and length.
        let fields = [
            (8, 4),
            (12, 4),
            (dims - 4, 4),
            (dims, 8),
            (tail, 8),
            (tail + 8, 8),
        ];
        for (at, width) in fields {
            let mut bytes = clean.clone();
            bytes[at..at + width].fill(0xff);
            reseal(&mut bytes, head_len(&clean));
            match Artifact::parse(&bytes) {
                Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)) => {}
                other => panic!("field at {at} set to all ones: unexpected {other:?}"),
            }
        }
    }

    /// Points `e`'s directory entry at `offset`, carrying the true
    /// checksum of the `len` bytes there, in a copy of `clean`.
    fn redirect(bytes: &mut [u8], clean: &[u8], e: &TensorEntry, offset: usize, len: usize) {
        let at = entry_tail_at(clean, e);
        let sum = checksum(&clean[offset..offset + len]);
        bytes[at..at + 8].copy_from_slice(&(offset as u64).to_le_bytes());
        bytes[at + 16..at + 24].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn overlapping_and_reordered_payloads_are_corrupt() {
        let expect_corrupt = |bytes: &mut Vec<u8>, head: usize, case: &str| {
            reseal(bytes, head);
            match Artifact::parse(bytes) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains("previous"), "{case}: {msg}"),
                other => panic!("{case}: expected Corrupt, got {other:?}"),
            }
        };
        let mut b = ArtifactBuilder::new();
        b.tensor_f32("a", &[2], &[1.0, 2.0]);
        b.tensor_f32("b", &[2], &[3.0, 4.0]);
        b.tensor_q8("c", &[4], &[9, 8, 7, 6], 1.0, 0.0, 8);
        let clean = b.finish();
        let parsed = Artifact::parse(&clean).unwrap();
        let [a, b_, c] = [0, 1, 2].map(|i| parsed.entries()[i]);
        drop(parsed);
        // Re-sealed hand-made directories, each entry with its true
        // checksum: a and b swap payloads (out of offset order), and
        // c's codes alias the first four bytes of a's payload (overlap).
        let mut swapped = clean.clone();
        redirect(&mut swapped, &clean, &a, b_.offset, b_.len);
        redirect(&mut swapped, &clean, &b_, a.offset, a.len);
        let head = head_len(&clean);
        expect_corrupt(&mut swapped, head, "swapped");
        let mut aliased = clean.clone();
        redirect(&mut aliased, &clean, &c, a.offset, c.len);
        expect_corrupt(&mut aliased, head, "aliased");

        // Many entries re-pointed at one payload are rejected from the
        // directory, not hashed once per entry.
        let fills: Vec<[f32; 256]> = (0..64).map(|i| [i as f32; 256]).collect();
        let mut b = ArtifactBuilder::new();
        for (i, fill) in fills.iter().enumerate() {
            b.tensor_f32(format!("t{i}"), &[256], fill);
        }
        let clean = b.finish();
        let entries = Artifact::parse(&clean).unwrap().entries().to_vec();
        let mut bytes = clean.clone();
        for e in &entries[1..] {
            redirect(&mut bytes, &clean, e, entries[0].offset, entries[0].len);
        }
        expect_corrupt(&mut bytes, head_len(&clean), "many aliased");
    }

    #[test]
    fn payload_rejects_an_entry_from_another_directory() {
        let bytes = sample();
        let a = Artifact::parse(&bytes).unwrap();
        let mut foreign = *a.tensor("w0").unwrap();
        assert!(a.payload(&foreign).is_ok());
        foreign.offset += ALIGN;
        assert!(matches!(a.payload(&foreign), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn overflowing_dims_are_corrupt() {
        // A hostile entry for w0: dims whose element count overflows,
        // an empty payload with its true checksum, and a re-sealed
        // trailer. It must not load as a zero-element tensor.
        let mut bytes = sample();
        let head = head_len(&bytes);
        let dims: Vec<u8> = [2u64, 3].iter().flat_map(|d| d.to_le_bytes()).collect();
        let at = bytes.windows(16).position(|w| w == dims).expect("w0 dims");
        bytes[at..at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        bytes[at + 8..at + 16].copy_from_slice(&2u64.to_le_bytes());
        // The dims are followed by offset, len and checksum.
        bytes[at + 24..at + 32].copy_from_slice(&0u64.to_le_bytes());
        bytes[at + 32..at + 40].copy_from_slice(&checksum(&[]).to_le_bytes());
        reseal(&mut bytes, head);
        match Artifact::parse(&bytes) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample();
        bytes[4] = 99;
        reseal(&mut bytes, head_len(&sample()));
        match Artifact::parse(&bytes) {
            Err(StoreError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn a_version_1_header_is_named_before_its_checksum() {
        // Version 1 hashed with serial FNV-1a, so its trailer cannot
        // match; the version check comes first and says why.
        let mut bytes = sample();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        match Artifact::parse(&bytes) {
            Err(StoreError::UnsupportedVersion(1)) => {}
            other => panic!("expected UnsupportedVersion(1), got {other:?}"),
        }
        // Even a header with nothing after it.
        match Artifact::parse(&bytes[..8]) {
            Err(StoreError::UnsupportedVersion(1)) => {}
            other => panic!("expected UnsupportedVersion(1), got {other:?}"),
        }
    }

    #[test]
    fn a_version_2_file_is_named_before_any_other_check() {
        // Version 2 had the same layout and checksum but a trailer over
        // the whole body. A genuine version 2 file: this sample with its
        // version byte and a version 2 trailer, which this build must
        // name rather than report as a trailer mismatch.
        let mut bytes = sample();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let body = bytes.len() - 8;
        let whole_body = checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&whole_body.to_le_bytes());
        match Artifact::parse(&bytes) {
            Err(StoreError::UnsupportedVersion(2)) => {}
            other => panic!("expected UnsupportedVersion(2), got {other:?}"),
        }
    }

    /// `len` bytes counting up from zero, wrapping at 256.
    fn counting(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    #[test]
    fn checksum_known_answers() {
        // Computed by an independent implementation of the algorithm in
        // the crate docs. Lengths cover the empty input, tails alone
        // (1, 7, 63), exact blocks (64) and blocks plus a tail.
        let cases: [(usize, u64); 7] = [
            (0, 0x323b_d2ee_79af_ccef),
            (1, 0x8e38_bfd7_a011_4a18),
            (7, 0x7bd1_dc16_3f6e_375c),
            (63, 0x4033_0afc_1a02_664c),
            (64, 0xcfa7_06ea_1d96_f277),
            (65, 0x296a_775d_9b8d_5be4),
            (1000, 0xff0a_ab41_0c34_ab0a),
        ];
        for (len, want) in cases {
            assert_eq!(checksum(&counting(len)), want, "length {len}");
        }
    }

    #[test]
    fn any_one_flipped_byte_changes_the_checksum() {
        for len in 0..=200 {
            let clean = counting(len);
            let sum = checksum(&clean);
            for at in 0..len {
                for mask in [0x01, 0xff] {
                    let mut bytes = clean.clone();
                    bytes[at] ^= mask;
                    assert_ne!(
                        checksum(&bytes),
                        sum,
                        "length {len}, byte {at} ^ {mask:#04x}"
                    );
                }
            }
        }
    }

    /// The sum of `clean` with `masks.0` XORed into byte `a` and
    /// `masks.1` into byte `b`.
    fn sum_with_two_flips(clean: &[u8], a: usize, b: usize, masks: (u8, u8)) -> u64 {
        let mut bytes = clean.to_vec();
        bytes[a] ^= masks.0;
        bytes[b] ^= masks.1;
        checksum(&bytes)
    }

    #[test]
    fn two_flipped_top_bits_change_the_checksum() {
        // A product only carries upwards and 2^63 times an odd number is
        // 2^63, so with one multiply per step a flipped bit 63 of a word
        // crosses every later step unchanged. Bit 63 is bit 7 of a byte
        // at offset 7 mod 8. Bytes 7 and 15 sit in two lanes of one
        // block, 7 and 71 in one lane of two blocks, 7 and 79 in two
        // lanes of two blocks. Every pair of bytes is tried, those among
        // them.
        for len in [64, 128, 200] {
            let clean = counting(len);
            let sum = checksum(&clean);
            for a in 0..len {
                for b in a + 1..len {
                    let flipped = sum_with_two_flips(&clean, a, b, (0x80, 0x80));
                    assert_ne!(flipped, sum, "length {len}, bytes {a} and {b} ^ 0x80");
                }
            }
        }
    }

    #[test]
    fn random_pairs_of_flipped_bytes_change_the_checksum() {
        let mut rng = StdRng::seed_from_u64(5);
        for len in 2..=200 {
            let clean = counting(len);
            let sum = checksum(&clean);
            for _ in 0..200 {
                let a = rng.gen_range(0..len - 1);
                let b = rng.gen_range(a + 1..len);
                let masks = (rng.gen_range(1..=255u8), rng.gen_range(1..=255u8));
                let flipped = sum_with_two_flips(&clean, a, b, masks);
                assert_ne!(flipped, sum, "length {len}, bytes {a} and {b} ^ {masks:?}");
            }
        }
    }

    #[test]
    fn negating_two_weights_is_rejected() {
        // Payloads start 64-aligned, so the sign bits of odd-index f32s
        // are bit 63 of their lane words, in the payload checksum and in
        // the trailer alike.
        let mut b = ArtifactBuilder::new();
        let data: Vec<f32> = (0..64u8).map(|i| f32::from(i) + 0.5).collect();
        b.tensor_f32("w", &[64], &data);
        let clean = b.finish();
        let at = Artifact::parse(&clean).unwrap().entries()[0].offset;
        for (i, j) in [(1, 3), (1, 17), (3, 49)] {
            let mut bytes = clean.clone();
            bytes[at + 4 * i + 3] ^= 0x80;
            bytes[at + 4 * j + 3] ^= 0x80;
            match Artifact::parse(&bytes) {
                Err(StoreError::ChecksumMismatch { .. }) => {}
                other => panic!("weights {i} and {j} negated: expected a mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate tensor \"w\"")]
    fn duplicate_tensor_names_panic() {
        let mut b = ArtifactBuilder::new();
        b.tensor_f32("w", &[1], &[0.0]);
        b.tensor_q8("v", &[1], &[0], 1.0, 0.0, 8);
        b.tensor_f32("w", &[1], &[1.0]);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "duplicate hparam \"k\"")]
    fn duplicate_hparam_names_panic() {
        let mut b = ArtifactBuilder::new();
        b.hparam("k", HParam::U64(1));
        b.hparam("j", HParam::U64(2));
        b.hparam("k", HParam::Str("again".into()));
        let _ = b.finish();
    }
}
