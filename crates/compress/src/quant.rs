//! Quantization: affine integer codes, k-means codebooks, binarization and
//! Huffman coding.
//!
//! The tutorial (§2.1) describes quantization as replacing the original data
//! with *quantization codes plus a codebook*, where the codebook can be
//! lossless (Huffman) or lossy (low-bit fixed point, k-means). This module
//! implements each of those points on the spectrum:
//!
//! * [`QuantizedTensor`] — per-tensor affine codes at 1-8 bits,
//! * [`CodebookQuantizer`] — 1-D k-means (Lloyd) centroids, the scalar form
//!   of vector quantization,
//! * [`QuantScheme::Binary`] — sign(w) times a per-tensor scale, the
//!   Binary Neural Network extreme,
//! * [`HuffmanCode`] — entropy coding of the codes, measuring how far the
//!   lossless half can shrink things.

use dl_nn::Network;
use dl_tensor::Tensor;

/// Quantization schemes the network-level API supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantScheme {
    /// Affine (scale + zero point) integer quantization at `bits` (1-8).
    Affine {
        /// Bit width of each code.
        bits: u8,
    },
    /// K-means codebook with `k` centroids (codes are `ceil(log2 k)` bits).
    KMeans {
        /// Codebook size.
        k: usize,
    },
    /// Sign binarization with one scale per tensor (1-bit codes).
    Binary,
}

impl QuantScheme {
    /// Human-readable scheme name for experiment reports.
    pub fn name(&self) -> String {
        match self {
            QuantScheme::Affine { bits } => format!("affine{bits}"),
            QuantScheme::KMeans { k } => format!("kmeans{k}"),
            QuantScheme::Binary => "binary".to_string(),
        }
    }
}

/// A tensor stored as low-bit affine codes: `value = scale * (code - zero)`.
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    codes: Vec<u8>,
    scale: f32,
    zero: f32,
    bits: u8,
    dims: Vec<usize>,
}

impl QuantizedTensor {
    /// Quantizes `t` to `bits`-wide affine codes (1-8 bits).
    ///
    /// The range is calibrated to the min/max of the tensor's finite
    /// values (the standard post-training calibration), so one infinite
    /// value cannot blow the scale up for every other element: `+inf`
    /// saturates to the top code, `-inf` to code 0, and NaN encodes as
    /// code 0. A tensor with no finite value gets the range `[0, 0]`.
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 8`.
    pub fn quantize(t: &Tensor, bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "bits must be 1-8, got {bits}");
        let levels = (1u32 << bits) - 1;
        let (mut lo, mut hi) = (t.min(), t.max());
        if !(lo.is_finite() && hi.is_finite()) {
            // An infinity, or no value at all, would make the scale
            // infinite or NaN: calibrate on the finite values alone.
            let finite = t.data().iter().copied().filter(|v| v.is_finite());
            (lo, hi) = finite.fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
            if lo > hi {
                (lo, hi) = (0.0, 0.0);
            }
        }
        let range = (hi - lo).max(1e-12);
        let scale = range / levels as f32;
        let zero = lo;
        // `as u32` saturates: +inf to u32::MAX (clamped to the top code),
        // -inf and NaN to 0.
        let codes = t
            .data()
            .iter()
            .map(|&v| (((v - zero) / scale).round() as u32).min(levels) as u8)
            .collect();
        QuantizedTensor {
            codes,
            scale,
            zero,
            bits,
            dims: t.dims().to_vec(),
        }
    }

    /// Reconstructs the (lossy) `f32` tensor.
    pub fn dequantize(&self) -> Tensor {
        let data = self
            .codes
            .iter()
            .map(|&c| self.zero + self.scale * f32::from(c))
            .collect();
        Tensor::from_vec(data, self.dims.as_slice()).expect("length preserved")
    }

    /// Reassembles a quantized tensor from its stored parts — the inverse
    /// of reading [`QuantizedTensor::codes`] plus the quant params.
    ///
    /// # Panics
    /// Panics where [`QuantizedTensor::try_from_parts`] returns an error.
    #[must_use]
    pub fn from_parts(codes: Vec<u8>, scale: f32, zero: f32, bits: u8, dims: Vec<usize>) -> Self {
        Self::try_from_parts(codes, scale, zero, bits, dims).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`QuantizedTensor::from_parts`] for parts that may be malformed,
    /// such as a decoded artifact's: the artifact loader reassembles int8
    /// payloads through it, so they never take a dequantize round-trip
    /// through `f32` on the way to disk and back.
    ///
    /// # Errors
    /// A message unless `1 <= bits <= 8`, the code count matches the
    /// product of `dims`, and every code fits in `bits`.
    pub fn try_from_parts(
        codes: Vec<u8>,
        scale: f32,
        zero: f32,
        bits: u8,
        dims: Vec<usize>,
    ) -> Result<Self, String> {
        if !(1..=8).contains(&bits) {
            return Err(format!("bits must be 1-8, got {bits}"));
        }
        let len = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if len != Some(codes.len()) {
            return Err(format!(
                "code count {} must match the dims product of {dims:?}",
                codes.len()
            ));
        }
        let levels = ((1u32 << bits) - 1) as u8;
        if codes.iter().any(|&c| c > levels) {
            return Err(format!("codes must fit in {bits} bits"));
        }
        Ok(QuantizedTensor {
            codes,
            scale,
            zero,
            bits,
            dims,
        })
    }

    /// The raw codes (one byte each before bit packing).
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The affine scale (`value = zero + scale * code`).
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The affine zero point (`value = zero + scale * code`).
    #[must_use]
    pub fn zero_point(&self) -> f32 {
        self.zero
    }

    /// The logical tensor dimensions the codes reshape into.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Storage in bytes after bit packing: the packed codes plus the
    /// scale/zero header.
    fn storage_bytes(&self) -> usize {
        packed_bytes(self.codes.len(), self.bits) + AFFINE_HEADER_BYTES
    }

    /// Bit width of each code.
    pub fn bits(&self) -> u8 {
        self.bits
    }
}

/// 1-D k-means (Lloyd's algorithm) codebook over a tensor's values.
#[derive(Debug, Clone)]
pub struct CodebookQuantizer {
    /// Learned centroids, sorted ascending.
    pub centroids: Vec<f32>,
}

impl CodebookQuantizer {
    /// Fits `k` centroids to the tensor's value distribution.
    ///
    /// Initialization is k evenly spaced quantiles (deterministic); Lloyd
    /// iterations run until assignment stabilizes or 50 rounds.
    ///
    /// # Panics
    /// Panics when `k == 0` or the tensor is empty.
    pub fn fit(t: &Tensor, k: usize) -> Self {
        assert!(k > 0, "codebook needs at least one centroid");
        assert!(!t.is_empty(), "cannot fit a codebook to an empty tensor");
        let mut sorted: Vec<f32> = t.data().to_vec();
        sorted.sort_by(f32::total_cmp);
        let mut centroids: Vec<f32> = (0..k)
            .map(|i| sorted[(i * (sorted.len() - 1)) / k.max(1)])
            .collect();
        centroids.dedup();
        for _ in 0..50 {
            // assign + recompute (values are sorted, centroids stay sorted)
            let mut sums = vec![0.0f64; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for &v in &sorted {
                let c = nearest(&centroids, v);
                sums[c] += f64::from(v);
                counts[c] += 1;
            }
            let mut moved = false;
            for (i, c) in centroids.iter_mut().enumerate() {
                if counts[i] > 0 {
                    let new = (sums[i] / counts[i] as f64) as f32;
                    if (new - *c).abs() > 1e-7 {
                        moved = true;
                    }
                    *c = new;
                }
            }
            centroids.sort_by(f32::total_cmp);
            if !moved {
                break;
            }
        }
        CodebookQuantizer { centroids }
    }

    /// Encodes each value as its nearest centroid index.
    fn encode(&self, t: &Tensor) -> Vec<u8> {
        t.data()
            .iter()
            .map(|&v| nearest(&self.centroids, v) as u8)
            .collect()
    }

    /// Decodes centroid indices back to values.
    pub fn decode(&self, codes: &[u8], dims: &[usize]) -> Tensor {
        let data = codes.iter().map(|&c| self.centroids[c as usize]).collect();
        Tensor::from_vec(data, dims).expect("caller supplies matching dims")
    }

    /// Round-trips a tensor through the codebook.
    pub fn quantize(&self, t: &Tensor) -> Tensor {
        self.decode(&self.encode(t), t.dims())
    }

    /// Bits per code for this codebook size.
    pub fn bits(&self) -> u8 {
        (usize::BITS - (self.centroids.len() - 1).leading_zeros()).max(1) as u8
    }
}

/// Index of the nearest centroid (binary search over the sorted list).
fn nearest(centroids: &[f32], v: f32) -> usize {
    match centroids.binary_search_by(|c| c.total_cmp(&v)) {
        Ok(i) => i,
        Err(i) => {
            if i == 0 {
                0
            } else if i == centroids.len() {
                centroids.len() - 1
            } else if (v - centroids[i - 1]).abs() <= (centroids[i] - v).abs() {
                i - 1
            } else {
                i
            }
        }
    }
}

/// A canonical Huffman code over byte symbols.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// Code length (bits) per symbol; 0 for unused symbols.
    lengths: [u8; 256],
    /// Codeword per symbol (low bits used, MSB-first within the length).
    codes: [u32; 256],
}

impl HuffmanCode {
    /// Builds a code from symbol frequencies in `data`.
    ///
    /// # Panics
    /// Panics when `data` is empty.
    pub fn build(data: &[u8]) -> Self {
        assert!(!data.is_empty(), "cannot build a Huffman code for no data");
        let mut freq = [0u64; 256];
        for &b in data {
            freq[b as usize] += 1;
        }
        // package-merge-free simple approach: repeatedly merge two lightest.
        #[derive(PartialEq, Eq)]
        struct Node {
            weight: u64,
            id: usize,
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut heap = std::collections::BinaryHeap::new();
        let mut children: Vec<Option<(usize, usize)>> = Vec::new();
        let mut symbol_of: Vec<Option<u8>> = Vec::new();
        for (s, &weight) in freq.iter().enumerate() {
            if weight > 0 {
                let id = children.len();
                children.push(None);
                symbol_of.push(Some(s as u8));
                heap.push(Node { weight, id });
            }
        }
        if heap.len() == 1 {
            // single-symbol stream: 1-bit code by convention
            let mut lengths = [0u8; 256];
            let mut codes = [0u32; 256];
            let s = symbol_of[0].expect("leaf");
            lengths[s as usize] = 1;
            codes[s as usize] = 0;
            return HuffmanCode { lengths, codes };
        }
        while heap.len() > 1 {
            let a = heap.pop().expect("len > 1");
            let b = heap.pop().expect("len > 1");
            let id = children.len();
            children.push(Some((a.id, b.id)));
            symbol_of.push(None);
            heap.push(Node {
                weight: a.weight + b.weight,
                id,
            });
        }
        let root = heap.pop().expect("one root remains").id;
        // walk the tree to assign lengths, then build canonical codes
        let mut lengths = [0u8; 256];
        let mut stack = vec![(root, 0u8)];
        while let Some((id, depth)) = stack.pop() {
            match children[id] {
                Some((l, r)) => {
                    stack.push((l, depth + 1));
                    stack.push((r, depth + 1));
                }
                None => {
                    let s = symbol_of[id].expect("leaf has symbol");
                    lengths[s as usize] = depth.max(1);
                }
            }
        }
        let mut codes = [0u32; 256];
        // canonical assignment: sort by (length, symbol)
        let mut symbols: Vec<u8> = (0u16..256)
            .filter(|&s| lengths[s as usize] > 0)
            .map(|s| s as u8)
            .collect();
        symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &s in &symbols {
            let len = lengths[s as usize];
            code <<= len - prev_len;
            codes[s as usize] = code;
            code += 1;
            prev_len = len;
        }
        HuffmanCode { lengths, codes }
    }

    /// Bytes of the code-length table a decoder rebuilds this canonical
    /// code from: one length byte per symbol, from symbol 0 to the
    /// largest symbol used (the lengths of unused symbols in between
    /// read 0).
    fn table_bytes(&self) -> usize {
        self.lengths
            .iter()
            .rposition(|&l| l > 0)
            .map_or(0, |s| s + 1)
    }

    /// Total encoded size of `data` in bits.
    fn encoded_bits(&self, data: &[u8]) -> u64 {
        data.iter()
            .map(|&b| u64::from(self.lengths[b as usize]))
            .sum()
    }

    /// Encodes `data` to a bit vector (MSB-first per codeword).
    pub fn encode(&self, data: &[u8]) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.encoded_bits(data) as usize);
        for &b in data {
            let len = self.lengths[b as usize];
            assert!(len > 0, "symbol {b} not in code");
            let code = self.codes[b as usize];
            for i in (0..len).rev() {
                out.push((code >> i) & 1 == 1);
            }
        }
        out
    }

    /// Decodes `n` symbols from a bit stream produced by [`Self::encode`].
    ///
    /// # Panics
    /// Panics on a corrupt stream.
    pub fn decode(&self, bits: &[bool], n: usize) -> Vec<u8> {
        // simple table-free decode: match (length, prefix) pairs
        let mut by_len: Vec<Vec<(u32, u8)>> = vec![Vec::new(); 33];
        for s in 0..256 {
            let len = self.lengths[s];
            if len > 0 {
                by_len[len as usize].push((self.codes[s], s as u8));
            }
        }
        let mut out = Vec::with_capacity(n);
        let mut pos = 0;
        'outer: while out.len() < n {
            let mut acc = 0u32;
            for group in by_len.iter().skip(1) {
                assert!(pos < bits.len(), "bit stream truncated");
                acc = (acc << 1) | u32::from(bits[pos]);
                pos += 1;
                for &(code, sym) in group {
                    if code == acc {
                        out.push(sym);
                        continue 'outer;
                    }
                }
            }
            panic!("no codeword matched within 32 bits");
        }
        out
    }
}

/// Bytes of an affine tensor's header: its `f32` scale and zero point.
const AFFINE_HEADER_BYTES: usize = 8;

/// Bytes of `n` codes of `bits` bits each, bit-packed.
fn packed_bytes(n: usize, bits: u8) -> usize {
    (n * bits as usize).div_ceil(8)
}

/// Report from quantizing a whole network.
#[derive(Debug, Clone)]
pub struct QuantReport {
    /// Scheme applied.
    pub scheme: String,
    /// Original parameter bytes (f32).
    pub original_bytes: usize,
    /// Compressed parameter bytes (packed codes + codebooks/headers).
    pub compressed_bytes: usize,
    /// Compressed bytes with the code stream Huffman-coded: the same side
    /// data (scales, zero points, centroids) as `compressed_bytes`, plus
    /// the coded stream and its code-length table, or plus the packed
    /// codes when Huffman coding would not make the stream smaller.
    pub huffman_bytes: usize,
}

impl QuantReport {
    /// Compression ratio (original / compressed).
    pub fn ratio(&self) -> f64 {
        self.original_bytes as f64 / self.compressed_bytes as f64
    }
}

/// Quantizes every weight/bias tensor of `net` under `scheme`, returning the
/// simulated-quantization network (weights replaced by their reconstruction,
/// so accuracy effects are real) plus a size report.
///
/// Biases are small; they are quantized too for honesty but dominate nothing.
pub fn quantize_network(net: &Network, scheme: QuantScheme) -> (Network, QuantReport) {
    let (out, report, _) = quantize_params(net, scheme);
    (out, report)
}

/// The affine path of [`quantize_network`], additionally returning the
/// [`QuantizedTensor`]s themselves (one per parameter tensor, in
/// `params_and_grads` order) so callers that persist the model can store
/// the packed codes natively instead of re-deriving them from the
/// dequantized reconstruction.
///
/// The returned network and report are identical to
/// `quantize_network(net, QuantScheme::Affine { bits })`.
///
/// # Panics
/// Panics unless `1 <= bits <= 8`.
#[must_use]
pub fn quantize_network_tensors(
    net: &Network,
    bits: u8,
) -> (Network, QuantReport, Vec<QuantizedTensor>) {
    quantize_params(net, QuantScheme::Affine { bits })
}

/// Both public entry points: the reconstruction network, the size report
/// and, for the affine scheme only, each parameter's [`QuantizedTensor`].
fn quantize_params(
    net: &Network,
    scheme: QuantScheme,
) -> (Network, QuantReport, Vec<QuantizedTensor>) {
    let mut out = net.clone();
    let mut original = 0usize;
    // Bit-packed codes, and the side data decoding them needs.
    let mut packed = 0usize;
    let mut side = 0usize;
    let mut all_codes: Vec<u8> = Vec::new();
    let mut tensors: Vec<QuantizedTensor> = Vec::new();
    for layer in out.layers_mut() {
        for (p, _) in layer.params_and_grads() {
            original += p.len() * 4;
            match scheme {
                QuantScheme::Affine { bits } => {
                    let q = QuantizedTensor::quantize(p, bits);
                    packed += q.storage_bytes() - AFFINE_HEADER_BYTES;
                    side += AFFINE_HEADER_BYTES;
                    all_codes.extend_from_slice(q.codes());
                    *p = q.dequantize();
                    tensors.push(q);
                }
                QuantScheme::KMeans { k } => {
                    let cb = CodebookQuantizer::fit(p, k);
                    let codes = cb.encode(p);
                    packed += packed_bytes(codes.len(), cb.bits());
                    side += 4 * cb.centroids.len();
                    *p = cb.decode(&codes, p.dims());
                    all_codes.extend_from_slice(&codes);
                }
                QuantScheme::Binary => {
                    let scale = p.map(f32::abs).mean().max(1e-12);
                    all_codes.extend(p.data().iter().map(|&v| u8::from(v >= 0.0)));
                    packed += packed_bytes(p.len(), 1);
                    side += 4;
                    *p = p.map(|v| if v >= 0.0 { scale } else { -scale });
                }
            }
        }
    }
    let coded = if all_codes.is_empty() {
        0
    } else {
        let h = HuffmanCode::build(&all_codes);
        h.encoded_bits(&all_codes).div_ceil(8) as usize + h.table_bytes()
    };
    (
        out,
        QuantReport {
            scheme: scheme.name(),
            original_bytes: original,
            compressed_bytes: packed + side,
            huffman_bytes: coded.min(packed) + side,
        },
        tensors,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_tensor::init::{self, rng};
    use rand::Rng;

    #[test]
    fn affine_roundtrip_error_bounded() {
        let mut r = rng(0);
        let t = init::uniform([100], -2.0, 2.0, &mut r);
        for bits in [2u8, 4, 8] {
            let q = QuantizedTensor::quantize(&t, bits);
            let back = q.dequantize();
            let bound = q.scale() / 2.0 + 1e-6;
            for (a, b) in t.data().iter().zip(back.data()) {
                assert!((a - b).abs() <= bound, "{bits}-bit error {}", (a - b).abs());
            }
        }
    }

    #[test]
    fn more_bits_less_error() {
        let mut r = rng(1);
        let t = init::normal([500], 0.0, 1.0, &mut r);
        let err = |bits| {
            let q = QuantizedTensor::quantize(&t, bits);
            (&q.dequantize() - &t).map(f32::abs).mean()
        };
        assert!(err(8) < err(4));
        assert!(err(4) < err(2));
        assert!(err(2) < err(1));
    }

    #[test]
    fn storage_bytes_packs_bits() {
        let t = Tensor::zeros([100]);
        assert_eq!(QuantizedTensor::quantize(&t, 8).storage_bytes(), 100 + 8);
        assert_eq!(QuantizedTensor::quantize(&t, 4).storage_bytes(), 50 + 8);
        assert_eq!(QuantizedTensor::quantize(&t, 1).storage_bytes(), 13 + 8);
    }

    #[test]
    fn non_finite_values_saturate_and_keep_the_range_finite() {
        let t =
            Tensor::from_vec(vec![f32::NEG_INFINITY, -1.0, 0.5, 3.0, f32::INFINITY], [5]).unwrap();
        let q = QuantizedTensor::quantize(&t, 8);
        let finite = QuantizedTensor::quantize(&t.map(|v| v.clamp(-1.0, 3.0)), 8);
        assert_eq!(
            (q.scale(), q.zero_point()),
            (finite.scale(), finite.zero_point())
        );
        assert_eq!(q.codes(), finite.codes());
        assert_eq!((q.codes()[0], q.codes()[4]), (0, 255));
        for t in [Tensor::zeros([0]), Tensor::full([3], f32::INFINITY)] {
            let q = QuantizedTensor::quantize(&t, 8);
            assert!(q.scale().is_finite() && q.scale() > 0.0 && q.zero_point() == 0.0);
        }
    }

    #[test]
    fn constant_tensor_quantizes_exactly() {
        let t = Tensor::full([10], 3.25);
        let q = QuantizedTensor::quantize(&t, 2);
        assert!(q.dequantize().approx_eq(&t, 1e-6));
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn affine_rejects_zero_bits() {
        QuantizedTensor::quantize(&Tensor::ones([4]), 0);
    }

    #[test]
    fn kmeans_clusters_bimodal_data() {
        // values near -1 and +1: two centroids land near the modes
        let mut data = vec![];
        for i in 0..100 {
            data.push(if i % 2 == 0 { -1.0 } else { 1.0 } + (i as f32) * 1e-4);
        }
        let t = Tensor::from_vec(data, [100]).unwrap();
        let cb = CodebookQuantizer::fit(&t, 2);
        assert_eq!(cb.centroids.len(), 2);
        assert!((cb.centroids[0] + 1.0).abs() < 0.1);
        assert!((cb.centroids[1] - 1.0).abs() < 0.1);
        let q = cb.quantize(&t);
        assert!((&q - &t).map(f32::abs).mean() < 0.05);
    }

    #[test]
    fn kmeans_more_centroids_less_error() {
        let mut r = rng(2);
        let t = init::normal([400], 0.0, 1.0, &mut r);
        let err = |k| {
            let cb = CodebookQuantizer::fit(&t, k);
            (&cb.quantize(&t) - &t).map(f32::abs).mean()
        };
        assert!(err(16) < err(4));
        assert!(err(4) < err(2));
    }

    #[test]
    fn codebook_bits() {
        let t = Tensor::from_vec((0..64).map(|i| i as f32).collect(), [64]).unwrap();
        assert_eq!(CodebookQuantizer::fit(&t, 2).bits(), 1);
        assert_eq!(CodebookQuantizer::fit(&t, 16).bits(), 4);
    }

    #[test]
    fn nearest_picks_closest() {
        let cs = [0.0f32, 1.0, 10.0];
        assert_eq!(nearest(&cs, -5.0), 0);
        assert_eq!(nearest(&cs, 0.4), 0);
        assert_eq!(nearest(&cs, 0.6), 1);
        assert_eq!(nearest(&cs, 5.4), 1);
        assert_eq!(nearest(&cs, 999.0), 2);
        assert_eq!(nearest(&cs, 1.0), 1);
    }

    #[test]
    fn huffman_roundtrip() {
        let data: Vec<u8> = b"abracadabra abracadabra".to_vec();
        let h = HuffmanCode::build(&data);
        let bits = h.encode(&data);
        let back = h.decode(&bits, data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn huffman_beats_fixed_width_on_skewed_data() {
        // 90% zeros: entropy coding should crush 8-bit fixed width
        let mut data = vec![0u8; 900];
        data.extend(std::iter::repeat_n(1u8, 50));
        data.extend(std::iter::repeat_n(2u8, 50));
        let h = HuffmanCode::build(&data);
        let bits = h.encoded_bits(&data);
        assert!(bits < 8 * data.len() as u64 / 4, "bits {bits}");
    }

    #[test]
    fn huffman_single_symbol_stream() {
        let data = vec![7u8; 100];
        let h = HuffmanCode::build(&data);
        let bits = h.encode(&data);
        assert_eq!(bits.len(), 100);
        assert_eq!(h.decode(&bits, 100), data);
    }

    #[test]
    fn huffman_roundtrip_random() {
        for case in 0..256 {
            let mut r = rng(case);
            let len = r.gen_range(1..300);
            let data: Vec<u8> = (0..len).map(|_| r.gen_range(0u8..16)).collect();
            let h = HuffmanCode::build(&data);
            let bits = h.encode(&data);
            assert_eq!(h.decode(&bits, data.len()), data, "case {case}");
        }
    }

    #[test]
    fn code_length_table_covers_symbols_up_to_the_largest_used() {
        assert_eq!(HuffmanCode::build(&[0, 1, 1, 3]).table_bytes(), 4);
        assert_eq!(HuffmanCode::build(&[0; 10]).table_bytes(), 1);
        assert_eq!(HuffmanCode::build(&[255, 0]).table_bytes(), 256);
    }

    #[test]
    fn huffman_pricing_keeps_side_data_and_never_grows_a_stream() {
        let net = dl_nn::Network::mlp(&[10, 12, 4], &mut rng(5));
        for scheme in [
            QuantScheme::Affine { bits: 8 },
            QuantScheme::Affine { bits: 2 },
            QuantScheme::KMeans { k: 4 },
            QuantScheme::Binary,
        ] {
            let (_, rep) = quantize_network(&net, scheme);
            assert!(
                rep.huffman_bytes <= rep.compressed_bytes,
                "{}: {} > {}",
                rep.scheme,
                rep.huffman_bytes,
                rep.compressed_bytes
            );
        }
        // A one-bit stream cannot shrink: it stays packed (120, 12, 48
        // and 4 codes in 15 + 2 + 6 + 1 bytes), next to the same four
        // 4-byte scales.
        let (_, binary) = quantize_network(&net, QuantScheme::Binary);
        assert_eq!(binary.huffman_bytes, binary.compressed_bytes);
        assert_eq!(binary.compressed_bytes, 15 + 2 + 6 + 1 + 4 * 4);
    }

    #[test]
    fn affine_error_bound_random() {
        for case in 0..256 {
            let mut r = rng(case);
            let bits = r.gen_range(1u8..9);
            let t = init::uniform([64], -3.0, 3.0, &mut r);
            let q = QuantizedTensor::quantize(&t, bits);
            let back = q.dequantize();
            let bound = q.scale() / 2.0 + 1e-5;
            for (a, b) in t.data().iter().zip(back.data()) {
                assert!((a - b).abs() <= bound, "case {case}");
            }
        }
    }

    #[test]
    fn from_parts_roundtrip_dequantizes_bitwise() {
        // The persistence contract: a quantized tensor rebuilt from
        // its stored parts (codes + scale/zero/bits/dims) dequantizes
        // to exactly the same f32 bits as the original — no
        // dequantize round-trip happens on the way through storage.
        for case in 0..256 {
            let mut r = rng(case);
            let bits = r.gen_range(1u8..9);
            let t = init::uniform([8, 9], -4.0, 4.0, &mut r);
            let q = QuantizedTensor::quantize(&t, bits);
            let rebuilt = QuantizedTensor::from_parts(
                q.codes().to_vec(),
                q.scale(),
                q.zero_point(),
                q.bits(),
                q.dims().to_vec(),
            );
            let a = q.dequantize();
            let b = rebuilt.dequantize();
            assert_eq!(a.dims(), b.dims());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "case {case}");
            }
        }
    }

    #[test]
    fn int8_roundtrip_bounded_by_step_for_arbitrary_ranges() {
        // The int8 path the serving engine ships: for *any* finite
        // weight vector — tiny ranges, huge magnitudes, constants —
        // quantize→dequantize lands within half a step of the input
        // (plus float-rounding slack proportional to the step).
        for case in 0..256 {
            let mut r = rng(case);
            let n = r.gen_range(1..200);
            let values: Vec<f32> = (0..n).map(|_| r.gen_range(-1e30f32..1e30f32)).collect();
            let t = Tensor::from_vec(values, [n]).unwrap();
            let q = QuantizedTensor::quantize(&t, 8);
            let back = q.dequantize();
            let bound = q.scale() / 2.0 * (1.0 + 1e-4) + 1e-6;
            for (a, b) in t.data().iter().zip(back.data()) {
                assert!(
                    (a - b).abs() <= bound,
                    "case {case}: |{} - {}| = {} > step/2 = {}",
                    a,
                    b,
                    (a - b).abs(),
                    bound
                );
            }
            // Packed int8 storage is one byte per weight plus the header.
            assert_eq!(q.storage_bytes(), n + 8);
        }
    }

    #[test]
    fn quantize_network_shrinks_and_still_predicts() {
        use dl_data::digits_dataset;
        use dl_nn::{Optimizer, TrainConfig, Trainer};
        let data = digits_dataset(200, 0.05, 0);
        let mut r = rng(3);
        let mut net = dl_nn::Network::mlp(&[144, 32, 10], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, &data);
        let base_acc = Trainer::evaluate(&net, &data);
        let (q8, rep8) = quantize_network(&net, QuantScheme::Affine { bits: 8 });
        let acc8 = Trainer::evaluate(&q8, &data);
        assert!(rep8.ratio() > 3.5, "8-bit ratio {}", rep8.ratio());
        assert!(
            base_acc - acc8 < 0.02,
            "8-bit hurt too much: {base_acc} -> {acc8}"
        );
        let (q1, rep1) = quantize_network(&net, QuantScheme::Binary);
        let acc1 = Trainer::evaluate(&q1, &data);
        assert!(rep1.ratio() > 20.0);
        // binary is allowed to hurt, but the report must still be coherent
        assert!(acc1 <= 1.0);
        assert!(rep1.compressed_bytes < rep8.compressed_bytes);
    }

    #[test]
    fn quantize_network_tensors_matches_the_affine_path_bitwise() {
        let mut r = rng(9);
        let net = dl_nn::Network::mlp(&[10, 12, 4], &mut r);
        let (via_scheme, rep_scheme) = quantize_network(&net, QuantScheme::Affine { bits: 8 });
        let (via_tensors, rep_tensors, qts) = quantize_network_tensors(&net, 8);
        assert_eq!(rep_scheme.scheme, rep_tensors.scheme);
        assert_eq!(rep_scheme.compressed_bytes, rep_tensors.compressed_bytes);
        assert_eq!(rep_scheme.huffman_bytes, rep_tensors.huffman_bytes);
        // One quantized tensor per parameter tensor, in params order, and
        // the dequantized reconstructions are the networks' actual params.
        assert_eq!(via_scheme.flat_params(), via_tensors.flat_params());
        let mut b = via_tensors.clone();
        let mut i = 0;
        for layer in b.layers_mut() {
            for (p, _) in layer.params_and_grads() {
                let back = qts[i].dequantize();
                assert_eq!(back.dims(), p.dims());
                for (x, y) in back.data().iter().zip(p.data()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                i += 1;
            }
        }
        assert_eq!(i, qts.len(), "every quantized tensor is accounted for");
    }
}
