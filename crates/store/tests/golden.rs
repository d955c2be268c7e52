//! Golden-file regression test for the artifact byte layout.
//!
//! `tests/golden/tiny_mlp.dlst` is a committed artifact for a tiny
//! deterministic MLP, written in format version 3 (the lane checksum,
//! one check per byte).
//! If encoding ever drifts — field order, alignment, checksum,
//! endianness — this test fails before any consumer does. To regenerate
//! after an *intentional* format-version bump:
//!
//! ```text
//! DL_STORE_REGEN_GOLDEN=1 cargo test -p dl-store --test golden
//! ```

use dl_nn::Network;
use dl_store::{checksum, load_network, save_network, Artifact, HParam, ALIGN};
use dl_tensor::init;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tiny_mlp.dlst")
}

fn tiny_mlp() -> Network {
    let mut rng = init::rng(42);
    Network::mlp(&[4, 6, 3], &mut rng)
}

#[test]
fn golden_artifact_bytes_are_stable() {
    let bytes = save_network(&tiny_mlp());
    let path = golden_path();
    if std::env::var_os("DL_STORE_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
    }
    let golden = std::fs::read(&path)
        .expect("committed golden artifact (regen with DL_STORE_REGEN_GOLDEN=1)");
    assert_eq!(
        bytes, golden,
        "artifact encoding drifted from the committed golden file"
    );
}

#[test]
fn golden_artifact_still_loads_and_matches_the_model() {
    let golden = std::fs::read(golden_path()).expect("committed golden artifact");
    let net = load_network(&golden).expect("golden artifact parses");
    let fresh = tiny_mlp();
    let a = fresh.flat_params();
    let b = net.flat_params();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn golden_artifact_is_aligned_and_checksummed() {
    let golden = std::fs::read(golden_path()).expect("committed golden artifact");
    let a = Artifact::parse(&golden).expect("parses");
    // The head, recomputed from the sections: header, then each hparam
    // (name, tag, value) and each directory entry (name, dtype, ndims,
    // dims, quant params, offset, length, checksum).
    let hparams: usize = a
        .hparams()
        .iter()
        .map(|(name, value)| {
            4 + name.len()
                + 1
                + match value {
                    HParam::U64(_) | HParam::F64(_) => 8,
                    HParam::Str(s) => 4 + s.len(),
                    HParam::Bytes(b) => 4 + b.len(),
                }
        })
        .sum();
    let directory: usize = a
        .entries()
        .iter()
        .map(|e| {
            4 + e.name.len() + 1 + 4 + 8 * e.dims.len() + 9 * usize::from(e.quant.is_some()) + 24
        })
        .sum();
    let head = 16 + hparams + directory;
    assert_eq!(a.head_len(), head);
    // The trailer covers the head alone; each payload only its own
    // checksum; everything between is zero.
    let n = golden.len();
    let stored = u64::from_le_bytes(golden[n - 8..].try_into().unwrap());
    assert_eq!(stored, checksum(&golden[..head]));
    let mut at = head;
    for e in a.entries() {
        assert_eq!(e.offset % ALIGN, 0, "payload {} unaligned", e.name);
        assert!(
            golden[at..e.offset].iter().all(|&b| b == 0),
            "padding before {}",
            e.name
        );
        assert_eq!(checksum(a.payload(e).unwrap()), e.checksum);
        at = e.offset + e.len;
    }
    assert_eq!(at, n - 8, "the last payload ends at the trailer");
}
