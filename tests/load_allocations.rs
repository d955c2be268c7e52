//! Allocation budgets of one family save, one cold family load and one
//! weight-store cold fetch.
//!
//! A counting global allocator tallies the heap allocations of
//! `save_family`, `Artifact::parse` and `load_family` on a family shaped
//! like the serving benchmark's fleet families (a 16-64-64-5 teacher with
//! its int8, pruned, distilled, morph and ensemble variants). Parsing
//! reads names, string and byte hparams and dims in place, so it
//! allocates the same for an artifact with twice the sections; decoding
//! builds every lookup name in one reused buffer and reads each tensor
//! once. A weight store parses each artifact once per run, so its cold
//! fetch costs a load's allocations less a parse's. Saving borrows
//! every payload and writes it into the artifact once. This file is a
//! test binary of its own with a single test, so no other test allocates
//! while it counts.

mod counting_alloc;

use counting_alloc::allocations_during;
use dl_serve::{build_family, load_family, save_family, FamilyConfig};
use dl_store::{Artifact, ArtifactBuilder, Dtype};

/// Allocations of one `load_family` of the fleet-shaped family, rounded
/// up from the measured 140 (192 when every variant also decoded a
/// per-layer profile; 260 when every decoded f32 dense layer also
/// allocated zeroed gradient buffers that serving never touches; 1,003
/// when every hparam, name and dims list was copied out of the artifact
/// and every lookup formatted its name).
const LOAD_FAMILY_ALLOCS: u64 = 148;

/// Allocations of one weight-store cold fetch, which decodes an artifact
/// parsed once per run: one `load_family` less its `Artifact::parse`,
/// the measured 138 (140 less 2) plus the load budget's 8 of headroom.
const COLD_FETCH_ALLOCS: u64 = 146;

/// Allocations of one `save_family` of the same family: the measured 359
/// plus 16 of headroom. Nearly all are lookup names; when every variant
/// also saved a per-layer profile, this read 564, and 603 when every
/// payload was also first copied into a buffer of its own.
const SAVE_FAMILY_ALLOCS: u64 = 375;

/// `clean` with every hparam and tensor stored a second time under a
/// `copy.` prefix: twice the sections of each kind.
fn doubled(clean: &[u8]) -> Vec<u8> {
    let a = Artifact::parse(clean).expect("clean artifact");
    // Every payload in its builder form: the codes as stored, f32 values
    // decoded from their little-endian bytes.
    let payloads: Vec<Result<&[u8], Vec<f32>>> = a
        .entries()
        .iter()
        .map(|e| {
            let payload = a.payload(e).expect("own entry");
            match e.dtype {
                Dtype::Q8 => Ok(payload),
                Dtype::F32 => Err(payload
                    .chunks_exact(4)
                    .map(|w| f32::from_le_bytes(w.try_into().expect("4 bytes")))
                    .collect()),
            }
        })
        .collect();
    let mut b = ArtifactBuilder::new();
    for prefix in ["", "copy."] {
        for (name, value) in a.hparams() {
            b.hparam(format!("{prefix}{name}"), value.clone());
        }
    }
    for prefix in ["", "copy."] {
        for (e, payload) in a.entries().iter().zip(&payloads) {
            let name = format!("{prefix}{}", e.name);
            let dims = e.dims.to_vec();
            match (payload, e.quant) {
                (Ok(codes), Some((scale, zero, bits))) => {
                    b.tensor_q8(name, &dims, codes, scale, zero, bits);
                }
                (Err(data), _) => b.tensor_f32(name, &dims, data),
                (Ok(_), None) => panic!("a q8 entry without quant params"),
            }
        }
    }
    b.finish()
}

#[test]
fn cold_load_stays_within_its_allocation_budget() {
    let data = dl_data::blobs(240, 5, 16, 2.4, 1.1, 310);
    let eval = dl_data::blobs(200, 5, 16, 2.4, 1.1, 301);
    let reg = build_family(
        &data,
        &eval,
        &FamilyConfig {
            teacher_dims: vec![16, 64, 64, 5],
            student_hidden: vec![16],
            prune_sparsity: 0.8,
            morph_budget: 1200,
            ensemble_members: 2,
            max_batch: 8,
            epochs: 4,
            seed: 310,
        },
    );
    let (family, save_allocs) = allocations_during(|| save_family(&reg));
    eprintln!("allocations per save_family: {save_allocs}");
    assert!(
        save_allocs <= SAVE_FAMILY_ALLOCS,
        "{save_allocs} allocations per save_family, budget {SAVE_FAMILY_ALLOCS}"
    );
    let twice = doubled(&family);

    let (a, family_parse) = allocations_during(|| Artifact::parse(&family).map(drop));
    a.expect("family parses");
    let (a, twice_parse) = allocations_during(|| Artifact::parse(&twice).map(drop));
    a.expect("doubled artifact parses");
    eprintln!("allocations per parse: {family_parse} (family), {twice_parse} (doubled)");
    assert_eq!(
        family_parse, twice_parse,
        "parse allocations grow with the section count"
    );

    let (loaded, allocs) = allocations_during(|| load_family(&family).map(drop));
    loaded.expect("family loads");
    eprintln!("allocations per load_family: {allocs}");
    assert!(
        allocs <= LOAD_FAMILY_ALLOCS,
        "{allocs} allocations per load_family, budget {LOAD_FAMILY_ALLOCS}"
    );
    let fetch = allocs - family_parse;
    eprintln!("allocations per cold fetch (load_family less parse): {fetch}");
    assert!(
        fetch <= COLD_FETCH_ALLOCS,
        "{fetch} allocations per cold fetch, budget {COLD_FETCH_ALLOCS}"
    );
}
