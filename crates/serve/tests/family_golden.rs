//! Golden-file regression test for the saved variant-family layout.
//!
//! `tests/golden/tiny_family.dlst` is `save_family` of a small
//! deterministic `build_family` run: every variant kind (fp32 networks,
//! the native int8 MLP, the ensemble) and its cost tables. If
//! any codec a family passes through drifts — hparam names or order, a
//! parameter's dtype, the int8 codes — this test fails before a consumer
//! does.
//!
//! The family is built on the scalar kernel with one thread, so every
//! `DL_THREADS` × `DL_KERNEL` setting shares one golden file. Regenerate
//! (after an intentional format change) with:
//!
//! ```text
//! DL_SERVE_REGEN_FAMILY_GOLDEN=1 cargo test -p dl-serve --test family_golden
//! ```

use dl_serve::{build_family, load_family, save_family, FamilyConfig};
use dl_tensor::par::{self, Kernel};
use std::path::PathBuf;

fn tiny_family_bytes() -> Vec<u8> {
    par::with_kernel(Kernel::Scalar, || {
        par::with_threads(1, || {
            let data = dl_data::blobs(96, 3, 6, 6.0, 0.5, 70);
            let eval = dl_data::blobs(48, 3, 6, 6.0, 0.5, 71);
            let reg = build_family(
                &data,
                &eval,
                &FamilyConfig {
                    teacher_dims: vec![6, 16, 3],
                    student_hidden: vec![6],
                    prune_sparsity: 0.6,
                    morph_budget: 100,
                    ensemble_members: 2,
                    max_batch: 4,
                    epochs: 4,
                    seed: 72,
                },
            );
            save_family(&reg)
        })
    })
}

#[test]
fn saved_family_matches_the_golden_and_resaves_identically() {
    let bytes = tiny_family_bytes();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tiny_family.dlst");
    if std::env::var_os("DL_SERVE_REGEN_FAMILY_GOLDEN").is_some() {
        std::fs::write(&path, &bytes).expect("write golden");
    }
    let golden = std::fs::read(&path)
        .expect("committed golden family (regen with DL_SERVE_REGEN_FAMILY_GOLDEN=1)");
    assert!(
        bytes == golden,
        "save_family drifted from the committed golden file"
    );
    let back = load_family(&golden).expect("the golden family loads");
    assert!(
        save_family(&back) == golden,
        "a loaded golden family re-saves to other bytes"
    );
}
