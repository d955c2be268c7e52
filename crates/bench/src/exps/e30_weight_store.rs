//! E30 — weight store: multi-model serving under a memory budget.
//!
//! Claim: when a serving device hosts more model families than fit in
//! memory, residency — not compute — sets the tail. Three pillars, all
//! measured on the deterministic fleet tier: (1) a warm-started fleet
//! whose budget fits every family never touches the cold path, and its
//! latency population is the steady-state baseline; (2) shrinking the
//! budget below the working set flips residency from stable (one
//! first-touch load per family, zero evictions) to thrashing (LRU
//! evicts the next family the cycle needs), and on paired traffic at a
//! one-family budget the cold requests — identified by joining the
//! timeline's `serve.complete` instants against the fleet's
//! cold-request ids — pay a measured p99 cliff over the warm cohort of
//! the *same run*; (3) the cliff is priced by the
//! artifact bytes flowing through the same `DeviceModel` memory system
//! that prices batch service, so eviction accounting (loads, evicted
//! bytes) reconciles exactly with the store's counters.

use std::collections::HashSet;
use std::sync::OnceLock;

use super::load;
use crate::table::{bytes, col, field_f64, text, us, Column, ExperimentResult};
use dl_obs::{fields, EventKind, FieldValue, Fields, TimelineRecorder};
use dl_serve::{
    build_family, percentile, save_family, serve_fleet, AdmissionPolicy, BatchPolicy, DeviceModel,
    EvictionPolicy, FamilyConfig, FleetConfig, FleetReport, ModelRequest, RouterPolicy,
    ServeConfig, VariantRegistry,
};

/// Families the fleet hosts (the working set).
const N_FAMILIES: usize = 3;
/// Requests per cell.
const CELL_REQUESTS: usize = 600;
/// Offered rate, requests per simulated second — gapped well below
/// saturation so residency, not queueing, dominates the tail.
const RATE_RPS: f64 = 40_000.0;

/// Families are expensive to train and used strictly immutably by the
/// fleet (it serves from decoded artifact copies), so one process-wide
/// build serves every `run()` — keeping the byte-determinism test from
/// paying the training bill twice.
fn build_families() -> &'static (Vec<VariantRegistry>, dl_nn::Dataset) {
    static FAMILIES: OnceLock<(Vec<VariantRegistry>, dl_nn::Dataset)> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        let eval = dl_data::blobs(200, 5, 16, 2.4, 1.1, 301);
        let families = (0..N_FAMILIES)
            .map(|m| {
                let seed = 310 + 10 * m as u64;
                let data = dl_data::blobs(300, 5, 16, 2.4, 1.1, seed);
                build_family(
                    &data,
                    &eval,
                    &FamilyConfig {
                        teacher_dims: vec![16, 64, 64, 5],
                        student_hidden: vec![16],
                        prune_sparsity: 0.8,
                        morph_budget: 1200,
                        ensemble_members: 2,
                        max_batch: 32,
                        epochs: 10,
                        seed,
                    },
                )
            })
            .collect();
        (families, eval)
    })
}

/// Model-tagged traffic cycling through `n_models` families — the
/// sequential access pattern that defeats LRU the moment the working set
/// outgrows the budget.
fn cycling_load(n_models: usize, seed: u64, n_samples: usize) -> Vec<ModelRequest> {
    load(RATE_RPS, CELL_REQUESTS, seed, n_samples)
        .into_iter()
        .map(|req| ModelRequest {
            req,
            model: (req.id % n_models as u64) as usize,
        })
        .collect()
}

/// Paired traffic over two families (`0,0,1,1,0,0,...`): at a one-family
/// budget the first request of each pair faults and the second lands
/// warm, so a single run carries both cohorts in equal measure — the
/// population the cold-start cliff is measured on.
fn paired_load(seed: u64, n_samples: usize) -> Vec<ModelRequest> {
    load(RATE_RPS, CELL_REQUESTS, seed, n_samples)
        .into_iter()
        .map(|req| ModelRequest {
            req,
            model: ((req.id / 2) % 2) as usize,
        })
        .collect()
}

struct Cell {
    report: FleetReport,
    warm_p99_s: f64,
    cold_p99_s: f64,
    warm_n: usize,
    cold_n: usize,
    /// `store.load` instants observed on the timeline.
    load_events: usize,
    /// Sum of those instants' `bytes` fields.
    load_event_bytes: u64,
}

/// Runs one fleet cell and splits its completion latencies into warm and
/// cold cohorts by joining the timeline against the cold-request ids.
fn run_cell(
    families: &[VariantRegistry],
    eval: &dl_nn::Dataset,
    requests: &[ModelRequest],
    budget: u64,
    eviction: EvictionPolicy,
    warm_start: bool,
) -> Cell {
    let rec = TimelineRecorder::new();
    let report = serve_fleet(
        families,
        eval,
        requests,
        &FleetConfig {
            serve: ServeConfig {
                // batch=1 keeps every artifact load on the critical path
                // instead of hiding under a flush-delay window.
                batch: BatchPolicy::no_batching(),
                admission: AdmissionPolicy::AcceptAll,
                primary: "fp32-base".into(),
                device: DeviceModel::nominal(),
            },
            replicas: 1,
            store_budget_bytes: budget,
            eviction,
            router: RouterPolicy::RoundRobin,
            warm_start,
        },
        &rec,
    );
    let cold: HashSet<u64> = report.cold_request_ids.iter().copied().collect();
    let mut warm_lat = Vec::new();
    let mut cold_lat = Vec::new();
    let mut load_events = 0usize;
    let mut load_event_bytes = 0u64;
    for e in rec.events() {
        if e.kind != EventKind::Instant {
            continue;
        }
        if e.name == "store.load" {
            load_events += 1;
            load_event_bytes +=
                field_f64(&e.fields, "bytes").expect("loads carry the artifact size") as u64;
            continue;
        }
        if e.name != "serve.complete" {
            continue;
        }
        let id = field_f64(&e.fields, "request").expect("completions carry the request id") as u64;
        let lat = field_f64(&e.fields, "latency_s").expect("completions carry latency");
        if cold.contains(&id) {
            cold_lat.push(lat);
        } else {
            warm_lat.push(lat);
        }
    }
    Cell {
        warm_p99_s: percentile(&warm_lat, 0.99),
        cold_p99_s: percentile(&cold_lat, 0.99),
        warm_n: warm_lat.len(),
        cold_n: cold_lat.len(),
        load_events,
        load_event_bytes,
        report,
    }
}

fn cell_record(label: &str, families: usize, budget: u64, c: &Cell) -> Fields {
    fields! {
        "cell" => label.to_string(),
        "families" => families,
        "budget_bytes" => budget,
        "served" => c.report.report.served,
        "p99_s" => c.report.report.p99_s,
        "warm_p99_s" => c.warm_p99_s,
        "cold_p99_s" => c.cold_p99_s,
        "warm_n" => c.warm_n,
        "cold_n" => c.cold_n,
        "cold_loads" => c.report.cold_loads,
        "warm_hits" => c.report.warm_hits,
        "evictions" => c.report.evictions,
        "bytes_loaded" => c.report.bytes_loaded,
        "accuracy" => c.report.report.accuracy,
    }
}

const COLUMNS: &[Column] = &[
    col("cell", "cell", text),
    col("families", "families", text),
    col("budget", "budget_bytes", bytes),
    col("cold loads", "cold_loads", text),
    col("evictions", "evictions", text),
    col("p99 us", "p99_s", us::<1>),
    col("warm p99 us", "warm_p99_s", us::<1>),
    col("cold p99 us", "cold_p99_s", cold_us),
];

/// A cold-cohort p99 in microseconds; an empty cohort's percentile is 0
/// by convention and prints `-`.
fn cold_us(v: &FieldValue) -> String {
    if v.as_f64() == Some(0.0) {
        "-".into()
    } else {
        us::<1>(v)
    }
}

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let (families, eval) = build_families();
    let sizes: Vec<u64> = families
        .iter()
        .map(|f| save_family(f).len() as u64)
        .collect();
    let total: u64 = sizes.iter().sum();
    let min = *sizes.iter().min().expect("non-empty");
    let max = *sizes.iter().max().expect("non-empty");
    // Three budget rungs: everything resident, any two resident (the
    // cycling working set no longer fits), exactly one resident.
    let fits_all = total + min / 2;
    let fits_two = total - min / 2;
    let fits_one = max + min / 2;

    let mut records: Vec<Fields> = Vec::new();
    for (m, s) in sizes.iter().enumerate() {
        records.push(fields! { "family" => m, "artifact_bytes" => *s });
    }

    // --- pillar 1: warm-started steady state ------------------------------
    let n_samples = eval.x.dims()[0];
    let full_load = cycling_load(N_FAMILIES, 330, n_samples);
    let warm = run_cell(
        families,
        eval,
        &full_load,
        fits_all,
        EvictionPolicy::Lru,
        true,
    );
    records.push(cell_record("warm-start", N_FAMILIES, fits_all, &warm));
    let warm_clean = warm.report.cold_loads == 0
        && warm.report.evictions == 0
        && warm.cold_n == 0
        && warm.warm_n == CELL_REQUESTS;

    // --- pillar 2: budget x family-count sweep ----------------------------
    let mut cells: Vec<(String, usize, u64, Cell)> = Vec::new();
    for n_models in 1..=N_FAMILIES {
        let load = cycling_load(n_models, 330, n_samples);
        let fams = &families[..n_models];
        for (bname, budget) in [
            ("fits-one", fits_one),
            ("fits-two", fits_two),
            ("fits-all", fits_all),
        ] {
            let c = run_cell(fams, eval, &load, budget, EvictionPolicy::Lru, false);
            let label = format!("{n_models}fam/{bname}");
            records.push(cell_record(&label, n_models, budget, &c));
            cells.push((bname.into(), n_models, budget, c));
        }
    }
    let get = |bname: &str, n: usize| -> &Cell {
        &cells
            .iter()
            .find(|(b, m, _, _)| b == bname && *m == n)
            .expect("cell ran")
            .3
    };

    // Residency flips at the budget knee: with every family fitting, each
    // is loaded exactly once and nothing is ever evicted; one rung down
    // the cycling pattern evicts on (nearly) every switch.
    let stable = get("fits-all", N_FAMILIES);
    let thrash = get("fits-two", N_FAMILIES);
    let residency_flips = stable.report.cold_loads == N_FAMILIES
        && stable.report.evictions == 0
        && thrash.report.evictions > CELL_REQUESTS / 2
        && thrash.report.cold_loads > CELL_REQUESTS / 2;
    // The same budget that thrashes three families holds two comfortably.
    let working_set_matters =
        get("fits-two", 2).report.evictions == 0 && get("fits-two", 2).report.cold_loads == 2;

    // Cold requests pay the measured artifact-read cliff inside one run.
    // The pure cycle is a 100% miss pattern (no warm cohort), so the
    // cliff is measured on paired traffic at a one-family budget: every
    // pair's first request faults, its second lands warm, and the two
    // cohorts split the same run roughly in half.
    let pair = run_cell(
        &families[..2],
        eval,
        &paired_load(330, n_samples),
        fits_one,
        EvictionPolicy::Lru,
        false,
    );
    records.push(cell_record("2fam/paired/fits-one", 2, fits_one, &pair));
    let cliff = if pair.warm_p99_s > 0.0 {
        pair.cold_p99_s / pair.warm_p99_s
    } else {
        0.0
    };
    let cold_cliff = pair.cold_n > 50 && pair.warm_n > 50 && cliff >= 1.5;

    // --- pillar 3: accounting reconciles ----------------------------------
    // The store's counters must reconcile exactly with the timeline:
    // one `store.load` instant per cold load, their `bytes` fields
    // summing to the byte counter; cells that load each family exactly
    // once read exactly the families' total artifact bytes.
    let mut accounted = true;
    for c in cells.iter().map(|(_, _, _, c)| c).chain([&pair]) {
        if c.report.cold_loads == N_FAMILIES && c.report.evictions == 0 {
            accounted &= c.report.bytes_loaded == total;
        }
        accounted &= c.report.report.served == CELL_REQUESTS;
        accounted &= c.load_events == c.report.cold_loads;
        accounted &= c.load_event_bytes == c.report.bytes_loaded;
    }

    // Cost-aware eviction on the same thrashing cell (informational; with
    // a uniform cycle no policy can beat LRU's miss rate, the point is
    // that the scorer runs and stays deterministic).
    let aware = run_cell(
        families,
        eval,
        &full_load,
        fits_two,
        EvictionPolicy::CostAware,
        false,
    );
    records.push(cell_record(
        "3fam/fits-two/cost-aware",
        N_FAMILIES,
        fits_two,
        &aware,
    ));

    records.push(fields! {
        "total_artifact_bytes" => total,
        "fits_all_bytes" => fits_all,
        "fits_two_bytes" => fits_two,
        "fits_one_bytes" => fits_one,
        "warm_p99_s" => warm.report.report.p99_s,
        "stable_cold_loads" => stable.report.cold_loads,
        "stable_evictions" => stable.report.evictions,
        "thrash_cold_loads" => thrash.report.cold_loads,
        "thrash_evictions" => thrash.report.evictions,
        "pair_warm_p99_s" => pair.warm_p99_s,
        "pair_cold_p99_s" => pair.cold_p99_s,
        "pair_warm_n" => pair.warm_n,
        "pair_cold_n" => pair.cold_n,
        "cold_over_warm_p99" => cliff,
        "aware_evictions" => aware.report.evictions,
        "warm_clean" => warm_clean,
        "residency_flips" => residency_flips,
        "working_set_matters" => working_set_matters,
        "cold_cliff" => cold_cliff,
        "accounted" => accounted,
    });

    let ok = warm_clean && residency_flips && working_set_matters && cold_cliff && accounted;
    ExperimentResult {
        id: "e30".into(),
        title: "weight store: multi-model serving under a memory budget".into(),
        tables: vec![COLUMNS],
        verdict: if ok {
            format!(
                "matches the claim: shrinking the budget from fits-all to fits-two flips \
                 residency ({} first-touch loads / 0 evictions -> {} loads / {} evictions \
                 over {} requests), cold requests pay a {:.1}x p99 cliff ({:.1}us vs {:.1}us \
                 warm in the same paired run), and a warm-started fleet never touches the \
                 cold path",
                stable.report.cold_loads,
                thrash.report.cold_loads,
                thrash.report.evictions,
                CELL_REQUESTS,
                cliff,
                pair.cold_p99_s * 1e6,
                pair.warm_p99_s * 1e6,
            )
        } else {
            format!(
                "PARTIAL: warm_clean={warm_clean} residency_flips={residency_flips} \
                 working_set_matters={working_set_matters} cold_cliff={cold_cliff} \
                 (ratio {cliff:.2}) accounted={accounted}"
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e30_measures_the_cold_start_cliff() {
        let r = super::run();
        assert!(
            r.verdict.contains("matches the claim"),
            "verdict: {}",
            r.verdict
        );
        assert_eq!(r.row_counts(), [12]);
        let summary = r.records.last().unwrap();
        let cliff = crate::table::field_f64(summary, "cold_over_warm_p99").unwrap();
        assert!(cliff >= 1.5, "cold/warm p99 ratio only {cliff}");
        let thrash_ev = crate::table::field_f64(summary, "thrash_evictions").unwrap();
        let stable_ev = crate::table::field_f64(summary, "stable_evictions").unwrap();
        assert!(
            stable_ev == 0.0 && thrash_ev > 0.0,
            "budget must flip residency"
        );
    }

    #[test]
    fn e30_is_deterministic_byte_for_byte() {
        let a = super::run();
        let b = super::run();
        assert_eq!(a.to_json(), b.to_json(), "two runs must be byte-identical");
    }
}
