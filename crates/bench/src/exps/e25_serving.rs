//! E25 — serving: dynamic batching, variant selection, load shedding.
//!
//! Claim: the classic serving tradeoff (throughput vs p99 latency vs
//! accuracy) is navigable from measured kernel costs. Three pillars:
//! (1) dynamic batching sustains ≥2× the offered rate of batch=1 serving
//! inside the same p99 SLO, because the batched dl-nn forward genuinely
//! amortizes weight traffic (measured, not modeled); (2) past the
//! saturation knee, accept-all queueing melts the tail while SLO-aware
//! admission keeps p99 bounded by shedding and downgrading; (3) the
//! variant family (int8 / pruned / distilled / morph / ensemble built
//! from one teacher) populates the tradeoff navigator under
//! `Category::Serving`, so a memory or latency budget picks a variant.

use super::{load, serving_family};
use crate::table::{bytes, col, fixed, text, us, Column, ExperimentResult};
use dl_core::{Category, Constraint, Metrics, Registry, Technique, TradeoffNavigator};
use dl_obs::{fields, Fields, NullRecorder, TimelineRecorder, ToFields};
use dl_serve::{
    replica_capacity_rps, serve, AdmissionPolicy, BatchPolicy, DeviceModel, ServeConfig,
    ServeReport, VariantRegistry,
};

/// The p99 latency objective every sweep cell is judged against.
const SLO_S: f64 = 5e-5;
/// Requests per sustainable-rate cell.
const CELL_REQUESTS: usize = 1200;
/// Requests per overload cell (long enough for the backlog to melt).
const OVERLOAD_REQUESTS: usize = 2500;

fn serve_cell(
    registry: &VariantRegistry,
    eval: &dl_nn::Dataset,
    rate_rps: f64,
    seed: u64,
    requests: usize,
    cfg: &ServeConfig,
    rec: &dyn dl_obs::Recorder,
) -> ServeReport {
    let requests = load(rate_rps, requests, seed, eval.x.dims()[0]);
    serve(registry, eval, &requests, cfg, rec)
}

fn cell_record(label: &str, policy: &str, rate_rps: f64, r: &ServeReport) -> Fields {
    let mut f = fields! {
        "cell" => label.to_string(),
        "policy" => policy.to_string(),
        "rate_rps" => rate_rps,
    };
    f.extend(r.to_fields());
    f
}

const VARIANTS: &[Column] = &[
    col("variant", "variant", text),
    col("weight bytes", "weight_bytes", bytes),
    col("acc", "accuracy", fixed::<3>),
    col("svc1 us", "svc1_s", us::<2>),
    col("full-batch us/req", "svc_full_batch_per_req_s", us::<3>),
];

const CELLS: &[Column] = &[
    col("cell", "cell", text),
    col("policy", "policy", text),
    col("rate rps", "rate_rps", fixed::<0>),
    col("p99 us", "p99_s", us::<1>),
    col("thr rps", "throughput_rps", fixed::<0>),
    col("acc", "accuracy", fixed::<3>),
    col("shed", "shed", text),
    col("down", "downgraded", text),
    col("mean batch", "mean_batch", fixed::<1>),
];

const NAVIGATOR: &[Column] = &[
    col("memory budget B", "budget_bytes", text),
    col("serving pick", "recommended_under_budget", text),
    col("frontier", "frontier_size", text),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let (family, eval) = serving_family();
    let device = DeviceModel::nominal();
    let dynamic = BatchPolicy::dynamic(32, 8e-6);

    let mut records: Vec<Fields> = Vec::new();

    // --- the served family -----------------------------------------------
    for v in &family.variants {
        let svc1 = device.service_time(v.cost_at(1));
        let b = v.max_batch();
        let svc_b_per_req = device.service_time(v.cost_at(b)) / b as f64;
        records.push(fields! {
            "variant" => v.name.clone(),
            "accuracy" => v.accuracy,
            "weight_bytes" => v.weight_bytes,
            "params" => v.model.param_count(),
            "flops1" => v.cost_at(1).flops,
            "svc1_s" => svc1,
            "svc_full_batch_per_req_s" => svc_b_per_req,
        });
    }

    // --- pillar 1: sustainable rate, batch=1 vs dynamic -------------------
    let base = &family.variants[0];
    let cap1 = 1.0 / device.service_time(base.cost_at(1));
    let cap_dyn = replica_capacity_rps(&device, base);
    let rates: Vec<f64> = [0.5, 1.0, 2.0, 4.0, 8.0].iter().map(|m| m * cap1).collect();
    let mut best_single = 0.0f64;
    let mut best_single_thr = 0.0f64;
    let mut best_dynamic = 0.0f64;
    let mut best_dynamic_thr = 0.0f64;
    for (i, &rate) in rates.iter().enumerate() {
        let seed = 100 + i as u64;
        for (policy_name, batch) in [
            ("batch=1", BatchPolicy::no_batching()),
            ("dynamic", dynamic),
        ] {
            let cfg = ServeConfig {
                batch,
                admission: AdmissionPolicy::AcceptAll,
                primary: "fp32-base".into(),
                device: device.clone(),
            };
            let r = serve_cell(
                &family,
                &eval,
                rate,
                seed,
                CELL_REQUESTS,
                &cfg,
                &NullRecorder::new(),
            );
            let label = format!("sweep x{:.1}", rate / cap1);
            records.push(cell_record(&label, policy_name, rate, &r));
            if r.p99_s <= SLO_S && r.shed == 0 {
                if policy_name == "batch=1" && rate > best_single {
                    best_single = rate;
                    best_single_thr = r.throughput_rps;
                }
                if policy_name == "dynamic" && rate > best_dynamic {
                    best_dynamic = rate;
                    best_dynamic_thr = r.throughput_rps;
                }
            }
        }
    }
    let speedup = if best_single_thr > 0.0 {
        best_dynamic_thr / best_single_thr
    } else {
        0.0
    };
    let batching_wins = best_single > 0.0 && best_dynamic > 0.0 && speedup >= 2.0;

    // --- pillar 2: past the knee, shed or melt ----------------------------
    let overload = 2.5 * cap_dyn;
    let melted = serve_cell(
        &family,
        &eval,
        overload,
        200,
        OVERLOAD_REQUESTS,
        &ServeConfig {
            batch: dynamic,
            admission: AdmissionPolicy::AcceptAll,
            primary: "fp32-base".into(),
            device: device.clone(),
        },
        &NullRecorder::new(),
    );
    records.push(cell_record("overload", "accept-all", overload, &melted));
    // The SLO gate for the governed run reads the dl-obs histogram tails
    // (p99/p999), exactly what a production gate would scrape.
    let rec = TimelineRecorder::new();
    let governed = serve_cell(
        &family,
        &eval,
        overload,
        200,
        OVERLOAD_REQUESTS,
        &ServeConfig {
            batch: dynamic,
            admission: AdmissionPolicy::SloAware {
                p99_slo_s: SLO_S,
                headroom: 0.7,
                min_accuracy: 0.5,
            },
            primary: "fp32-base".into(),
            device: device.clone(),
        },
        &rec,
    );
    records.push(cell_record("overload", "slo-aware", overload, &governed));
    let hist = rec
        .histogram("serve.latency_s")
        .expect("engine records latencies");
    // Bucket-edge estimates are upper bounds within one power of two, so
    // the gate allows 2x on top of the SLO.
    let gate_ok = hist.p99() <= 2.0 * SLO_S && hist.p999() <= 2.0 * SLO_S;
    let shedding_holds = melted.p99_s > 2.0 * SLO_S
        && governed.shed > 0
        && governed.downgraded > 0
        && governed.p99_s <= SLO_S
        && gate_ok;

    // --- pillar 3: the family in the tradeoff navigator ------------------
    let mut registry = Registry::new();
    let fp32_bytes = family.variants[0].weight_bytes;
    for v in &family.variants {
        registry
            .add(Technique {
                name: format!("serve-{}", v.name),
                category: Category::Serving,
                metrics: Metrics {
                    accuracy: v.accuracy,
                    train_flops: 0,
                    inference_flops: v.cost_at(1).flops,
                    memory_bytes: v.weight_bytes,
                    energy_kwh: 0.0,
                },
                baseline: Some("serve-fp32-base".into()),
            })
            .expect("unique variant names");
    }
    let navigator = TradeoffNavigator::new(&registry);
    let frontier = navigator.frontier().len();
    let budget_pick = navigator
        .recommend(&[Constraint::MaxMemoryBytes(fp32_bytes / 3)])
        .map(|t| t.name.clone())
        .unwrap_or_default();
    let navigable = frontier > 0 && !budget_pick.is_empty() && budget_pick != "serve-fp32-base";
    records.push(fields! {
        "cap1_rps" => cap1,
        "cap_dyn_rps" => cap_dyn,
        "slo_s" => SLO_S,
        "best_rate_batch1_rps" => best_single,
        "best_rate_dynamic_rps" => best_dynamic,
        "speedup_at_slo" => speedup,
        "melted_p99_s" => melted.p99_s,
        "governed_p99_s" => governed.p99_s,
        "governed_shed" => governed.shed,
        "governed_downgraded" => governed.downgraded,
        "governed_accuracy" => governed.accuracy,
        "hist_p99_s" => hist.p99(),
        "hist_p999_s" => hist.p999(),
        "frontier_size" => frontier,
        "serving_techniques" => registry.by_category(Category::Serving).len(),
        "recommended_under_budget" => budget_pick.clone(),
        "budget_bytes" => fp32_bytes / 3,
    });

    let ok = batching_wins && shedding_holds && navigable;
    ExperimentResult {
        id: "e25".into(),
        title: "serving: dynamic batching, variant selection, load shedding".into(),
        tables: vec![VARIANTS, CELLS, NAVIGATOR],
        verdict: if ok {
            format!(
                "matches the claim: dynamic batching sustains {:.1}x the batch=1 throughput \
                 inside the {:.0}us p99 SLO, SLO-aware admission keeps overload p99 at {:.1}us \
                 (vs {:.0}us melted) by shedding {} and downgrading {}, and a memory budget \
                 picks {} from the frontier",
                speedup,
                SLO_S * 1e6,
                governed.p99_s * 1e6,
                melted.p99_s * 1e6,
                governed.shed,
                governed.downgraded,
                budget_pick
            )
        } else {
            format!(
                "PARTIAL: batching_wins={batching_wins} (speedup {speedup:.2}) \
                 shedding_holds={shedding_holds} navigable={navigable}"
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e25_serves_and_matches_claim() {
        let r = super::run();
        assert!(
            r.verdict.contains("matches the claim"),
            "verdict: {}",
            r.verdict
        );
        assert_eq!(r.row_counts(), [6, 12, 1]);
        let summary = r.records.last().unwrap();
        let speedup = crate::table::field_f64(summary, "speedup_at_slo").unwrap();
        assert!(speedup >= 2.0, "dynamic batching speedup only {speedup}");
        let governed = crate::table::field_f64(summary, "governed_p99_s").unwrap();
        let slo = crate::table::field_f64(summary, "slo_s").unwrap();
        assert!(governed <= slo, "governed p99 {governed} busts slo {slo}");
    }

    #[test]
    fn e25_is_deterministic_byte_for_byte() {
        let a = super::run();
        let b = super::run();
        assert_eq!(a.to_json(), b.to_json(), "two runs must be byte-identical");
    }
}
