//! Tail-latency attribution over a reconstructed [`TraceSet`]: phase and
//! replica percentile tables, top-k slowest waterfalls, a byte-stable
//! JSON export, and Chrome flow arrows for cross-track handoffs.

use dl_obs::export::{fields_to_json, Flow, FlowPhase};
use dl_obs::{fields, Event, Fields};

use crate::context::{DispatchKind, ServeEvent};
use crate::waterfall::{Outcome, Phase, RequestTrace, TraceSet, PHASE_COUNT};

/// Nearest-rank quantile over an ascending-sorted slice (0 when empty).
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// p50/p99 decomposition of served latency by phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreakdown {
    /// Served requests the quantiles are over.
    pub count: usize,
    /// Per-phase p50 (µs), indexed in [`Phase::ALL`] order.
    pub p50_us: [u64; PHASE_COUNT],
    /// Per-phase p99 (µs), indexed in [`Phase::ALL`] order.
    pub p99_us: [u64; PHASE_COUNT],
    /// End-to-end p50 (µs).
    pub e2e_p50_us: u64,
    /// End-to-end p99 (µs).
    pub e2e_p99_us: u64,
}

/// Computes the per-phase and end-to-end latency quantiles over served
/// requests.
#[must_use]
pub fn phase_breakdown(set: &TraceSet) -> PhaseBreakdown {
    let served: Vec<&RequestTrace> = set.served().collect();
    let mut e2e: Vec<u64> = served.iter().map(|t| t.e2e_us()).collect();
    e2e.sort_unstable();
    let mut p50 = [0u64; PHASE_COUNT];
    let mut p99 = [0u64; PHASE_COUNT];
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let mut xs: Vec<u64> = served.iter().map(|t| t.phase_us(*phase)).collect();
        xs.sort_unstable();
        p50[i] = quantile_us(&xs, 0.50);
        p99[i] = quantile_us(&xs, 0.99);
    }
    PhaseBreakdown {
        count: served.len(),
        p50_us: p50,
        p99_us: p99,
        e2e_p50_us: quantile_us(&e2e, 0.50),
        e2e_p99_us: quantile_us(&e2e, 0.99),
    }
}

/// Per-replica slice of the served latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaBreakdown {
    /// Replica index.
    pub replica: u32,
    /// Requests this replica served (won).
    pub served: usize,
    /// End-to-end p50 of requests it served (µs).
    pub e2e_p50_us: u64,
    /// End-to-end p99 of requests it served (µs).
    pub e2e_p99_us: u64,
    /// Queue-phase p99 of requests it served (µs).
    pub queue_p99_us: u64,
    /// Service-phase p99 of requests it served (µs).
    pub service_p99_us: u64,
}

/// Groups served requests by winning replica and summarizes each slice,
/// sorted by replica index.
#[must_use]
pub fn by_replica(set: &TraceSet) -> Vec<ReplicaBreakdown> {
    let mut groups: std::collections::BTreeMap<u32, Vec<&RequestTrace>> = Default::default();
    for t in set.served() {
        if let Outcome::Served { replica, .. } = t.outcome {
            groups.entry(replica).or_default().push(t);
        }
    }
    groups
        .into_iter()
        .map(|(replica, ts)| {
            let mut e2e: Vec<u64> = ts.iter().map(|t| t.e2e_us()).collect();
            let mut queue: Vec<u64> = ts.iter().map(|t| t.phase_us(Phase::Queue)).collect();
            let mut service: Vec<u64> = ts.iter().map(|t| t.phase_us(Phase::Service)).collect();
            e2e.sort_unstable();
            queue.sort_unstable();
            service.sort_unstable();
            ReplicaBreakdown {
                replica,
                served: ts.len(),
                e2e_p50_us: quantile_us(&e2e, 0.50),
                e2e_p99_us: quantile_us(&e2e, 0.99),
                queue_p99_us: quantile_us(&queue, 0.99),
                service_p99_us: quantile_us(&service, 0.99),
            }
        })
        .collect()
}

/// The `k` slowest requests by end-to-end time (all outcomes), slowest
/// first; ties break toward the lower request id, so the order is
/// deterministic.
#[must_use]
fn slowest(set: &TraceSet, k: usize) -> Vec<&RequestTrace> {
    let mut all: Vec<&RequestTrace> = set.requests.iter().collect();
    all.sort_by(|a, b| b.e2e_us().cmp(&a.e2e_us()).then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

/// Mean phase composition (µs) over the slowest `frac` of served
/// requests (at least one), plus how many requests that tail holds.
/// This is the number that answers "where does the p99 live": compare
/// the tail's queue vs service mass across routing policies.
#[must_use]
pub fn tail_mean_phase_us(set: &TraceSet, frac: f64) -> ([f64; PHASE_COUNT], usize) {
    let mut served: Vec<&RequestTrace> = set.served().collect();
    served.sort_by(|a, b| b.e2e_us().cmp(&a.e2e_us()).then(a.id.cmp(&b.id)));
    if served.is_empty() {
        return ([0.0; PHASE_COUNT], 0);
    }
    let n = ((frac * served.len() as f64).ceil() as usize).clamp(1, served.len());
    let mut mean = [0.0f64; PHASE_COUNT];
    for t in &served[..n] {
        for (i, m) in mean.iter_mut().enumerate() {
            *m += t.phases[i] as f64;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    (mean, n)
}

fn fmt_us(us: u64) -> String {
    format!("{:.1}", us as f64)
}

/// Renders one request's ASCII waterfall (indent two spaces per line).
/// Zero-duration phases are elided from the bar rows.
#[must_use]
fn render_waterfall(t: &RequestTrace, rank: usize) -> String {
    const WIDTH: u64 = 40;
    let mut out = String::new();
    let head = match t.outcome {
        Outcome::Served { replica, via } => format!("served@r{replica} via {}", via.label()),
        _ => t.outcome.label().to_string(),
    };
    let batch = t
        .batch
        .as_ref()
        .map(|b| {
            format!(
                "  batch r{}#{} [{}/{}] {}",
                b.replica,
                b.seq,
                b.pos + 1,
                b.size,
                b.trigger.label()
            )
        })
        .unwrap_or_default();
    let wasted = if t.wasted_us > 0 {
        format!("  wasted {}µs", fmt_us(t.wasted_us))
    } else {
        String::new()
    };
    out.push_str(&format!(
        "  #{rank} req {}  {}µs  {head}{batch}{wasted}\n",
        t.id,
        fmt_us(t.e2e_us())
    ));
    let e2e = t.e2e_us();
    if e2e == 0 {
        out.push_str("     (instantaneous)\n");
        return out;
    }
    let mut offset = 0u64;
    for phase in Phase::ALL {
        let dur = t.phase_us(phase);
        if dur == 0 {
            continue;
        }
        let start = (offset * WIDTH / e2e).min(WIDTH - 1);
        let end = (((offset + dur) * WIDTH).div_ceil(e2e)).clamp(start + 1, WIDTH);
        let mut bar = String::with_capacity(WIDTH as usize);
        for col in 0..WIDTH {
            bar.push(if col >= start && col < end { '#' } else { '.' });
        }
        out.push_str(&format!(
            "     {:<10} |{bar}| {:>9}µs\n",
            phase.label(),
            fmt_us(dur)
        ));
        offset += dur;
    }
    out
}

/// Renders the full per-request report: outcome tallies, the phase
/// decomposition table, per-replica slices, and the `k` slowest
/// waterfalls. Byte-stable for a fixed trace.
#[must_use]
pub fn render_requests(set: &TraceSet, k: usize) -> String {
    let mut out = String::new();
    let c = &set.counts;
    let hedged = set.requests.iter().filter(|t| t.hedged).count();
    let wasted_us: u64 = set.requests.iter().map(|t| t.wasted_us).sum();
    out.push_str(&format!(
        "requests: {} traced -> {} served, {} shed, {} lost, {} unavailable; {} hedged, {}µs wasted duplicates\n",
        set.requests.len(),
        c.served,
        c.shed,
        c.lost,
        c.unavailable,
        hedged,
        fmt_us(wasted_us)
    ));

    let pb = phase_breakdown(set);
    out.push_str(&format!(
        "\nphase decomposition over {} served requests (µs)\n",
        pb.count
    ));
    out.push_str(&format!("  {:<10} {:>10} {:>10}\n", "phase", "p50", "p99"));
    for (i, phase) in Phase::ALL.iter().enumerate() {
        out.push_str(&format!(
            "  {:<10} {:>10} {:>10}\n",
            phase.label(),
            fmt_us(pb.p50_us[i]),
            fmt_us(pb.p99_us[i])
        ));
    }
    out.push_str(&format!(
        "  {:<10} {:>10} {:>10}\n",
        "e2e",
        fmt_us(pb.e2e_p50_us),
        fmt_us(pb.e2e_p99_us)
    ));

    let replicas = by_replica(set);
    if !replicas.is_empty() {
        out.push_str("\nper-replica (µs)\n");
        out.push_str(&format!(
            "  {:<8} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            "replica", "served", "e2e p50", "e2e p99", "queue p99", "svc p99"
        ));
        for r in &replicas {
            out.push_str(&format!(
                "  r{:<7} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
                r.replica,
                r.served,
                fmt_us(r.e2e_p50_us),
                fmt_us(r.e2e_p99_us),
                fmt_us(r.queue_p99_us),
                fmt_us(r.service_p99_us)
            ));
        }
    }

    let top = slowest(set, k);
    if !top.is_empty() {
        out.push_str(&format!("\ntop {} slowest requests\n", top.len()));
        for (i, t) in top.iter().enumerate() {
            out.push_str(&render_waterfall(t, i + 1));
        }
    }
    out
}

fn phases_fields(p50: &[u64; PHASE_COUNT]) -> Fields {
    let mut fields = Fields::new();
    for (i, phase) in Phase::ALL.iter().enumerate() {
        fields.push((phase.label().into(), p50[i].into()));
    }
    fields
}

/// Serializes the attribution report as one byte-stable JSON object
/// (sorted keys throughout): outcome tallies, per-phase p50/p99, the
/// per-replica table, and the `k` slowest requests with full phase
/// vectors.
#[must_use]
pub fn requests_json(set: &TraceSet, k: usize) -> String {
    let c = &set.counts;
    let pb = phase_breakdown(set);
    let mut out = String::new();
    out.push_str("{\"by_replica\":[");
    for (i, r) in by_replica(set).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fields_to_json(&fields! {
            "replica" => r.replica,
            "served" => r.served,
            "e2e_p50_us" => r.e2e_p50_us,
            "e2e_p99_us" => r.e2e_p99_us,
            "queue_p99_us" => r.queue_p99_us,
            "service_p99_us" => r.service_p99_us,
        }));
    }
    out.push_str("],\"counts\":");
    out.push_str(&fields_to_json(&fields! {
        "served" => c.served,
        "shed" => c.shed,
        "lost" => c.lost,
        "unavailable" => c.unavailable,
    }));
    out.push_str(",\"e2e_p50_us\":");
    out.push_str(&pb.e2e_p50_us.to_string());
    out.push_str(",\"e2e_p99_us\":");
    out.push_str(&pb.e2e_p99_us.to_string());
    out.push_str(",\"phases_p50_us\":");
    out.push_str(&fields_to_json(&phases_fields(&pb.p50_us)));
    out.push_str(",\"phases_p99_us\":");
    out.push_str(&fields_to_json(&phases_fields(&pb.p99_us)));
    out.push_str(",\"top\":[");
    for (i, t) in slowest(set, k).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Keys split around "phases_us" so the assembled record stays in
        // sorted key order like every other object in this export.
        let mut pre = fields! {
            "e2e_us" => t.e2e_us(),
            "hedged" => t.hedged,
            "id" => t.id,
            "outcome" => t.outcome.label(),
        };
        if let Some(b) = &t.batch {
            pre.push((
                "batch".into(),
                format!(
                    "r{}#{}[{}/{}]{}",
                    b.replica,
                    b.seq,
                    b.pos + 1,
                    b.size,
                    b.trigger.label()
                )
                .into(),
            ));
        }
        let mut post = fields! {
            "start_us" => t.start_us,
            "wasted_us" => t.wasted_us,
        };
        if let Outcome::Served { replica, via } = t.outcome {
            post.push(("replica".into(), replica.into()));
            post.push(("via".into(), via.label().into()));
        }
        let pre_json = fields_to_json(&pre);
        let post_json = fields_to_json(&post);
        out.push_str(&pre_json[..pre_json.len() - 1]);
        out.push_str(",\"phases_us\":");
        out.push_str(&fields_to_json(&phases_fields(&t.phases)));
        out.push(',');
        out.push_str(&post_json[1..]);
    }
    out.push_str("]}");
    out
}

/// Derives Chrome flow arrows from a trace stream: one `serve.route`
/// arrow per explicit dispatch edge to the admit it caused (router →
/// replica), and one `serve.hedge` arrow from the request's previous
/// lifecycle event to each hedge dispatch (origin branch → duplicate),
/// which is the cross-track link that makes hedge races legible in
/// Perfetto.
#[must_use]
pub fn flows(events: &[Event]) -> Vec<Flow> {
    struct Mark {
        idx: usize,
        ts: u64,
        track: u32,
        replica: u32,
    }
    let mut admits: std::collections::BTreeMap<u64, Vec<Mark>> = Default::default();
    let mut dispatches: std::collections::BTreeMap<u64, Vec<(Mark, DispatchKind)>> =
        Default::default();
    for (idx, event) in events.iter().enumerate() {
        let mark = |replica: u32| Mark {
            idx,
            ts: event.ts_micros,
            track: event.track,
            replica,
        };
        match ServeEvent::decode(event) {
            Some(ServeEvent::Dispatch {
                request,
                replica,
                kind,
                ..
            }) => dispatches
                .entry(request)
                .or_default()
                .push((mark(replica), kind)),
            Some(
                ServeEvent::Admit {
                    request, replica, ..
                }
                | ServeEvent::Downgrade {
                    request, replica, ..
                },
            ) => admits.entry(request).or_default().push(mark(replica)),
            _ => {}
        }
    }

    let mut out = Vec::new();
    let mut arrow = 0u64;
    let push_pair =
        |out: &mut Vec<Flow>, arrow: &mut u64, name: &str, a: (u64, u32), b: (u64, u32)| {
            *arrow += 1;
            out.push(Flow {
                id: *arrow,
                name: name.to_string(),
                ts_micros: a.0,
                track: a.1,
                phase: FlowPhase::Start,
            });
            out.push(Flow {
                id: *arrow,
                name: name.to_string(),
                ts_micros: b.0,
                track: b.1,
                phase: FlowPhase::Finish,
            });
        };
    for (id, ds) in &dispatches {
        let req_admits = admits.get(id);
        for (d, kind) in ds {
            // Route arrow: dispatch → the first admit it caused (same
            // replica, later in record order).
            if let Some(a) =
                req_admits.and_then(|v| v.iter().find(|a| a.replica == d.replica && a.idx > d.idx))
            {
                push_pair(
                    &mut out,
                    &mut arrow,
                    "serve.route",
                    (d.ts, d.track),
                    (a.ts, a.track),
                );
            }
            // Hedge arrow: the origin branch's latest prior admit → the
            // duplicate's dispatch.
            if *kind == DispatchKind::Hedge {
                if let Some(origin) =
                    req_admits.and_then(|v| v.iter().rev().find(|a| a.idx < d.idx))
                {
                    push_pair(
                        &mut out,
                        &mut arrow,
                        "serve.hedge",
                        (origin.ts, origin.track),
                        (d.ts, d.track),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{names, FlushTrigger};
    use dl_obs::{Recorder, TimelineRecorder};

    fn sample_set() -> TraceSet {
        let rec = TimelineRecorder::new();
        for id in 0u64..4 {
            rec.instant(
                0,
                names::ADMIT,
                fields! { "request" => id, "replica" => 0usize },
            );
        }
        rec.clock().advance(10e-6);
        let span = rec.span_start(0, names::BATCH_SPAN, fields! { "replica" => 0usize });
        for id in 0u64..4 {
            rec.typed_instant(
                0,
                &ServeEvent::BatchJoin {
                    request: id,
                    replica: 0,
                    seq: 0,
                    pos: id as u32,
                    size: 4,
                    trigger: FlushTrigger::Full,
                },
            );
        }
        rec.clock().advance(30e-6);
        rec.span_end(span, fields! { "replica" => 0usize });
        for id in 0u64..4 {
            rec.instant(
                0,
                names::COMPLETE,
                fields! { "request" => id, "replica" => 0usize, "latency_s" => 40e-6 },
            );
        }
        TraceSet::reconstruct(&rec.events())
    }

    #[test]
    fn breakdown_and_render_are_stable() {
        let set = sample_set();
        let pb = phase_breakdown(&set);
        assert_eq!(pb.count, 4);
        assert_eq!(pb.e2e_p50_us, 40);
        assert_eq!(pb.e2e_p99_us, 40);
        assert_eq!(pb.p99_us[Phase::Service as usize], 30);
        let reps = by_replica(&set);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].served, 4);
        let rendered = render_requests(&set, 2);
        assert_eq!(rendered, render_requests(&set, 2), "render must be stable");
        assert!(rendered.contains("4 served"));
        assert!(rendered.contains("service"));
        assert!(rendered.contains("#1 req 0"));
        let json = requests_json(&set, 2);
        assert_eq!(json, requests_json(&set, 2), "json must be byte-stable");
        assert!(json.starts_with("{\"by_replica\":["));
        assert!(json.contains("\"counts\":{\"lost\":0,\"served\":4,\"shed\":0,\"unavailable\":0}"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn tail_mean_focuses_on_the_slowest() {
        let set = sample_set();
        let (mean, n) = tail_mean_phase_us(&set, 0.25);
        assert_eq!(n, 1);
        let total: f64 = mean.iter().sum();
        assert!((total - 40.0).abs() < 1e-9);
    }

    #[test]
    fn flows_pair_dispatch_with_admit_and_hedge_with_origin() {
        let rec = TimelineRecorder::new();
        rec.instant(
            0,
            names::ADMIT,
            fields! { "request" => 7u64, "replica" => 0usize },
        );
        rec.clock().advance(5e-6);
        rec.typed_instant(
            4,
            &ServeEvent::Dispatch {
                request: 7,
                replica: 1,
                attempt: 1,
                kind: DispatchKind::Hedge,
            },
        );
        rec.instant(
            4,
            names::ADMIT,
            fields! { "request" => 7u64, "replica" => 1usize },
        );
        let arrows = flows(&rec.events());
        // One route arrow (hedge dispatch → its admit) and one hedge
        // arrow (origin admit → hedge dispatch): 2 arrows, 4 edges.
        assert_eq!(arrows.len(), 4);
        assert_eq!(arrows[0].name, "serve.route");
        assert_eq!(arrows[2].name, "serve.hedge");
        assert_eq!(arrows[2].track, 0);
        assert_eq!(arrows[3].track, 4);
        // Ids pair start/finish edges.
        assert_eq!(arrows[0].id, arrows[1].id);
        assert_eq!(arrows[2].id, arrows[3].id);
        assert_ne!(arrows[0].id, arrows[2].id);
    }
}
