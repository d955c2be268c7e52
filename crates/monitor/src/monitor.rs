//! The online monitor pipeline: a [`Recorder`] tap over the serving
//! event stream.
//!
//! [`Monitor`] wraps any inner recorder and forwards **every** call
//! unchanged while folding the structured serving samples into live
//! series. Because it only reads the stream, attaching it cannot change
//! the simulation: the engine's state never depends on its recorder, and
//! a run monitored through a `TimelineRecorder` produces the identical
//! timeline/histograms as the unmonitored recorder *unless an alert
//! actually fires* (alerts are `monitor.alert` instants — new
//! information, emitted only on a rising edge).
//!
//! Input: the engine emits its per-request samples as typed
//! `dl_trace::ServeEvent`s through [`Recorder::typed_instant`]; the
//! monitor takes each by downcast ([`ServeEvent::from_typed`]), with no
//! field list and no decode, and forwards the same reference inward.
//! Events in field form (`serve.downgrade`, whose variant names are
//! run-time strings, and replays of a recorded timeline) go through
//! [`Recorder::record`] and [`ServeEvent::decode`]. Both routes fold the
//! same values, and an alert an event fires reaches the inner recorder
//! before that event.
//!
//! Time discipline: the monitor rolls its windows lazily from the
//! virtual clock at event-ingest time. Windows live on a fixed grid
//! (`[k*window_s, (k+1)*window_s)`), closed when the first event at or
//! past the boundary arrives; long idle gaps fast-forward the grid after
//! flushing `history` empty windows (ring depths are bounded, so closing
//! more than `history` empty windows is a no-op).

use std::collections::BTreeSet;
use std::sync::Mutex;

use dl_obs::{fields, Event, Fields, Recorder, ToFields, TypedEvent, VirtualClock};
use dl_trace::ServeEvent;

use crate::drift::{DriftConfig, DriftDetector};
use crate::sketch::WindowedSketch;
use crate::slo::{burn_rate, Alert, AlertKind, SloRule};
use crate::window::{Ewma, WindowCounter};

/// Monitor knobs. `window_s` is the roll grid every windowed series and
/// rule shares; `history` bounds the per-series ring (every rule's
/// trailing window must fit inside it).
#[derive(Debug, Clone)]
#[must_use]
pub struct MonitorConfig {
    /// Roll-window length in simulated seconds.
    pub window_s: f64,
    /// Closed windows retained per series (ring depth).
    pub history: usize,
    /// Latency objective used for the *health score* (a completion
    /// within it scores 1, over it 0). `INFINITY` scores every
    /// completion healthy.
    pub latency_slo_s: f64,
    /// Smoothing factor for the health and queue-depth gauges.
    pub ewma_alpha: f64,
    /// Declarative SLO rules, evaluated fleet-wide (health rules
    /// per-replica) on every window roll.
    pub rules: Vec<SloRule>,
    /// Input/prediction drift detection; `None` disables it.
    pub drift: Option<DriftConfig>,
    /// Scalar input-feature projection per dataset row (indexed by the
    /// request's `sample` field) for input-drift tracking. Empty
    /// disables input-feature lookup.
    pub feature_of_sample: Vec<f64>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_s: 1e-4,
            history: 64,
            latency_slo_s: f64::INFINITY,
            ewma_alpha: 0.2,
            rules: Vec::new(),
            drift: None,
            feature_of_sample: Vec::new(),
        }
    }
}

/// Live series for one scope (a replica, or the whole fleet).
#[derive(Debug)]
struct Series {
    latency: WindowedSketch,
    admits: WindowCounter,
    completions: WindowCounter,
    sheds: WindowCounter,
    downgrades: WindowCounter,
    queue: Ewma,
    health: Ewma,
    crashes: u64,
    rejoins: u64,
}

impl Series {
    fn new(cfg: &MonitorConfig) -> Self {
        Series {
            latency: WindowedSketch::new(cfg.history),
            admits: WindowCounter::new(cfg.history),
            completions: WindowCounter::new(cfg.history),
            sheds: WindowCounter::new(cfg.history),
            downgrades: WindowCounter::new(cfg.history),
            queue: Ewma::new(cfg.ewma_alpha),
            health: Ewma::new(cfg.ewma_alpha),
            crashes: 0,
            rejoins: 0,
        }
    }

    fn roll(&mut self) {
        self.latency.roll();
        self.admits.roll();
        self.completions.roll();
        self.sheds.roll();
        self.downgrades.roll();
    }
}

struct State {
    /// Index of the open window on the fixed grid.
    next_window: u64,
    fleet: Series,
    replicas: Vec<Series>,
    lost: WindowCounter,
    /// Per-`BurnRate`-rule violation counters (parallel to the burn
    /// rules' positions in `cfg.rules`).
    burn_violations: Vec<WindowCounter>,
    drift: Option<DriftDetector>,
    alerts: Vec<Alert>,
    /// Rising-edge state: `rule|scope` keys currently firing.
    active: BTreeSet<String>,
    /// Latest drift verdicts (for the report).
    last_input_psi: Option<f64>,
    max_input_psi: f64,
    last_pred_kl: Option<f64>,
    max_pred_kl: f64,
    /// Latest event time seen (denominator for lifetime rates).
    last_event_s: f64,
}

/// The monitor: wrap an inner recorder, run the workload, then read
/// [`Monitor::report`].
pub struct Monitor<'a> {
    inner: &'a dyn Recorder,
    cfg: MonitorConfig,
    state: Mutex<State>,
}

impl<'a> Monitor<'a> {
    /// Attaches a monitor in front of `inner`.
    ///
    /// # Panics
    /// Panics on a non-positive window, a rule whose trailing window
    /// exceeds `history`, or an invalid rule/drift configuration.
    pub fn new(inner: &'a dyn Recorder, cfg: MonitorConfig) -> Self {
        assert!(
            cfg.window_s.is_finite() && cfg.window_s > 0.0,
            "monitor window must be positive, got {}",
            cfg.window_s
        );
        assert!(cfg.history > 0, "need at least one window of history");
        for rule in &cfg.rules {
            rule.validate();
            assert!(
                rule.windows_needed() <= cfg.history,
                "rule {:?} needs {} windows but history retains {}",
                rule.name(),
                rule.windows_needed(),
                cfg.history
            );
        }
        if let Some(d) = &cfg.drift {
            d.validate();
            assert!(
                d.windows <= cfg.history,
                "drift window {} exceeds history {}",
                d.windows,
                cfg.history
            );
        }
        let n_burn = cfg
            .rules
            .iter()
            .filter(|r| matches!(r, SloRule::BurnRate { .. }))
            .count();
        let state = State {
            next_window: 0,
            fleet: Series::new(&cfg),
            replicas: Vec::new(),
            lost: WindowCounter::new(cfg.history),
            burn_violations: (0..n_burn)
                .map(|_| WindowCounter::new(cfg.history))
                .collect(),
            drift: cfg.drift.clone().map(DriftDetector::new),
            alerts: Vec::new(),
            active: BTreeSet::new(),
            last_input_psi: None,
            max_input_psi: 0.0,
            last_pred_kl: None,
            max_pred_kl: 0.0,
            last_event_s: 0.0,
        };
        Monitor {
            inner,
            cfg,
            state: Mutex::new(state),
        }
    }

    /// The configuration this monitor runs.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Closes every window due strictly before `now_s`, evaluating the
    /// rules at each boundary. Returns freshly fired alerts for the
    /// caller to emit *after* releasing the state lock is unnecessary —
    /// the inner recorder is a distinct object — but returning keeps the
    /// borrow simple.
    fn roll_to(&self, state: &mut State, now_s: f64) -> Vec<Alert> {
        let w = self.cfg.window_s;
        let target = (now_s / w) as u64; // window index containing now
        if target <= state.next_window {
            return Vec::new();
        }
        let mut pending = target - state.next_window;
        // Idle-gap fast-forward: every ring is `history` deep, so
        // closing more than that many empty windows changes nothing.
        let cap = self.cfg.history as u64 + 1;
        if pending > cap {
            state.next_window = target - cap;
            pending = cap;
        }
        let mut fired = Vec::new();
        for _ in 0..pending {
            let at_s = (state.next_window + 1) as f64 * w;
            self.close_window(state, at_s, &mut fired);
            state.next_window += 1;
        }
        fired
    }

    /// Closes one window ending at `at_s`: rolls every series, then
    /// evaluates rules and drift on the freshly closed rings.
    fn close_window(&self, state: &mut State, at_s: f64, fired: &mut Vec<Alert>) {
        state.fleet.roll();
        for r in &mut state.replicas {
            r.roll();
        }
        state.lost.roll();
        for v in &mut state.burn_violations {
            v.roll();
        }

        // --- SLO rules ---------------------------------------------------
        let mut burn_idx = 0usize;
        for rule in &self.cfg.rules {
            match rule {
                SloRule::LatencyQuantile {
                    name,
                    q,
                    target_s,
                    windows,
                } => {
                    let sketch = state.fleet.latency.over_last(*windows);
                    let value = sketch.quantile(*q);
                    let firing = sketch.count > 0 && value > *target_s;
                    Self::edge(
                        &mut state.active,
                        &mut state.alerts,
                        fired,
                        firing,
                        Alert {
                            at_s,
                            rule: name.clone(),
                            kind: AlertKind::Latency,
                            scope: "fleet".into(),
                            value,
                            threshold: *target_s,
                        },
                    );
                }
                SloRule::BurnRate {
                    name,
                    budget,
                    fast_windows,
                    slow_windows,
                    threshold,
                    ..
                } => {
                    let viol = &state.burn_violations[burn_idx];
                    burn_idx += 1;
                    let fast = burn_rate(
                        viol.over_last(*fast_windows),
                        state.fleet.completions.over_last(*fast_windows),
                        *budget,
                    );
                    let slow = burn_rate(
                        viol.over_last(*slow_windows),
                        state.fleet.completions.over_last(*slow_windows),
                        *budget,
                    );
                    let firing = fast > *threshold && slow > *threshold;
                    Self::edge(
                        &mut state.active,
                        &mut state.alerts,
                        fired,
                        firing,
                        Alert {
                            at_s,
                            rule: name.clone(),
                            kind: AlertKind::BurnRate,
                            scope: "fleet".into(),
                            value: fast.min(slow),
                            threshold: *threshold,
                        },
                    );
                }
                SloRule::HealthBelow { name, threshold } => {
                    for (i, r) in state.replicas.iter().enumerate() {
                        let firing = r.health.is_primed() && r.health.value() < *threshold;
                        let value = r.health.value();
                        Self::edge(
                            &mut state.active,
                            &mut state.alerts,
                            fired,
                            firing,
                            Alert {
                                at_s,
                                rule: name.clone(),
                                kind: AlertKind::Health,
                                scope: format!("replica-{i}"),
                                value,
                                threshold: *threshold,
                            },
                        );
                    }
                }
            }
        }

        // --- drift -------------------------------------------------------
        if let Some(d) = &mut state.drift {
            let status = d.roll();
            let psi_thr = d.config().psi_threshold;
            let kl_thr = d.config().kl_threshold;
            if let Some(p) = status.input_psi {
                state.last_input_psi = Some(p);
                state.max_input_psi = state.max_input_psi.max(p);
            }
            if let Some(k) = status.pred_kl {
                state.last_pred_kl = Some(k);
                state.max_pred_kl = state.max_pred_kl.max(k);
            }
            let input_firing = status.input_psi.is_some_and(|p| p > psi_thr);
            Self::edge(
                &mut state.active,
                &mut state.alerts,
                fired,
                input_firing,
                Alert {
                    at_s,
                    rule: "input-drift".into(),
                    kind: AlertKind::InputDrift,
                    scope: "fleet".into(),
                    value: status.input_psi.unwrap_or(0.0),
                    threshold: psi_thr,
                },
            );
            let pred_firing = status.pred_kl.is_some_and(|k| k > kl_thr);
            Self::edge(
                &mut state.active,
                &mut state.alerts,
                fired,
                pred_firing,
                Alert {
                    at_s,
                    rule: "prediction-drift".into(),
                    kind: AlertKind::PredictionDrift,
                    scope: "fleet".into(),
                    value: status.pred_kl.unwrap_or(0.0),
                    threshold: kl_thr,
                },
            );
        }
    }

    /// Rising-edge alert bookkeeping: record and emit only on the
    /// false-to-true transition, re-arm on the true-to-false one.
    fn edge(
        active: &mut BTreeSet<String>,
        alerts: &mut Vec<Alert>,
        fired: &mut Vec<Alert>,
        firing: bool,
        alert: Alert,
    ) {
        let key = format!("{}|{}", alert.rule, alert.scope);
        if firing {
            if active.insert(key) {
                alerts.push(alert.clone());
                fired.push(alert);
            }
        } else {
            active.remove(&key);
        }
    }

    fn replica_series<'s>(state: &'s mut State, cfg: &MonitorConfig, id: usize) -> &'s mut Series {
        while state.replicas.len() <= id {
            state.replicas.push(Series::new(cfg));
        }
        &mut state.replicas[id]
    }

    /// Ingests one forwarded serve event into the live series.
    fn ingest(&self, ev: ServeEvent) {
        // Only these events roll the windows; the tracing-layer edges
        // (dispatch, batch membership, hedge losers, unavailable
        // arrivals) pass through untouched.
        if !matches!(
            ev,
            ServeEvent::Admit { .. }
                | ServeEvent::Complete { .. }
                | ServeEvent::Shed { .. }
                | ServeEvent::Downgrade { .. }
                | ServeEvent::Crash { .. }
                | ServeEvent::Rejoin { .. }
                | ServeEvent::Lost { .. }
        ) {
            return;
        }
        let now_s = self.inner.clock().now();
        let mut state = self.state.lock().expect("monitor state lock");
        let fired = self.roll_to(&mut state, now_s);
        state.last_event_s = state.last_event_s.max(now_s);
        match ev {
            ServeEvent::Admit { replica, queue, .. } => {
                state.fleet.admits.add(1);
                if let Some(q) = queue {
                    state.fleet.queue.observe(q as f64);
                }
                let r = Self::replica_series(&mut state, &self.cfg, replica as usize);
                r.admits.add(1);
                if let Some(q) = queue {
                    r.queue.observe(q as f64);
                }
            }
            ServeEvent::Complete {
                replica,
                latency_s: latency,
                sample,
                pred,
                ..
            } => {
                let healthy = if latency <= self.cfg.latency_slo_s {
                    1.0
                } else {
                    0.0
                };
                state.fleet.completions.add(1);
                state.fleet.latency.observe(latency);
                state.fleet.health.observe(healthy);
                let r = Self::replica_series(&mut state, &self.cfg, replica as usize);
                r.completions.add(1);
                r.latency.observe(latency);
                r.health.observe(healthy);
                for (i, rule) in self
                    .cfg
                    .rules
                    .iter()
                    .filter_map(|r| match r {
                        SloRule::BurnRate { latency_slo_s, .. } => Some(*latency_slo_s),
                        _ => None,
                    })
                    .enumerate()
                {
                    if latency > rule {
                        state.burn_violations[i].add(1);
                    }
                }
                if let Some(d) = &mut state.drift {
                    if let Some(s) = sample {
                        if let Some(&f) = self.cfg.feature_of_sample.get(s as usize) {
                            d.observe_input(f);
                        }
                    }
                    if let Some(p) = pred {
                        d.observe_pred(p as usize);
                    }
                }
            }
            ServeEvent::Shed { replica, .. } => {
                state.fleet.sheds.add(1);
                state.fleet.health.observe(0.0);
                let r = Self::replica_series(&mut state, &self.cfg, replica as usize);
                r.sheds.add(1);
                r.health.observe(0.0);
            }
            ServeEvent::Downgrade { replica, queue, .. } => {
                state.fleet.downgrades.add(1);
                if let Some(q) = queue {
                    state.fleet.queue.observe(q as f64);
                }
                let r = Self::replica_series(&mut state, &self.cfg, replica as usize);
                r.downgrades.add(1);
                if let Some(q) = queue {
                    r.queue.observe(q as f64);
                }
            }
            ServeEvent::Crash { replica } => {
                state.fleet.crashes += 1;
                state.fleet.health.observe(0.0);
                let r = Self::replica_series(&mut state, &self.cfg, replica as usize);
                r.crashes += 1;
                r.health.set(0.0);
            }
            ServeEvent::Rejoin { replica } => {
                state.fleet.rejoins += 1;
                let r = Self::replica_series(&mut state, &self.cfg, replica as usize);
                r.rejoins += 1;
            }
            ServeEvent::Lost { .. } => {
                state.lost.add(1);
                state.fleet.health.observe(0.0);
            }
            _ => unreachable!("filtered above"),
        }
        drop(state);
        self.emit(fired);
    }

    /// Emits freshly fired alerts as `monitor.alert` instants on track 0
    /// of the inner recorder.
    fn emit(&self, fired: Vec<Alert>) {
        for a in fired {
            self.inner.instant(0, "monitor.alert", a.to_fields());
        }
    }

    /// Snapshot of everything the monitor has aggregated. Also closes
    /// any windows due at the current virtual time, so rule state is
    /// current as of the call.
    pub fn report(&self) -> MonitorReport {
        let now_s = self.inner.clock().now();
        let mut state = self.state.lock().expect("monitor state lock");
        let fired = self.roll_to(&mut state, now_s);
        let elapsed = state.last_event_s;
        let summary = |scope: String, s: &Series| SeriesSummary {
            scope,
            admits: s.admits.total(),
            completions: s.completions.total(),
            sheds: s.sheds.total(),
            downgrades: s.downgrades.total(),
            crashes: s.crashes,
            rejoins: s.rejoins,
            p50_s: s.latency.lifetime().p50(),
            p99_s: s.latency.lifetime().p99(),
            p999_s: s.latency.lifetime().p999(),
            mean_latency_s: s.latency.lifetime().mean(),
            completion_rate_rps: if elapsed > 0.0 {
                s.completions.total() as f64 / elapsed
            } else {
                0.0
            },
            shed_rate_rps: if elapsed > 0.0 {
                s.sheds.total() as f64 / elapsed
            } else {
                0.0
            },
            queue_depth: s.queue.value(),
            health: s.health.value(),
        };
        let report = MonitorReport {
            window_s: self.cfg.window_s,
            windows_closed: state.next_window,
            fleet: summary("fleet".into(), &state.fleet),
            replicas: state
                .replicas
                .iter()
                .enumerate()
                .map(|(i, s)| summary(format!("replica-{i}"), s))
                .collect(),
            lost: state.lost.total(),
            alerts: state.alerts.clone(),
            input_psi: state.last_input_psi,
            max_input_psi: state.max_input_psi,
            pred_kl: state.last_pred_kl,
            max_pred_kl: state.max_pred_kl,
        };
        drop(state);
        self.emit(fired);
        report
    }
}

impl Recorder for Monitor<'_> {
    fn clock(&self) -> &VirtualClock {
        self.inner.clock()
    }

    fn enabled(&self) -> bool {
        // The monitor consumes structured samples, so instrumented
        // drivers must emit them even over a NullRecorder inner.
        true
    }

    fn record(&self, event: Event) {
        if let Some(ev) = ServeEvent::decode(&event) {
            self.ingest(ev);
        }
        self.inner.record(event);
    }

    // A serve event is read as it is, with no field list and no decode;
    // the alerts it fires still reach the inner recorder before it.
    fn typed_instant(&self, track: u32, ev: &dyn TypedEvent) {
        match ServeEvent::from_typed(ev) {
            Some(&serve) => {
                self.ingest(serve);
                self.inner.typed_instant(track, ev);
            }
            None => self.instant(track, ev.name(), ev.fields()),
        }
    }

    fn add_counter(&self, name: &str, delta: u64) -> u64 {
        self.inner.add_counter(name, delta)
    }

    fn observe(&self, name: &str, value: f64) {
        self.inner.observe(name, value);
    }

    fn observe_exemplar(&self, name: &str, value: f64, exemplar: u64) {
        // Forward verbatim so exemplar slots in the inner recorder's
        // histograms match an unmonitored run bit-for-bit.
        self.inner.observe_exemplar(name, value, exemplar);
    }
}

/// Aggregated live-series snapshot for one scope.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct SeriesSummary {
    /// `"fleet"` or `"replica-N"`.
    pub scope: String,
    /// Requests admitted (accepted arrivals).
    pub admits: u64,
    /// Requests completed.
    pub completions: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Requests answered by a downgraded variant.
    pub downgrades: u64,
    /// Crash events.
    pub crashes: u64,
    /// Rejoin events.
    pub rejoins: u64,
    /// Lifetime median latency (sketch upper-edge estimate).
    pub p50_s: f64,
    /// Lifetime p99 latency.
    pub p99_s: f64,
    /// Lifetime p999 latency.
    pub p999_s: f64,
    /// Lifetime mean latency.
    pub mean_latency_s: f64,
    /// Completions per second over the observed span.
    pub completion_rate_rps: f64,
    /// Sheds per second over the observed span.
    pub shed_rate_rps: f64,
    /// EWMA queue depth at last observation.
    pub queue_depth: f64,
    /// EWMA health score (1 healthy .. 0 shedding/crashed).
    pub health: f64,
}

impl ToFields for SeriesSummary {
    fn to_fields(&self) -> Fields {
        fields! {
            "scope" => self.scope.clone(),
            "admits" => self.admits,
            "completions" => self.completions,
            "sheds" => self.sheds,
            "downgrades" => self.downgrades,
            "crashes" => self.crashes,
            "rejoins" => self.rejoins,
            "p50_s" => self.p50_s,
            "p99_s" => self.p99_s,
            "p999_s" => self.p999_s,
            "mean_latency_s" => self.mean_latency_s,
            "completion_rate_rps" => self.completion_rate_rps,
            "shed_rate_rps" => self.shed_rate_rps,
            "queue_depth" => self.queue_depth,
            "health" => self.health,
        }
    }
}

/// Everything the monitor aggregated over one run.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct MonitorReport {
    /// Roll-window length.
    pub window_s: f64,
    /// Windows closed over the run.
    pub windows_closed: u64,
    /// Fleet-level series.
    pub fleet: SeriesSummary,
    /// Per-replica series, indexed by replica id.
    pub replicas: Vec<SeriesSummary>,
    /// Requests lost to crashes, counted from `serve.lost` events
    /// (fleet-level; a loss has no replica attribution).
    pub lost: u64,
    /// Every alert fired, in firing order.
    pub alerts: Vec<Alert>,
    /// Last input-window PSI (`None`: drift off or always abstained).
    pub input_psi: Option<f64>,
    /// Largest input PSI seen on any roll.
    pub max_input_psi: f64,
    /// Last predicted-class KL.
    pub pred_kl: Option<f64>,
    /// Largest predicted-class KL seen on any roll.
    pub max_pred_kl: f64,
}

impl MonitorReport {
    /// Time of the first alert of `kind`, if any fired.
    #[must_use]
    pub fn first_alert_s(&self, kind: AlertKind) -> Option<f64> {
        self.alerts.iter().find(|a| a.kind == kind).map(|a| a.at_s)
    }

    /// Number of alerts of `kind`.
    #[must_use]
    pub fn alert_count(&self, kind: AlertKind) -> usize {
        self.alerts.iter().filter(|a| a.kind == kind).count()
    }
}

impl ToFields for MonitorReport {
    fn to_fields(&self) -> Fields {
        fields! {
            "window_s" => self.window_s,
            "windows_closed" => self.windows_closed,
            "replicas" => self.replicas.len(),
            "alerts" => self.alerts.len(),
            "lost" => self.lost,
            "admits" => self.fleet.admits,
            "completions" => self.fleet.completions,
            "sheds" => self.fleet.sheds,
            "downgrades" => self.fleet.downgrades,
            "p50_s" => self.fleet.p50_s,
            "p99_s" => self.fleet.p99_s,
            "p999_s" => self.fleet.p999_s,
            "health" => self.fleet.health,
            "max_input_psi" => self.max_input_psi,
            "max_pred_kl" => self.max_pred_kl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_obs::{NullRecorder, TimelineRecorder};

    fn complete(rec: &dyn Recorder, replica: u64, latency_s: f64, sample: u64, pred: u64) {
        rec.instant(
            0,
            "serve.complete",
            fields! {
                "request" => 0u64,
                "replica" => replica,
                "latency_s" => latency_s,
                "sample" => sample,
                "pred" => pred,
                "downgraded" => false,
            },
        );
    }

    #[test]
    fn monitor_is_a_pure_tap_forwarding_everything() {
        let plain = TimelineRecorder::new();
        let tapped_inner = TimelineRecorder::new();
        let monitor = Monitor::new(&tapped_inner, MonitorConfig::default());
        for rec in [&plain as &dyn Recorder, &monitor as &dyn Recorder] {
            let span = rec.span_start(1, "serve.batch", fields! { "batch" => 4usize });
            rec.clock().advance(2e-4);
            complete(rec, 0, 1e-4, 3, 1);
            rec.typed_instant(
                0,
                &ServeEvent::Complete {
                    request: 1,
                    replica: 0,
                    latency_s: 1e-4,
                    sample: Some(3),
                    pred: Some(1),
                    downgraded: false,
                },
            );
            rec.counter(0, "serve.served", 4);
            rec.observe("serve.latency_s", 1e-4);
            rec.span_end(span, fields! { "batch" => 4usize });
        }
        assert_eq!(plain.events(), tapped_inner.events(), "timelines identical");
        assert_eq!(plain.counters(), tapped_inner.counters());
        assert_eq!(
            plain.histogram("serve.latency_s"),
            tapped_inner.histogram("serve.latency_s")
        );
        let report = monitor.report();
        assert_eq!(
            report.fleet.completions, 2,
            "and the monitor still saw both"
        );
        assert!(report.alerts.is_empty(), "no rules, no alerts");
    }

    #[test]
    fn burn_rate_alert_fires_on_rising_edge_only() {
        let inner = TimelineRecorder::new();
        let cfg = MonitorConfig {
            window_s: 1e-3,
            history: 16,
            rules: vec![SloRule::BurnRate {
                name: "p99-burn".into(),
                latency_slo_s: 1e-4,
                budget: 0.1,
                fast_windows: 1,
                slow_windows: 4,
                threshold: 2.0,
            }],
            ..MonitorConfig::default()
        };
        let m = Monitor::new(&inner, cfg);
        // 4 windows of healthy traffic, then sustained violation.
        for win in 0..12u64 {
            for i in 0..10u64 {
                let latency = if win >= 4 { 5e-4 } else { 5e-5 };
                complete(&m, 0, latency, i, 0);
            }
            m.clock().advance(1e-3);
        }
        let report = m.report();
        assert_eq!(
            report.alert_count(AlertKind::BurnRate),
            1,
            "sustained violation fires exactly once (edge-triggered): {:?}",
            report.alerts
        );
        let first = report.first_alert_s(AlertKind::BurnRate).expect("fired");
        // Violations start in window 4; the slow window (4 windows)
        // crosses a 2x burn once half its completions violate.
        assert!((5e-3..=8e-3).contains(&first), "fired at {first}");
        // The alert instant landed in the inner timeline.
        let alerts: Vec<_> = inner
            .events()
            .iter()
            .filter(|e| e.name == "monitor.alert")
            .cloned()
            .collect();
        assert_eq!(alerts.len(), 1);
        assert!(
            dl_obs::export::fields_to_json(&alerts[0].fields).contains("burn_rate"),
            "typed alert"
        );
    }

    #[test]
    fn health_rule_watches_each_replica_and_crash_resets() {
        let inner = NullRecorder::new();
        let cfg = MonitorConfig {
            window_s: 1e-3,
            history: 8,
            latency_slo_s: 1e-4,
            rules: vec![SloRule::HealthBelow {
                name: "replica-health".into(),
                threshold: 0.5,
            }],
            ..MonitorConfig::default()
        };
        let m = Monitor::new(&inner, cfg);
        // Replica 0 healthy, replica 1 crashes.
        for i in 0..20u64 {
            complete(&m, 0, 5e-5, i, 0);
            complete(&m, 1, 5e-5, i, 0);
        }
        m.instant(0, "cluster.crash", fields! { "replica" => 1u64 });
        m.clock().advance(2e-3);
        complete(&m, 0, 5e-5, 0, 0); // trigger a roll past the crash
        let report = m.report();
        let health_alerts: Vec<_> = report
            .alerts
            .iter()
            .filter(|a| a.kind == AlertKind::Health)
            .collect();
        assert_eq!(health_alerts.len(), 1, "only the crashed replica pages");
        assert_eq!(health_alerts[0].scope, "replica-1");
        assert!(report.replicas[0].health > 0.9);
        assert!(report.replicas[1].health < 0.5);
        assert_eq!(report.replicas[1].crashes, 1);
    }

    #[test]
    fn idle_gap_fast_forward_keeps_rules_current() {
        let inner = NullRecorder::new();
        let cfg = MonitorConfig {
            window_s: 1e-6,
            history: 4,
            rules: vec![SloRule::LatencyQuantile {
                name: "p99".into(),
                q: 0.99,
                target_s: 1e-4,
                windows: 4,
            }],
            ..MonitorConfig::default()
        };
        let m = Monitor::new(&inner, cfg);
        for i in 0..50u64 {
            complete(&m, 0, 1.0, i, 0); // grossly violating
        }
        m.clock().advance(1e-6 * 3.0);
        complete(&m, 0, 1.0, 0, 0);
        let report_mid = m.report();
        assert!(
            report_mid.alert_count(AlertKind::Latency) >= 1,
            "violation detected"
        );
        // A huge idle gap (millions of windows) must stay O(history).
        m.clock().advance(10.0);
        complete(&m, 0, 1e-6, 0, 0);
        let report = m.report();
        assert!(report.windows_closed > 1_000_000, "grid advanced");
        assert_eq!(
            report.alert_count(AlertKind::Latency),
            report_mid.alert_count(AlertKind::Latency),
            "no phantom alerts from the gap"
        );
    }
}
