//! The dynamic batching policy: max-batch / max-delay flush.
//!
//! Requests queue per variant; a queue flushes when it holds a full batch
//! or when its oldest request has waited `max_delay_s`, whichever comes
//! first. `no_batching()` (batch 1, zero delay) is the baseline every
//! speedup claim in E25 is measured against.

use dl_trace::FlushTrigger;

/// Flush policy for the per-variant queues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Largest batch one flush may form.
    pub max_batch: usize,
    /// Longest the oldest queued request may wait before a forced flush,
    /// in simulated seconds.
    pub max_delay_s: f64,
}

impl BatchPolicy {
    /// The serve-immediately baseline: every request is its own batch.
    #[must_use]
    pub fn no_batching() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_delay_s: 0.0,
        }
    }

    /// Dynamic batching with the given ceiling and delay bound.
    ///
    /// # Panics
    /// Panics when `max_batch` is zero or the delay is negative.
    #[must_use]
    pub fn dynamic(max_batch: usize, max_delay_s: f64) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(
            max_delay_s >= 0.0 && max_delay_s.is_finite(),
            "max_delay_s must be finite and non-negative"
        );
        BatchPolicy {
            max_batch,
            max_delay_s,
        }
    }

    /// When a queue of `len` requests whose head arrived at
    /// `head_arrival_s` flushes, and why, judged at `now_s`; `None` when
    /// the queue is empty. A full queue is due at its head arrival, a
    /// queue under `drain` (no further arrivals can top the batch up, so
    /// waiting is pointless) at `now_s`, and any other once its head has
    /// waited `max_delay_s`, in that precedence.
    ///
    /// A queue is due when this time is `<= now_s`. The aged time is the
    /// exact expression an event loop steps to, so stepping to it always
    /// finds the queue due (`now - head >= delay` can round the other way
    /// in f64).
    #[must_use]
    pub fn flush_at(
        &self,
        len: usize,
        head_arrival_s: f64,
        now_s: f64,
        drain: bool,
    ) -> Option<(f64, FlushTrigger)> {
        if len == 0 {
            None
        } else if len >= self.max_batch {
            Some((head_arrival_s, FlushTrigger::Full))
        } else if drain {
            Some((now_s, FlushTrigger::Drain))
        } else {
            Some((head_arrival_s + self.max_delay_s, FlushTrigger::Aged))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_batching_flushes_every_single_request() {
        let p = BatchPolicy::no_batching();
        assert_eq!(
            p.flush_at(1, 5.0, 5.0, false),
            Some((5.0, FlushTrigger::Full))
        );
        assert_eq!(
            p.flush_at(0, 0.0, 1.0, true),
            None,
            "empty: nothing to flush"
        );
    }

    #[test]
    fn dynamic_waits_until_full_or_aged() {
        let p = BatchPolicy::dynamic(4, 1e-3);
        let due = |len, head, now, drain| {
            p.flush_at(len, head, now, drain)
                .filter(|&(t, _)| t <= now)
                .map(|(_, trigger)| trigger)
        };
        assert_eq!(due(2, 0.0, 0.5e-3, false), None, "young and short: wait");
        assert_eq!(due(4, 0.0, 0.0, false), Some(FlushTrigger::Full));
        assert_eq!(due(1, 0.0, 1e-3, false), Some(FlushTrigger::Aged));
        assert_eq!(due(2, 0.0, 0.5e-3, true), Some(FlushTrigger::Drain));
        assert_eq!(p.flush_at(0, 0.0, 0.0, false), None);
        assert_eq!(p.flush_at(0, 3.0, 9.0, true), None);
    }

    #[test]
    fn full_beats_drain_beats_aged() {
        let p = BatchPolicy::dynamic(4, 1e-3);
        // A full queue is due at its head arrival, drain or not.
        assert_eq!(
            p.flush_at(4, 3.0, 7.0, true),
            Some((3.0, FlushTrigger::Full))
        );
        assert_eq!(
            p.flush_at(5, 3.0, 7.0, false),
            Some((3.0, FlushTrigger::Full))
        );
        // Short of full, drain flushes at once, even an aged head.
        assert_eq!(
            p.flush_at(3, 3.0, 7.0, true),
            Some((7.0, FlushTrigger::Drain))
        );
        assert_eq!(
            p.flush_at(3, 3.0, 7.0, false).map(|f| f.1),
            Some(FlushTrigger::Aged)
        );
    }

    #[test]
    fn aged_time_is_exactly_head_plus_delay() {
        // Values where `now - head >= delay` rounds the other way: the
        // deadline is the sum itself, so stepping to it finds it due.
        for (head, delay) in [(0.1, 0.2), (1e6 + 0.3, 5e-6), (3.0, 1e-3), (0.7, 0.0)] {
            let p = BatchPolicy::dynamic(8, delay);
            let (t, trigger) = p.flush_at(1, head, 0.0, false).expect("non-empty");
            assert_eq!(trigger, FlushTrigger::Aged);
            assert_eq!(t.to_bits(), (head + delay).to_bits());
            assert!(p.flush_at(1, head, t, false).is_some_and(|(d, _)| d <= t));
        }
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        let _ = BatchPolicy::dynamic(0, 0.0);
    }
}
