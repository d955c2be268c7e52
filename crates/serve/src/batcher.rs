//! The dynamic batching policy: max-batch / max-delay flush.
//!
//! Requests queue per variant; a queue flushes when it holds a full batch
//! or when its oldest request has waited `max_delay_s`, whichever comes
//! first. `no_batching()` (batch 1, zero delay) is the baseline every
//! speedup claim in E25 is measured against.

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

    /// Is a queue of `len` requests whose head arrived at `head_arrival_s`
    /// ready to flush at time `now_s`? (`drain` marks that no further
    /// arrivals can ever top the batch up, so waiting is pointless.)
    ///
    /// The age test compares against `head_arrival_s + max_delay_s` — the
    /// exact expression [`Self::next_deadline`] returns — so an event loop
    /// stepping to that deadline always observes the queue as ready
    /// (`now - head >= delay` can round the other way in f64).
    #[must_use]
    pub fn ready(&self, len: usize, head_arrival_s: f64, now_s: f64, drain: bool) -> bool {
        len > 0 && (len >= self.max_batch || drain || now_s >= head_arrival_s + self.max_delay_s)
    }

    /// The earliest future time a queue of `len` requests with the given
    /// head arrival could trigger a flush on its own (`None` when empty).
    #[must_use]
    pub fn next_deadline(&self, len: usize, head_arrival_s: f64) -> Option<f64> {
        if len == 0 {
            None
        } else if len >= self.max_batch {
            Some(head_arrival_s) // already ready; flush as soon as possible
        } else {
            Some(head_arrival_s + self.max_delay_s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_batching_flushes_every_single_request() {
        let p = BatchPolicy::no_batching();
        assert!(p.ready(1, 5.0, 5.0, false));
        assert!(!p.ready(0, 0.0, 1.0, true));
    }

    #[test]
    fn dynamic_waits_until_full_or_aged() {
        let p = BatchPolicy::dynamic(4, 1e-3);
        assert!(!p.ready(2, 0.0, 0.5e-3, false), "young and short: wait");
        assert!(p.ready(4, 0.0, 0.0, false), "full batch: go");
        assert!(p.ready(1, 0.0, 1e-3, false), "aged out: go");
        assert!(p.ready(2, 0.0, 0.5e-3, true), "drain: no arrivals left");
        assert_eq!(p.next_deadline(0, 0.0), None);
        assert_eq!(p.next_deadline(2, 3.0), Some(3.0 + 1e-3));
        assert_eq!(p.next_deadline(4, 3.0), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        let _ = BatchPolicy::dynamic(0, 0.0);
    }
}
