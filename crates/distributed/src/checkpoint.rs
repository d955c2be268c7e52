//! Checkpoint/restore for distributed training, with a simulated-time
//! cost model.
//!
//! A [`Checkpoint`] captures everything needed to resume elastic Local
//! SGD after a crash: the (synchronized) model parameters, the optimizer,
//! and each worker's data-shard cursor (how many samples it has drawn, so
//! the sampling RNG can be replayed to the exact same state). The
//! [`CheckpointStore`] charges simulated seconds for every write and
//! restore via a [`StorageProfile`], which is what turns the checkpoint
//! interval into a measurable knob: frequent checkpoints cost write time,
//! rare checkpoints cost replayed work after a failure (experiment E22).

use dl_nn::{Network, Optimizer};

/// Simulated storage target for checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageProfile {
    /// Sustained write bandwidth in bytes/second.
    pub write_bandwidth: f64,
    /// Sustained read bandwidth in bytes/second.
    pub read_bandwidth: f64,
    /// Fixed per-operation latency in seconds (metadata, fsync, RPC).
    pub latency: f64,
}

impl StorageProfile {
    /// A node-local NVMe SSD: fast, low latency.
    pub fn local_ssd() -> Self {
        StorageProfile {
            write_bandwidth: 2.0e9,
            read_bandwidth: 3.0e9,
            latency: 1.0e-4,
        }
    }

    /// A remote blob store: durable but slow and latency-heavy — the
    /// setting where the checkpoint-interval tradeoff bites.
    pub fn blob_store() -> Self {
        StorageProfile {
            write_bandwidth: 1.0e8,
            read_bandwidth: 2.0e8,
            latency: 2.0e-3,
        }
    }

    /// Simulated seconds to persist `bytes`.
    fn write_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.write_bandwidth
    }

    /// Simulated seconds to load `bytes`.
    fn read_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.read_bandwidth
    }
}

/// A resumable snapshot of an elastic Local SGD run.
///
/// Parameters are stored once (checkpoints are only taken at sync
/// boundaries, where all live workers agree), so the footprint is one
/// model regardless of cluster size.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Number of completed steps at capture time.
    pub step: usize,
    /// Flattened model parameters (identical across live workers).
    pub params: Vec<f32>,
    /// Optimizer at capture time (plain SGD is stateless; momentum/Adam
    /// accumulators are not persisted and are rebuilt on resume).
    pub optimizer: Optimizer,
    /// Per-worker data-shard cursors: samples drawn so far, used to
    /// fast-forward each worker's sampling RNG on restore.
    pub cursors: Vec<u64>,
}

impl Checkpoint {
    /// Serialized footprint in bytes (params dominate; metadata is
    /// approximated as one cursor-width word per worker plus a header).
    pub fn size_bytes(&self) -> u64 {
        (self.params.len() * 4 + self.cursors.len() * 8 + 64) as u64
    }

    /// Writes the snapshot into `net`, replacing its parameters.
    ///
    /// # Panics
    /// Panics if `net` has a different parameter count.
    pub fn restore_into(&self, net: &mut Network) {
        net.set_flat_params(&self.params);
    }
}

/// Holds the latest checkpoint and meters the simulated cost of every
/// storage operation.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    storage: StorageProfile,
    latest: Option<Checkpoint>,
    /// Checkpoints written (the free initial seed is not counted).
    pub writes: usize,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Simulated seconds spent writing.
    pub write_seconds: f64,
    /// Restores served.
    pub reads: usize,
    /// Simulated seconds spent restoring.
    pub read_seconds: f64,
}

impl CheckpointStore {
    /// An empty store over the given storage target.
    pub fn new(storage: StorageProfile) -> Self {
        CheckpointStore {
            storage,
            latest: None,
            writes: 0,
            bytes_written: 0,
            write_seconds: 0.0,
            reads: 0,
            read_seconds: 0.0,
        }
    }

    /// Installs the step-0 checkpoint without charging simulated time:
    /// the initial model exists before the clock starts.
    pub fn seed_initial(&mut self, ckpt: Checkpoint) {
        self.latest = Some(ckpt);
    }

    /// Saves `ckpt` as the latest and returns the simulated seconds the
    /// write cost.
    pub fn save(&mut self, ckpt: Checkpoint) -> f64 {
        let cost = self.storage.write_time(ckpt.size_bytes());
        self.writes += 1;
        self.bytes_written += ckpt.size_bytes();
        self.write_seconds += cost;
        self.latest = Some(ckpt);
        cost
    }

    /// The most recent checkpoint, if any.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.latest.as_ref()
    }

    /// Meters one restore of the latest checkpoint and returns the
    /// simulated seconds it cost.
    ///
    /// # Panics
    /// Panics if the store is empty.
    pub fn charge_read(&mut self) -> f64 {
        let bytes = self
            .latest
            .as_ref()
            .expect("charge_read on an empty checkpoint store")
            .size_bytes();
        let cost = self.storage.read_time(bytes);
        self.reads += 1;
        self.read_seconds += cost;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_tensor::init;

    fn sample_checkpoint() -> (Network, Checkpoint) {
        let mut rng = init::rng(9);
        let net = Network::mlp(&[4, 8, 3], &mut rng);
        let ckpt = Checkpoint {
            step: 17,
            params: net.flat_params(),
            optimizer: Optimizer::sgd(0.05),
            cursors: vec![272, 272, 256],
        };
        (net, ckpt)
    }

    #[test]
    fn restore_reproduces_params_exactly() {
        let (net, ckpt) = sample_checkpoint();
        let mut rng = init::rng(10);
        let mut other = Network::mlp(&[4, 8, 3], &mut rng);
        assert_ne!(net.flat_params(), other.flat_params());
        ckpt.restore_into(&mut other);
        assert_eq!(net.flat_params(), other.flat_params());
    }

    #[test]
    fn store_meters_write_and_read_costs() {
        let (_, ckpt) = sample_checkpoint();
        let storage = StorageProfile::blob_store();
        let mut store = CheckpointStore::new(storage);
        let bytes = ckpt.size_bytes();
        let w = store.save(ckpt);
        assert!((w - storage.write_time(bytes)).abs() < 1e-12);
        assert_eq!(store.writes, 1);
        assert_eq!(store.bytes_written, bytes);
        let r = store.charge_read();
        assert!((r - storage.read_time(bytes)).abs() < 1e-12);
        assert_eq!(store.reads, 1);
        assert!(store.latest().is_some());
    }

    #[test]
    fn seed_initial_is_free() {
        let (_, ckpt) = sample_checkpoint();
        let mut store = CheckpointStore::new(StorageProfile::local_ssd());
        store.seed_initial(ckpt);
        assert_eq!(store.writes, 0);
        assert_eq!(store.write_seconds, 0.0);
        assert_eq!(store.latest().unwrap().step, 17);
    }

    #[test]
    fn blob_store_slower_than_ssd() {
        let bytes = 10_000_000;
        assert!(
            StorageProfile::blob_store().write_time(bytes)
                > StorageProfile::local_ssd().write_time(bytes)
        );
    }

    #[test]
    fn size_scales_with_params() {
        let (_, ckpt) = sample_checkpoint();
        assert!(ckpt.size_bytes() > (ckpt.params.len() * 4) as u64);
    }
}
