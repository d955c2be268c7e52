//! The memory-budgeted weight store: many model families, one device
//! budget.
//!
//! A serving device cannot hold every family's weights at once. The
//! [`WeightStore`] keeps each family's serialized `dl-store` artifact on
//! simulated "disk" and materializes decoded registries into a byte
//! budget on demand. A warm fetch is free — zero simulated time, zero
//! recorder events, so a store-fronted single-family run stays
//! bit-identical to serving without a store. A cold fetch evicts
//! residents until the artifact fits, decodes it, and charges the
//! modeled load time: the artifact's bytes read through the
//! [`DeviceModel`]'s memory system, exactly how batch service time is
//! priced.
//!
//! Eviction is either classic LRU or cost-aware via
//! `dl_memsched::residency`: victims are scored by reload price (from
//! the same device bandwidth the load path charges) weighted by hit
//! count and discounted by staleness, so a big, hot family survives over
//! a small, idle one even when it was touched less recently.

use std::sync::Arc;

use crate::device::DeviceModel;
use crate::persist::load_family;
use crate::variant::VariantRegistry;
use dl_memsched::residency::{eviction_score, reload_cost, ResidencyStats};
use dl_obs::{fields, Recorder};
use dl_tensor::acct::OpCost;

/// How the store picks an eviction victim when a cold load does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used resident family.
    Lru,
    /// Evict the family with the lowest `dl_memsched` eviction score:
    /// reload price weighted by hits, discounted by staleness.
    CostAware,
}

struct FamilySlot {
    name: String,
    artifact: Arc<[u8]>,
    resident: Option<VariantRegistry>,
    stats: ResidencyStats,
}

/// What one fetch cost.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "the fetch outcome carries the simulated load delay"]
pub struct FetchOutcome {
    /// Whether the family was already resident.
    pub warm: bool,
    /// Simulated seconds until the weights are usable (0 when warm).
    pub load_s: f64,
    /// Families evicted to make room (0 when warm or when it fit).
    pub evicted: usize,
}

/// Hosts many serialized model families under one byte budget.
pub struct WeightStore {
    budget_bytes: u64,
    policy: EvictionPolicy,
    families: Vec<FamilySlot>,
    tick: u64,
    /// Cold loads performed.
    pub loads: usize,
    /// Warm hits served.
    pub hits: usize,
    /// Families evicted.
    pub evictions: usize,
    /// Total artifact bytes read by cold loads.
    pub bytes_loaded: u64,
}

impl WeightStore {
    /// An empty store with a byte budget and an eviction policy.
    #[must_use]
    pub fn new(budget_bytes: u64, policy: EvictionPolicy) -> Self {
        WeightStore {
            budget_bytes,
            policy,
            families: Vec::new(),
            tick: 0,
            loads: 0,
            hits: 0,
            evictions: 0,
            bytes_loaded: 0,
        }
    }

    /// Registers a family's encoded artifact (the bytes of
    /// [`crate::save_family`]) under `name`, cold: on disk, not
    /// resident. Stores can share one encoding. Returns the family's id
    /// — the index every other method takes.
    ///
    /// # Panics
    /// Panics on a duplicate name, or when the artifact alone exceeds
    /// the budget (it could never be served). A fetch or preload panics
    /// when the artifact does not decode.
    pub fn insert(&mut self, name: &str, artifact: Arc<[u8]>) -> usize {
        assert!(
            self.families.iter().all(|f| f.name != name),
            "duplicate family {name:?}"
        );
        assert!(
            artifact.len() as u64 <= self.budget_bytes,
            "family {name:?} ({} bytes) exceeds the store budget ({} bytes)",
            artifact.len(),
            self.budget_bytes
        );
        self.families.push(FamilySlot {
            name: name.to_string(),
            artifact,
            resident: None,
            stats: ResidencyStats {
                hits: 0,
                last_access: 0,
            },
        });
        self.families.len() - 1
    }

    /// Registered family count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// True when no family is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// The byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// The registered family's name.
    #[must_use]
    pub fn name(&self, id: usize) -> &str {
        &self.families[id].name
    }

    /// The family's artifact footprint in bytes — what residency costs.
    #[must_use]
    pub fn artifact_bytes(&self, id: usize) -> u64 {
        self.families[id].artifact.len() as u64
    }

    /// Bytes currently held by resident families.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.families
            .iter()
            .filter(|f| f.resident.is_some())
            .map(|f| f.artifact.len() as u64)
            .sum()
    }

    /// Whether the family's weights are usable right now.
    #[must_use]
    pub fn is_resident(&self, id: usize) -> bool {
        self.families[id].resident.is_some()
    }

    /// Simulated seconds to load the family's artifact through the
    /// device's memory system — the modeled cold-start price. The
    /// artifact is pure read traffic, so it is priced exactly like a
    /// batch whose cost is `bytes_read = artifact_len`.
    #[must_use]
    pub fn load_seconds(&self, id: usize, device: &DeviceModel) -> f64 {
        device.service_time(&OpCost {
            flops: 0,
            bytes_read: self.families[id].artifact.len() as u64,
            bytes_written: 0,
        })
    }

    /// The residency delay an arrival for `id` would see: zero when warm,
    /// the modeled load time when cold.
    #[must_use]
    pub fn residency_delay_s(&self, id: usize, device: &DeviceModel) -> f64 {
        if self.is_resident(id) {
            0.0
        } else {
            self.load_seconds(id, device)
        }
    }

    /// Forces the family resident without charging time or emitting
    /// events — deployment-time warmup, before the clock starts. Counts
    /// neither as a hit nor as a load.
    ///
    /// # Panics
    /// Panics when the artifact does not fit next to current residents.
    pub fn preload(&mut self, id: usize) {
        if self.families[id].resident.is_some() {
            return;
        }
        let need = self.families[id].artifact.len() as u64;
        assert!(
            self.resident_bytes() + need <= self.budget_bytes,
            "preload of {:?} does not fit",
            self.families[id].name
        );
        let reg = load_family(&self.families[id].artifact).expect("store-serialized artifact");
        self.families[id].resident = Some(reg);
    }

    /// Picks the eviction victim among evictable residents other than
    /// `keep`; `None` when nothing qualifies.
    fn victim(&self, keep: usize, device: &DeviceModel, evictable: &[bool]) -> Option<usize> {
        let residents = self
            .families
            .iter()
            .enumerate()
            .filter(|(i, f)| *i != keep && f.resident.is_some() && evictable[*i]);
        match self.policy {
            EvictionPolicy::Lru => residents
                .min_by_key(|(i, f)| (f.stats.last_access, *i))
                .map(|(i, _)| i),
            EvictionPolicy::CostAware => residents
                .map(|(i, f)| {
                    let cost = reload_cost(
                        f.artifact.len() as u64,
                        device.bytes_per_sec,
                        device.launch_overhead_s,
                    );
                    (i, eviction_score(cost, f.stats, self.tick))
                })
                .min_by(|(i, a), (j, b)| a.total_cmp(b).then(i.cmp(j)))
                .map(|(i, _)| i),
        }
    }

    /// Makes the family resident, evicting as needed, and returns what it
    /// cost. Warm fetches touch the recency state and return zero load
    /// time without recording anything; cold fetches emit one
    /// `store.evict` instant per victim and one `store.load` instant, on
    /// `track`.
    pub fn fetch(&mut self, id: usize, device: &DeviceModel, track: u32, rec: &dyn Recorder) -> FetchOutcome {
        let all = vec![true; self.families.len()];
        self.fetch_guarded(id, device, &all, track, rec)
            .expect("insert checked the artifact fits an empty store")
    }

    /// [`Self::fetch`] restricted to evicting only families the caller
    /// marks `evictable` (indexed by family id). Returns `None` — with
    /// no state change and no events — when the artifact cannot fit
    /// without evicting a protected family; callers use this to shield
    /// families that are mid-load or still owe queued work, deferring
    /// the fault instead of stealing a contended slot (which would
    /// live-lock two queues over one slot).
    pub fn fetch_guarded(
        &mut self,
        id: usize,
        device: &DeviceModel,
        evictable: &[bool],
        track: u32,
        rec: &dyn Recorder,
    ) -> Option<FetchOutcome> {
        if self.families[id].resident.is_some() {
            self.tick += 1;
            self.hits += 1;
            self.families[id].stats.hits += 1;
            self.families[id].stats.last_access = self.tick;
            return Some(FetchOutcome {
                warm: true,
                load_s: 0.0,
                evicted: 0,
            });
        }
        let need = self.families[id].artifact.len() as u64;
        let freeable: u64 = self
            .families
            .iter()
            .enumerate()
            .filter(|(i, f)| *i != id && f.resident.is_some() && evictable[*i])
            .map(|(_, f)| f.artifact.len() as u64)
            .sum();
        if self.resident_bytes() - freeable + need > self.budget_bytes {
            return None;
        }
        self.tick += 1;
        let mut evicted = 0usize;
        while self.resident_bytes() + need > self.budget_bytes {
            let v = self
                .victim(id, device, evictable)
                .expect("feasibility was prechecked above");
            self.families[v].resident = None;
            self.evictions += 1;
            evicted += 1;
            rec.instant(
                track,
                "store.evict",
                fields! {
                    "family" => self.families[v].name.clone(),
                    "bytes" => self.families[v].artifact.len(),
                    "for" => self.families[id].name.clone(),
                },
            );
        }
        let reg = load_family(&self.families[id].artifact).expect("store-serialized artifact");
        let load_s = self.load_seconds(id, device);
        self.families[id].resident = Some(reg);
        self.families[id].stats = ResidencyStats {
            hits: 0,
            last_access: self.tick,
        };
        self.loads += 1;
        self.bytes_loaded += need;
        rec.instant(
            track,
            "store.load",
            fields! {
                "family" => self.families[id].name.clone(),
                "bytes" => need,
                "load_s" => load_s,
                "evicted" => evicted,
            },
        );
        Some(FetchOutcome {
            warm: false,
            load_s,
            evicted,
        })
    }

    /// The resident registry (immutable).
    ///
    /// # Panics
    /// Panics when the family is not resident — fetch first.
    #[must_use]
    pub fn registry(&self, id: usize) -> &VariantRegistry {
        self.families[id]
            .resident
            .as_ref()
            .unwrap_or_else(|| panic!("family {:?} is not resident", self.families[id].name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::save_family;
    use crate::variant::{build_family, FamilyConfig};
    use dl_obs::{NullRecorder, TimelineRecorder};

    fn family(seed: u64) -> VariantRegistry {
        let data = dl_data::blobs(100, 3, 8, 6.0, 0.5, seed);
        let eval = dl_data::blobs(50, 3, 8, 6.0, 0.5, seed + 1);
        build_family(
            &data,
            &eval,
            &FamilyConfig {
                teacher_dims: vec![8, 16, 3],
                student_hidden: vec![4],
                prune_sparsity: 0.6,
                morph_budget: 100,
                ensemble_members: 2,
                max_batch: 4,
                epochs: 5,
                seed,
            },
        )
    }

    fn two_family_store(policy: EvictionPolicy) -> (WeightStore, u64) {
        let (a, b) = (save_family(&family(100)), save_family(&family(200)));
        let (bytes_a, bytes_b) = (a.len() as u64, b.len() as u64);
        // Budget fits either family alone but never both.
        let budget = bytes_a.max(bytes_b) + bytes_a.min(bytes_b) / 2;
        let mut store = WeightStore::new(budget, policy);
        store.insert("a", a.into());
        store.insert("b", b.into());
        (store, budget)
    }

    #[test]
    fn warm_fetches_are_free_and_silent() {
        let reg = family(300);
        let mut store = WeightStore::new(u64::MAX, EvictionPolicy::Lru);
        let id = store.insert("only", save_family(&reg).into());
        store.preload(id);
        let rec = TimelineRecorder::new();
        let out = store.fetch(id, &DeviceModel::nominal(), 0, &rec);
        assert!(out.warm);
        assert_eq!(out.load_s, 0.0);
        assert_eq!(out.evicted, 0);
        assert_eq!(rec.len(), 0, "warm fetch records nothing");
        assert_eq!(store.hits, 1);
        assert_eq!(store.loads, 0);
    }

    #[test]
    fn cold_fetch_charges_the_modeled_artifact_read() {
        let reg = family(300);
        let mut store = WeightStore::new(u64::MAX, EvictionPolicy::Lru);
        let id = store.insert("only", save_family(&reg).into());
        let device = DeviceModel::nominal();
        let rec = TimelineRecorder::new();
        let out = store.fetch(id, &device, 0, &rec);
        assert!(!out.warm);
        let expected = device.service_time(&OpCost {
            flops: 0,
            bytes_read: store.artifact_bytes(id),
            bytes_written: 0,
        });
        assert_eq!(out.load_s, expected);
        assert!(out.load_s > 0.0);
        assert_eq!(store.loads, 1);
        assert_eq!(store.bytes_loaded, store.artifact_bytes(id));
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "store.load");
        // The decoded registry serves the same family that was inserted.
        assert_eq!(store.registry(id).variants.len(), reg.variants.len());
    }

    #[test]
    fn over_budget_fetch_evicts_lru_first() {
        let (mut store, _) = two_family_store(EvictionPolicy::Lru);
        let device = DeviceModel::nominal();
        let rec = NullRecorder::new();
        let _ = store.fetch(0, &device, 0, &rec);
        assert!(store.is_resident(0) && !store.is_resident(1));
        // Fetching b must evict a (the only other resident).
        let out = store.fetch(1, &device, 0, &rec);
        assert_eq!(out.evicted, 1);
        assert!(!store.is_resident(0) && store.is_resident(1));
        assert_eq!(store.evictions, 1);
        // Thrash back: a is cold again.
        let back = store.fetch(0, &device, 0, &rec);
        assert!(!back.warm);
        assert!(store.resident_bytes() <= store.budget_bytes());
    }

    #[test]
    fn cost_aware_eviction_spares_the_hot_family() {
        let artifacts = [100, 200, 400].map(|seed| save_family(&family(seed)));
        let sizes = artifacts.each_ref().map(|a| a.len() as u64);
        // Fits any two families, never all three.
        let budget = sizes.iter().sum::<u64>() - sizes.iter().min().unwrap() / 2;
        let mut store = WeightStore::new(budget, EvictionPolicy::CostAware);
        for (name, artifact) in ["a", "b", "c"].into_iter().zip(artifacts) {
            store.insert(name, artifact.into());
        }
        let device = DeviceModel::nominal();
        let rec = NullRecorder::new();
        let _ = store.fetch(0, &device, 0, &rec);
        let _ = store.fetch(1, &device, 0, &rec);
        // Hammer a: many hits, and recent.
        for _ in 0..10 {
            let out = store.fetch(0, &device, 0, &rec);
            assert!(out.warm);
        }
        // c needs room: the idle b must go, not the hot a.
        let _ = store.fetch(2, &device, 0, &rec);
        assert!(store.is_resident(0), "hot family survives");
        assert!(!store.is_resident(1), "idle family evicted");
        assert!(store.is_resident(2));
    }

    #[test]
    fn guarded_fetch_defers_instead_of_evicting_protected_families() {
        let (mut store, _) = two_family_store(EvictionPolicy::Lru);
        let device = DeviceModel::nominal();
        let rec = NullRecorder::new();
        let _ = store.fetch(0, &device, 0, &rec);
        let loads_before = store.loads;
        // With the resident family protected, b's fetch must defer —
        // no eviction, no load, no counter movement.
        let out = store.fetch_guarded(1, &device, &[false, true], 0, &rec);
        assert!(out.is_none(), "protected resident must not be evicted");
        assert!(store.is_resident(0) && !store.is_resident(1));
        assert_eq!(store.evictions, 0);
        assert_eq!(store.loads, loads_before);
        // Unprotecting the resident lets the same fetch through.
        let out = store
            .fetch_guarded(1, &device, &[true, true], 0, &rec)
            .expect("evictable resident frees the slot");
        assert!(!out.warm);
        assert_eq!(out.evicted, 1);
        assert!(!store.is_resident(0) && store.is_resident(1));
    }

    #[test]
    #[should_panic(expected = "exceeds the store budget")]
    fn oversized_family_is_rejected_at_insert() {
        let reg = family(500);
        let mut store = WeightStore::new(16, EvictionPolicy::Lru);
        let _ = store.insert("too-big", save_family(&reg).into());
    }

    #[test]
    fn loaded_registry_predicts_identically_to_the_original() {
        let reg = family(600);
        let eval = dl_data::blobs(50, 3, 8, 6.0, 0.5, 601);
        let mut store = WeightStore::new(u64::MAX, EvictionPolicy::Lru);
        let id = store.insert("f", save_family(&reg).into());
        let _ = store.fetch(id, &DeviceModel::nominal(), 0, &NullRecorder::new());
        let loaded = store.registry(id);
        for (v, w) in reg.variants.iter().zip(&loaded.variants) {
            assert_eq!(v.model.predict(&eval.x), w.model.predict(&eval.x), "{}", v.name);
        }
    }
}
