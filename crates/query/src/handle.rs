//! The snapshot publication point: an `RwLock<Arc<ForestSnapshot>>`.
//!
//! The AMR loop publishes a fresh [`ForestSnapshot`] each generation
//! while readers keep serving the previous one. Both sides hold the lock
//! only to clone or swap the `Arc`; the retired snapshot is dropped after
//! the write lock is released.
//!
//! A reader sees some recently published generation — possibly one
//! generation stale if it raced a publish — but always a complete,
//! immutable snapshot; torn state is unrepresentable.

use crate::ForestSnapshot;
use quadforest_telemetry as telemetry;
use std::sync::{Arc, PoisonError, RwLock};

/// The publication point for [`ForestSnapshot`]s.
///
/// Cheap to share (`Arc<SnapshotHandle>`); any number of reader threads
/// call [`load`](SnapshotHandle::load) concurrently with one (or more,
/// serialized) publishers calling [`publish`](SnapshotHandle::publish).
pub struct SnapshotHandle {
    current: RwLock<Arc<ForestSnapshot>>,
    /// Process-global gauges (helper threads are not rank threads).
    gen_gauge: telemetry::Gauge,
    age_gauge: telemetry::Gauge,
}

impl SnapshotHandle {
    /// Create a handle serving `initial` as generation zero's snapshot.
    pub fn new(initial: ForestSnapshot) -> Arc<Self> {
        let generation = initial.generation();
        let handle = Arc::new(SnapshotHandle {
            current: RwLock::new(Arc::new(initial)),
            gen_gauge: telemetry::global().gauge("snapshot.generation"),
            age_gauge: telemetry::global().gauge("snapshot.age_ns"),
        });
        handle.gen_gauge.set(generation);
        handle
    }

    /// The read path: clone the current `Arc` under the read lock.
    pub fn load(&self) -> Arc<ForestSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Generation of the currently served snapshot.
    pub fn generation(&self) -> u64 {
        self.load().generation()
    }

    /// Record the served snapshot's age into the `snapshot.age_ns`
    /// gauge (cheap enough for any cadence).
    pub fn record_age(&self) {
        self.age_gauge.set(self.load().age_ns());
    }

    /// Publish a new snapshot generation. Readers that raced the swap
    /// finish against the previous snapshot; every later
    /// [`load`](SnapshotHandle::load) observes the new one. The retired
    /// snapshot is freed here only if no reader still holds it, and
    /// always after the write lock is released.
    pub fn publish(&self, snapshot: ForestSnapshot) {
        let generation = snapshot.generation();
        let retired = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(PoisonError::into_inner),
            Arc::new(snapshot),
        );
        drop(retired);
        self.gen_gauge.set(generation);
        telemetry::global().counter("snapshot.published").incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::MortonQuad;
    use quadforest_forest::Forest;
    use std::sync::atomic::AtomicBool;

    fn snapshot_of_level(level: u8, generation: u64) -> ForestSnapshot {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, level);
            ForestSnapshot::build(&f, generation)
        })
        .pop()
        .unwrap()
    }

    #[test]
    fn publish_and_load_round_trip() {
        let handle = SnapshotHandle::new(snapshot_of_level(1, 0));
        assert_eq!(handle.generation(), 0);
        assert_eq!(handle.load().local_count(), 4);
        handle.publish(snapshot_of_level(2, 1));
        assert_eq!(handle.generation(), 1);
        assert_eq!(handle.load().local_count(), 16);
        handle.record_age();
    }

    #[test]
    fn concurrent_load_while_publishing_never_tears() {
        // Hammer the handle: 6 reader threads load continuously while
        // the main thread publishes 200 generations. Every loaded
        // snapshot must be internally consistent: generation g ⇒ the
        // leaf count recorded for g.
        let handle = SnapshotHandle::new(snapshot_of_level(1, 0));
        // generation g is published at level g % 5 + 1 (g = 0 at level 1),
        // so a consistent snapshot always has 4^level leaves
        let expected = |g: u64| 1usize << (2 * (g % 5 + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..6)
            .map(|_| {
                let handle = Arc::clone(&handle);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen_generations = 0u64;
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = handle.load();
                        let g = snap.generation();
                        assert_eq!(
                            snap.local_count(),
                            expected(g),
                            "torn snapshot at generation {g}"
                        );
                        assert!(g >= last, "generation went backwards: {last} -> {g}");
                        if g != last {
                            seen_generations += 1;
                            last = g;
                        }
                    }
                    seen_generations
                })
            })
            .collect();
        for g in 1..200u64 {
            let level = (g % 5 + 1) as u8;
            handle.publish(snapshot_of_level(level, g));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers must observe published generations");
        assert_eq!(handle.generation(), 199);
    }

    use std::sync::atomic::Ordering;
}
