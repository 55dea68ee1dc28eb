//! Live superstep observation: the read-only hook behind the
//! observability plane.
//!
//! All observability before this module was dead-drop — journal, registry
//! and traces become visible only after a run ends, through files. A [`ClusterObserver`] is the live counterpart: the cluster fires
//! it at every [`crate::Cluster::barrier`] (the single point where a
//! superstep closes) with a [`SuperstepSnapshot`] of the run so far and a
//! borrow of the metrics registry. The `graphbench-obs` crate fans these
//! callbacks out to progress logs, TTY renderers, and the `/metrics` HTTP
//! endpoint.
//!
//! # Contract: observers are strictly read-only
//!
//! The hook hands out `&`-references only and the cluster never branches
//! on whether observers are attached, so every simulated metric — journal,
//! registry, the clock itself — is byte-identical with the plane on or
//! off. `tests/observer_safety.rs` locks this with a serialized-record
//! equality check on clean and faulted runs.
//!
//! Observers ride inside [`crate::ClusterSpec`] (skipped by serde, ignored
//! by equality) so the harness can attach them where it already configures
//! the run, without widening any engine signature.

use crate::registry::MetricsRegistry;
use std::fmt;
use std::sync::Arc;

/// The cluster's state at the moment a superstep closes. Everything here
/// is simulated (deterministic); host wallclock is the consumer's concern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperstepSnapshot {
    /// Index of the superstep the barrier just closed (0-based).
    pub superstep: u64,
    /// Simulated seconds elapsed, barrier cost included.
    pub clock: f64,
    /// Vertices the engine reported active for this superstep via
    /// [`crate::Cluster::report_active`]; zero when the engine does not
    /// track activity.
    pub active_vertices: u64,
    /// Cumulative paper-equivalent application messages so far.
    pub messages: u64,
    /// Cumulative paper-equivalent network bytes so far.
    pub net_bytes: u64,
    /// Journal events recorded so far.
    pub journal_events: u64,
}

/// Receives one callback per closed superstep. Implementations must not
/// block for long (they run inside the simulated run's hot loop) and must
/// tolerate being called from whatever thread drives the engine.
pub trait ClusterObserver: Send + Sync {
    fn on_superstep(&self, snapshot: &SuperstepSnapshot, registry: &MetricsRegistry);
}

/// The set of observers attached to a run, carried by
/// [`crate::ClusterSpec`]. Deliberately transparent to everything the
/// simulator guarantees about specs:
///
/// * **serde**: skipped entirely — serialized specs and golden records
///   never see it;
/// * **equality**: two sets compare equal iff they hold the same observer
///   objects (pointer identity) — and in particular any two *empty* sets
///   are equal, so spec comparisons in tests are unaffected;
/// * **clone**: shares the observers (`Arc`), matching how one spec fans
///   out into per-run clusters.
#[derive(Clone, Default)]
pub struct ObserverSet(Vec<Arc<dyn ClusterObserver>>);

impl ObserverSet {
    pub fn new() -> Self {
        ObserverSet::default()
    }

    /// Attach an observer; it will see every subsequent superstep.
    pub fn attach(&mut self, obs: Arc<dyn ClusterObserver>) {
        self.0.push(obs);
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn ClusterObserver>> {
        self.0.iter()
    }
}

impl fmt::Debug for ObserverSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObserverSet({} attached)", self.0.len())
    }
}

impl PartialEq for ObserverSet {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| Arc::ptr_eq(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting(AtomicU64);

    impl ClusterObserver for Counting {
        fn on_superstep(&self, snap: &SuperstepSnapshot, _registry: &MetricsRegistry) {
            self.0.fetch_add(snap.superstep + 1, Ordering::SeqCst);
        }
    }

    #[test]
    fn empty_sets_are_equal_and_attached_sets_compare_by_identity() {
        let a = ObserverSet::new();
        let b = ObserverSet::new();
        assert_eq!(a, b);
        let obs: Arc<dyn ClusterObserver> = Arc::new(Counting(AtomicU64::new(0)));
        let mut c = ObserverSet::new();
        c.attach(obs.clone());
        assert_ne!(a, c);
        // A clone shares the same observer object.
        let d = c.clone();
        assert_eq!(c, d);
        // A different observer object is a different set.
        let mut e = ObserverSet::new();
        e.attach(Arc::new(Counting(AtomicU64::new(0))));
        assert_ne!(c, e);
        assert_eq!(format!("{c:?}"), "ObserverSet(1 attached)");
    }

    #[test]
    fn observers_fire_through_the_set() {
        let counter = Arc::new(Counting(AtomicU64::new(0)));
        let mut set = ObserverSet::new();
        set.attach(counter.clone());
        let snap = SuperstepSnapshot {
            superstep: 2,
            clock: 1.0,
            active_vertices: 5,
            messages: 7,
            net_bytes: 9,
            journal_events: 3,
        };
        let reg = MetricsRegistry::new();
        for o in set.iter() {
            o.on_superstep(&snap, &reg);
        }
        assert_eq!(counter.0.load(Ordering::SeqCst), 3);
    }
}
