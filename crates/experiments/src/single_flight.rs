//! Single-flight memo map: the compute-once core of
//! [`crate::trace_cache::TraceCache`] and [`crate::result_cache::ResultCache`].
//!
//! The first requester of a key claims it with a pending marker, releases
//! the lock and computes the value; requesters of the *same* key that
//! arrive meanwhile park on a condvar until the claimant publishes, so a
//! key is computed once however many workers ask for it at the same time.
//! Computation runs outside the lock, so distinct keys never serialise. If
//! the computation panics, the claim is cleared and the waiters are woken:
//! one of them claims the key and computes it instead of parking forever.
//!
//! [`SingleFlight::try_claim`] is the non-blocking half: it claims a key
//! nobody holds and skips one that is ready or in flight, so a requester
//! with several keys to fill can compute the unclaimed ones first and park
//! only for the rest.
//!
//! The map is a `BTreeMap`, so [`SingleFlight::fold`] visits values in key
//! order, never hash order.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// One slot: claimed the moment a requester commits to computing its key,
/// filled when the value is ready.
#[derive(Debug)]
enum Slot<V> {
    /// Some thread is computing this key right now.
    Pending,
    /// The computed value.
    Ready(V),
}

/// A thread-safe compute-once map from keys (strings by default) to
/// cheaply clonable values (`Arc`s or vectors of them).
#[derive(Debug)]
pub struct SingleFlight<V, K = String> {
    slots: Mutex<BTreeMap<K, Slot<V>>>,
    ready: Condvar,
    /// Requests that found their key in flight and parked; tests use it to
    /// hold a claim until a waiter is parked on it.
    #[cfg(test)]
    pub(crate) parked: std::sync::atomic::AtomicUsize,
}

impl<V, K> Default for SingleFlight<V, K> {
    fn default() -> Self {
        SingleFlight {
            slots: Mutex::new(BTreeMap::new()),
            ready: Condvar::new(),
            #[cfg(test)]
            parked: Default::default(),
        }
    }
}

/// The right to compute one key. [`Claim::publish`] fills the slot; a
/// claim dropped unpublished (the computation unwound) clears the pending
/// marker and wakes the waiters so they can reclaim the key.
pub struct Claim<'a, V, K: Ord> {
    memo: &'a SingleFlight<V, K>,
    key: K,
    published: bool,
}

impl<V, K: Ord + Clone> Claim<'_, V, K> {
    /// The claimed key.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// Stores `value` under the claimed key and wakes the waiters.
    pub fn publish(mut self, value: V) {
        self.published = true;
        self.memo.lock().insert(self.key.clone(), Slot::Ready(value));
        self.memo.ready.notify_all();
    }
}

impl<V, K: Ord> Drop for Claim<'_, V, K> {
    fn drop(&mut self) {
        if !self.published {
            self.memo.lock().remove(&self.key);
            self.memo.ready.notify_all();
        }
    }
}

impl<V: Clone, K: Ord + Clone> SingleFlight<V, K> {
    /// Returns the value for `key` and whether it was already memoised or
    /// in flight (a hit). On a miss the caller claims the key and runs
    /// `compute(&key)` outside the lock; a concurrent request for the same
    /// key waits for that result and counts as a hit.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce(&K) -> V) -> (V, bool) {
        let claim = {
            let mut map = self.lock();
            loop {
                match map.get(&key) {
                    Some(Slot::Ready(v)) => return (v.clone(), true),
                    Some(Slot::Pending) => {
                        #[cfg(test)]
                        self.parked.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        map = self.ready.wait(map).unwrap_or_else(|e| e.into_inner());
                    }
                    None => break self.claim(map, key),
                }
            }
        };
        let value = compute(claim.key());
        claim.publish(value.clone());
        (value, false)
    }

    /// Claims `key` without blocking: `Some` when nobody holds it (the
    /// caller computes the value and publishes it through the claim),
    /// `None` when it is ready or another requester is computing it.
    pub fn try_claim(&self, key: K) -> Option<Claim<'_, V, K>> {
        let map = self.lock();
        if map.contains_key(&key) {
            return None;
        }
        Some(self.claim(map, key))
    }

    /// Whether `key` is ready or in flight.
    pub fn contains(&self, key: &K) -> bool {
        self.lock().contains_key(key)
    }

    /// Marks `key` pending in the locked `map` and hands out its claim;
    /// the lock is released on return, before anything is computed.
    fn claim(&self, mut map: MutexGuard<'_, BTreeMap<K, Slot<V>>>, key: K) -> Claim<'_, V, K> {
        map.insert(key.clone(), Slot::Pending);
        Claim { memo: self, key, published: false }
    }

    /// Folds `f` over the ready values in key order (claims in flight are
    /// skipped).
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &V) -> A) -> A {
        self.lock().values().fold(init, |acc, slot| match slot {
            Slot::Ready(v) => f(acc, v),
            Slot::Pending => acc,
        })
    }

    /// Number of ready values (claims in flight don't count until
    /// published).
    pub fn len(&self) -> usize {
        self.fold(0, |n, _| n + 1)
    }
}

impl<V, K: Ord> SingleFlight<V, K> {
    /// The slot map; a poisoned lock is recovered, never propagated (slots
    /// are only ever replaced whole, so no half-written state exists).
    fn lock(&self) -> MutexGuard<'_, BTreeMap<K, Slot<V>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_once_and_counts_only_ready_values() {
        let memo = SingleFlight::<u32>::default();
        assert_eq!(memo.get_or_compute("a".into(), |_| 1), (1, false));
        assert_eq!(memo.get_or_compute("a".into(), |_| 2), (1, true), "memoised");
        assert_eq!(memo.get_or_compute("b".into(), |k| k.len() as u32 + 9), (10, false));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.fold(0, |s, v| s + v), 11);
    }

    #[test]
    fn a_panicking_computation_leaves_the_key_unclaimed() {
        let memo = SingleFlight::<u32>::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute("k".into(), |_| panic!("boom"))
        }));
        assert!(r.is_err());
        assert_eq!(memo.len(), 0, "a failed claim is not a value");
        assert_eq!(memo.get_or_compute("k".into(), |_| 3), (3, false), "reclaimed");
    }

    #[test]
    fn try_claim_yields_nothing_for_a_key_in_flight_or_ready() {
        let memo = SingleFlight::<u32, usize>::default();
        let claim = memo.try_claim(0).expect("a fresh key is claimable");
        assert_eq!(*claim.key(), 0);
        assert!(memo.try_claim(0).is_none(), "in flight");
        assert!(memo.contains(&0));
        assert_eq!(memo.len(), 0, "a claim is not a value");
        claim.publish(7);
        assert!(memo.try_claim(0).is_none(), "ready");
        assert_eq!(memo.get_or_compute(0, |_| 8), (7, true));
        // Other keys stay claimable while one is held.
        let held = memo.try_claim(1).expect("claimable");
        assert!(memo.try_claim(2).is_some());
        drop(held);
    }

    #[test]
    fn a_panicking_compute_under_try_claim_clears_the_claim() {
        fn compute() -> u32 {
            panic!("boom")
        }
        let memo = SingleFlight::<u32, usize>::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(claim) = memo.try_claim(3) {
                claim.publish(compute());
            }
        }));
        assert!(r.is_err());
        assert_eq!(memo.len(), 0, "a failed claim is not a value");
        let claim = memo.try_claim(3).expect("the unwound claim freed the key");
        claim.publish(4);
        assert_eq!(memo.get_or_compute(3, |_| 5), (4, true));
    }
}
