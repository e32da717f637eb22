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

/// A thread-safe compute-once map from string keys to cheaply clonable
/// values (`Arc`s or vectors of them).
#[derive(Debug)]
pub struct SingleFlight<V> {
    slots: Mutex<BTreeMap<String, Slot<V>>>,
    ready: Condvar,
    /// Requests that found their key in flight and parked; tests use it to
    /// hold a claim until a waiter is parked on it.
    #[cfg(test)]
    pub(crate) parked: std::sync::atomic::AtomicUsize,
}

impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight {
            slots: Mutex::new(BTreeMap::new()),
            ready: Condvar::new(),
            #[cfg(test)]
            parked: Default::default(),
        }
    }
}

/// Claim guard: if the computation unwinds, clear the pending marker and
/// wake the waiters so they can reclaim the key.
struct Claim<'a, V> {
    memo: &'a SingleFlight<V>,
    key: &'a str,
}

impl<V> Drop for Claim<'_, V> {
    fn drop(&mut self) {
        self.memo.lock().remove(self.key);
        self.memo.ready.notify_all();
    }
}

impl<V: Clone> SingleFlight<V> {
    /// Returns the value for `key` and whether it was already memoised or
    /// in flight (a hit). On a miss the caller claims the key and runs
    /// `compute(&key)` outside the lock; a concurrent request for the same
    /// key waits for that result and counts as a hit.
    pub fn get_or_compute(&self, key: String, compute: impl FnOnce(&str) -> V) -> (V, bool) {
        {
            let mut map = self.lock();
            loop {
                match map.get(&key) {
                    Some(Slot::Ready(v)) => return (v.clone(), true),
                    Some(Slot::Pending) => {
                        #[cfg(test)]
                        self.parked.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        map = self.ready.wait(map).unwrap_or_else(|e| e.into_inner());
                    }
                    None => {
                        map.insert(key.clone(), Slot::Pending);
                        break;
                    }
                }
            }
        }
        let claim = Claim { memo: self, key: &key };
        let value = compute(&key);
        // Published: the guard must not clear the slot.
        std::mem::forget(claim);
        self.lock().insert(key, Slot::Ready(value.clone()));
        self.ready.notify_all();
        (value, false)
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

impl<V> SingleFlight<V> {
    /// The slot map; a poisoned lock is recovered, never propagated (slots
    /// are only ever replaced whole, so no half-written state exists).
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Slot<V>>> {
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
}
