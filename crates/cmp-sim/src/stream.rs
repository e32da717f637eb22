//! The interface between workloads and the simulator.
//!
//! A thread's execution is abstracted as a stream of [`ThreadEvent`]s:
//! memory accesses separated by runs of non-memory instructions, barrier
//! arrivals delimiting parallel sections (§III-B), and termination. The
//! `icp-workloads` crate provides synthetic generators; traces or other
//! sources can implement [`AccessStream`] too.

use icp_hot_path::hot_path;

use crate::packed::PackedBlock;

/// One event in a thread's instruction stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadEvent {
    /// `gap` non-memory instructions followed by one memory access to
    /// byte address `addr`.
    Access {
        /// Non-memory instructions retired before the access (1 cycle each).
        gap: u32,
        /// Byte address accessed.
        addr: u64,
        /// Whether the access is a store. Timing treats loads and stores
        /// identically (no write-buffer model); the flag exists so stream
        /// implementations can carry it and future models can use it.
        write: bool,
        /// Memory-level parallelism of this access, in tenths (10 = no
        /// overlap). On an L2 miss the DRAM portion of the latency is
        /// divided by `mlp_tenths / 10`: streaming/prefetchable access
        /// patterns overlap their misses (high MLP, cheap per-miss stall)
        /// while dependent pointer-chasing misses serialise (MLP 1.0).
        /// This is what lets a polluter thread insert lines at a high rate
        /// without its CPI exploding — the behaviour behind the paper's
        /// "threads with not so good cache behavior occupying most of the
        /// shared cache with very little performance gain" (§I).
        mlp_tenths: u16,
    },
    /// The thread arrived at a barrier ending the current parallel section.
    /// It stalls until every unfinished thread arrives.
    Barrier,
    /// The thread has retired all of its work.
    Finished,
}

impl ThreadEvent {
    /// A plain read access with no miss overlap (MLP 1.0) — the common
    /// case in tests and traces.
    pub fn access(gap: u32, addr: u64) -> Self {
        ThreadEvent::Access { gap, addr, write: false, mlp_tenths: 10 }
    }
}

/// A per-thread instruction/access stream consumed by the simulator.
///
/// Streams are *generation-only*: the simulator never feeds timing or cache
/// state back into them, so events may be produced ahead of consumption.
/// The simulator exploits that with [`Self::fill_batch`], pulling events
/// into a per-core ring so the per-event virtual dispatch amortises over a
/// whole batch.
pub trait AccessStream {
    /// Returns the next event. After returning [`ThreadEvent::Finished`]
    /// the stream will not be polled again.
    fn next_event(&mut self) -> ThreadEvent;

    /// Fills `out` with upcoming events and returns how many were written.
    ///
    /// The batch ends early (possibly with fewer events than `out` holds)
    /// after a [`ThreadEvent::Finished`] is written; the stream is not
    /// polled again afterwards. Returns 0 only when `out` is empty.
    /// Implementations must produce exactly the sequence `next_event` would
    /// — batching is a delivery detail, never a semantic one (the
    /// `batch_equivalence` integration suite holds implementations to
    /// this).
    ///
    /// The default forwards to [`Self::next_event`]; generators override it
    /// to produce batches natively.
    fn fill_batch(&mut self, out: &mut [ThreadEvent]) -> usize {
        let mut n = 0;
        while n < out.len() {
            let e = self.next_event();
            out[n] = e;
            n += 1;
            if matches!(e, ThreadEvent::Finished) {
                break;
            }
        }
        n
    }

    /// Clears `out` and refills it with at most `cap` upcoming events
    /// (accesses plus barriers) in packed column form.
    ///
    /// Stream termination is carried as the block's `finished` flag rather
    /// than an in-band event, and — exactly like a `Finished` written by
    /// [`Self::fill_batch`] — ends delivery: the block may hold fewer than
    /// `cap` events, and the stream is not polled again afterwards (if it
    /// is, it must keep yielding empty finished blocks). The delivered
    /// column sequence must decode to exactly what `next_event` would
    /// produce; `cap == 0` yields an empty, unfinished block with nothing
    /// consumed.
    ///
    /// The default bridges through [`Self::fill_batch`]; columnar
    /// generators and replays override it to write columns directly.
    fn fill_packed(&mut self, out: &mut PackedBlock, cap: usize) {
        out.clear();
        let mut buf = [ThreadEvent::Finished; 256];
        while out.len() < cap {
            let want = (cap - out.len()).min(buf.len());
            let n = self.fill_batch(&mut buf[..want]);
            if n == 0 {
                break;
            }
            for &e in &buf[..n] {
                match e {
                    ThreadEvent::Access { gap, addr, write, mlp_tenths } => {
                        out.push_access(gap, addr, write, mlp_tenths);
                    }
                    ThreadEvent::Barrier => out.push_barrier(),
                    ThreadEvent::Finished => {
                        out.set_finished(true);
                        return;
                    }
                }
            }
        }
    }
}

/// Blanket impl so closures can serve as streams in tests.
impl<F: FnMut() -> ThreadEvent> AccessStream for F {
    fn next_event(&mut self) -> ThreadEvent {
        self()
    }
}

/// Delegation for boxed streams, so wrappers and adaptors can hold a
/// `Box<dyn AccessStream>` and still be streams themselves. Forwards
/// `fill_batch` too — a boxed generator keeps its native batching.
impl AccessStream for Box<dyn AccessStream + '_> {
    fn next_event(&mut self) -> ThreadEvent {
        (**self).next_event()
    }

    fn fill_batch(&mut self, out: &mut [ThreadEvent]) -> usize {
        (**self).fill_batch(out)
    }

    fn fill_packed(&mut self, out: &mut PackedBlock, cap: usize) {
        (**self).fill_packed(out, cap);
    }
}

/// A stream replaying a fixed event sequence, then `Finished`. Useful in
/// tests and for trace-driven simulation.
#[derive(Clone, Debug)]
pub struct ReplayStream {
    events: Vec<ThreadEvent>,
    pos: usize,
}

impl ReplayStream {
    /// Creates a stream that yields `events` in order, then `Finished`
    /// forever.
    pub fn new(events: Vec<ThreadEvent>) -> Self {
        ReplayStream { events, pos: 0 }
    }
}

impl AccessStream for ReplayStream {
    fn next_event(&mut self) -> ThreadEvent {
        let e = self.events.get(self.pos).copied().unwrap_or(ThreadEvent::Finished);
        self.pos += 1;
        e
    }

    /// Native batch delivery: one slice copy instead of per-event calls.
    #[hot_path]
    fn fill_batch(&mut self, out: &mut [ThreadEvent]) -> usize {
        // `pos` can sit past the end once the synthesised `Finished` has
        // been delivered; clamp before slicing.
        let pos = self.pos.min(self.events.len());
        let n = (self.events.len() - pos).min(out.len());
        out[..n].copy_from_slice(&self.events[pos..pos + n]);
        self.pos = pos + n;
        if n < out.len() {
            out[n] = ThreadEvent::Finished;
            self.pos += 1;
            return n + 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_yields_then_finishes() {
        let mut s = ReplayStream::new(vec![
            ThreadEvent::access(2, 64),
            ThreadEvent::Barrier,
        ]);
        assert_eq!(s.next_event(), ThreadEvent::access(2, 64));
        assert_eq!(s.next_event(), ThreadEvent::Barrier);
        assert_eq!(s.next_event(), ThreadEvent::Finished);
        assert_eq!(s.next_event(), ThreadEvent::Finished);
    }

    #[test]
    fn replay_fill_batch_matches_next_event() {
        let events = vec![
            ThreadEvent::access(2, 64),
            ThreadEvent::Barrier,
            ThreadEvent::access(0, 128),
        ];
        let mut batched = ReplayStream::new(events.clone());
        let mut single = ReplayStream::new(events);
        let mut buf = [ThreadEvent::Finished; 2];
        // First batch: full buffer, no Finished yet.
        assert_eq!(batched.fill_batch(&mut buf), 2);
        assert_eq!(buf[0], single.next_event());
        assert_eq!(buf[1], single.next_event());
        // Second batch: last event + the synthesised Finished.
        assert_eq!(batched.fill_batch(&mut buf), 2);
        assert_eq!(buf[0], single.next_event());
        assert_eq!(buf[1], ThreadEvent::Finished);
        // Exhausted stream keeps yielding Finished-only batches.
        assert_eq!(batched.fill_batch(&mut buf), 1);
        assert_eq!(buf[0], ThreadEvent::Finished);
    }

    #[test]
    fn default_fill_batch_stops_after_finished() {
        // The blanket closure impl uses the default fill_batch.
        let mut n = 0u32;
        let mut s = move || {
            n += 1;
            if n <= 3 {
                ThreadEvent::access(0, n as u64 * 64)
            } else {
                ThreadEvent::Finished
            }
        };
        let mut buf = [ThreadEvent::Barrier; 8];
        let filled = AccessStream::fill_batch(&mut s, &mut buf);
        assert_eq!(filled, 4);
        assert!(matches!(buf[2], ThreadEvent::Access { .. }));
        assert_eq!(buf[3], ThreadEvent::Finished);
    }

    #[test]
    fn fill_batch_with_empty_buffer_is_zero() {
        let mut s = ReplayStream::new(vec![ThreadEvent::access(0, 0)]);
        assert_eq!(s.fill_batch(&mut []), 0);
        // Nothing consumed.
        assert_eq!(s.next_event(), ThreadEvent::access(0, 0));
    }

    #[test]
    fn closure_stream() {
        let mut n = 0u32;
        let mut s = move || {
            n += 1;
            if n <= 2 {
                ThreadEvent::access(0, 0)
            } else {
                ThreadEvent::Finished
            }
        };
        assert!(matches!(AccessStream::next_event(&mut s), ThreadEvent::Access { .. }));
        assert!(matches!(AccessStream::next_event(&mut s), ThreadEvent::Access { .. }));
        assert!(matches!(AccessStream::next_event(&mut s), ThreadEvent::Finished));
    }
}
