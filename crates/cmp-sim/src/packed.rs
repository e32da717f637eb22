//! Packed struct-of-arrays trace storage, zero-copy shared replay, and the
//! on-disk trace format.
//!
//! A `Vec<ThreadEvent>` spends 24 bytes per event, and a replay touches
//! every byte. A [`PackedTrace`] stores the same sequence column-wise
//! (`gaps`/`addrs`/`mlps` arrays, a write bitmap, and barrier positions),
//! cutting the replay's memory traffic to ~14 bytes per event. Behind an
//! [`Arc`] any number of replay streams share one materialisation — the
//! record-once, simulate-many-schemes pattern the experiment sweeps use
//! (each suite workload is generated exactly once per sweep and replayed
//! zero-copy for every partitioning scheme).
//!
//! The same type is the unit of columnar event transport everywhere events
//! move between stages: generators write columns straight into a recycled
//! chunk ([`AccessStream::fill_packed`]), the simulator's per-core ring
//! drains its chunk in place, and [`PackedTrace::record`] appends chunks
//! into a trace with column memcpys. No stage materialises per-event
//! `ThreadEvent`s.
//!
//! ## Binary format
//!
//! [`PackedTrace::to_bytes`] / [`PackedTrace::from_bytes`] read and write
//! one little-endian, versioned event list, so recordings can be stored
//! and exchanged with external trace producers:
//!
//! ```text
//! magic  u32  = 0x49435054 ("ICPT")
//! version u32 = 1
//! count  u64  = number of events
//! event* :
//!   tag   u8   (0 = access, 1 = barrier, 2 = finished)
//!   access payload (tag 0 only):
//!     gap        u32
//!     addr       u64
//!     flags      u8   (bit 0 = write)
//!     mlp_tenths u16
//! ```
//!
//! The writer never emits tag 2 (the trailing `Finished` is implicit); the
//! reader accepts it and ends the trace there.

use std::sync::Arc;

use icp_hot_path::{deterministic, hot_path};

use crate::stream::{AccessStream, ReplayStream, ThreadEvent};

/// `"ICPT"`: the first four bytes of an encoded trace.
const MAGIC: u32 = 0x4943_5054;
/// The only format version.
const VERSION: u32 = 1;
/// Event tags of the binary format.
const TAG_ACCESS: u8 = 0;
const TAG_BARRIER: u8 = 1;
const TAG_FINISHED: u8 = 2;

/// Errors from trace decoding ([`PackedTrace::from_bytes`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Wrong magic number — not a trace file.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Input ended mid-event, or before the declared event count.
    Truncated,
    /// Unknown event tag byte.
    BadTag(u8),
    /// Bytes left over after the declared event count.
    TrailingBytes(usize),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an ICP trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::BadTag(t) => write!(f, "unknown event tag {t}"),
            TraceError::TrailingBytes(n) => write!(f, "{n} bytes after the last event"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Little-endian cursor over untrusted input: every read is bounds-checked
/// and reports [`TraceError::Truncated`] instead of panicking.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], TraceError> {
        let (head, rest) = self.bytes.split_first_chunk::<N>().ok_or(TraceError::Truncated)?;
        self.bytes = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(u8::from_le_bytes(self.take()?))
    }

    fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take()?))
    }
}

/// Copies `len` bits from `src` starting at bit `src_start` into `dst`
/// starting at bit `dst_start`, growing `dst` to hold them.
///
/// Both bitmaps follow the packed-write-column invariant: bits at or past
/// the logical length are zero. `dst`'s tail word is OR-merged, so
/// `dst_start` must be `dst`'s current logical bit length.
fn copy_bits(dst: &mut Vec<u64>, dst_start: usize, src: &[u64], src_start: usize, len: usize) {
    if len == 0 {
        return;
    }
    let total = dst_start + len;
    dst.resize(total.div_ceil(64), 0);
    let words = len.div_ceil(64);
    for wi in 0..words {
        // Gather 64 source bits at an arbitrary bit offset from up to two
        // adjacent words (shifts stay in 1..=63 by the `sub != 0` guards).
        let bit = src_start + wi * 64;
        let sub = bit & 63;
        let mut w = src[bit >> 6] >> sub;
        let next = (bit >> 6) + 1;
        if sub != 0 && next < src.len() {
            w |= src[next] << (64 - sub);
        }
        let rem = len - wi * 64;
        if rem < 64 {
            w &= (1u64 << rem) - 1;
        }
        // Scatter them at the destination offset, again over two words.
        let db = dst_start + wi * 64;
        let dsub = db & 63;
        dst[db >> 6] |= w << dsub;
        let dnext = (db >> 6) + 1;
        if dsub != 0 && dnext < dst.len() {
            dst[dnext] |= w >> (64 - dsub);
        }
    }
}

/// An event sequence in packed struct-of-arrays form.
///
/// Accesses live in parallel columns indexed by *access number*; barriers
/// are stored out of line as the access number they precede (non-decreasing,
/// with duplicates encoding consecutive barriers). End of stream is not a
/// column: a trace holds accesses and barriers only, so `==` compares
/// events. [`AccessStream::fill_packed`] reports termination as its return
/// value, and a recorded trace's trailing `Finished` is implicit.
///
/// [`Self::clear`] keeps the column allocations, so a trace doubles as the
/// recycled chunk that generators fill and the simulator's event ring
/// drains without touching the allocator.
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::{PackedTrace, ThreadEvent};
/// use icp_cmp_sim::stream::AccessStream;
///
/// let packed = PackedTrace::from_events(&[
///     ThreadEvent::access(3, 0x40),
///     ThreadEvent::Barrier,
///     ThreadEvent::access(0, 0x80),
/// ]);
/// assert_eq!(packed.accesses(), 2);
/// let shared = std::sync::Arc::new(packed);
/// let mut replay = PackedTrace::stream(&shared); // zero-copy
/// assert_eq!(replay.next_event(), ThreadEvent::access(3, 0x40));
/// assert_eq!(replay.next_event(), ThreadEvent::Barrier);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedTrace {
    /// Non-memory instruction gap of each access.
    gaps: Vec<u32>,
    /// Byte address of each access.
    addrs: Vec<u64>,
    /// Memory-level parallelism (tenths) of each access.
    mlps: Vec<u16>,
    /// Store flags, one bit per access (bit `i & 63` of word `i >> 6`);
    /// bits at or past `gaps.len()` are zero.
    writes: Vec<u64>,
    /// Barrier markers: entry `b` means a barrier fires after `b` accesses
    /// have been delivered. Non-decreasing; equal entries are consecutive
    /// barriers.
    barriers: Vec<u64>,
}

impl PackedTrace {
    /// Creates an empty packed trace.
    pub fn new() -> Self {
        PackedTrace::default()
    }

    /// An empty trace with column capacity for `cap` accesses.
    pub fn with_capacity(cap: usize) -> Self {
        PackedTrace {
            gaps: Vec::with_capacity(cap),
            addrs: Vec::with_capacity(cap),
            mlps: Vec::with_capacity(cap),
            writes: Vec::with_capacity(cap.div_ceil(64)),
            barriers: Vec::new(),
        }
    }

    /// Empties the trace for refilling, keeping every column's allocation.
    pub fn clear(&mut self) {
        self.gaps.clear();
        self.addrs.clear();
        self.mlps.clear();
        self.writes.clear();
        self.barriers.clear();
    }

    /// Packs an explicit event sequence (ignoring anything after a
    /// `Finished`).
    pub fn from_events(events: &[ThreadEvent]) -> Self {
        let mut p = PackedTrace::new();
        for &e in events {
            match e {
                ThreadEvent::Access { gap, addr, write, mlp_tenths } => {
                    p.push_access(gap, addr, write, mlp_tenths);
                }
                ThreadEvent::Barrier => p.push_barrier(),
                ThreadEvent::Finished => break,
            }
        }
        p
    }

    /// Drains `stream` until it finishes (or `max_events` events — accesses
    /// plus barriers — have been recorded) and packs everything, pulling
    /// column chunks through [`AccessStream::fill_packed`] so columnar
    /// generators never materialise per-event enums and assembly is a
    /// handful of column memcpys.
    ///
    /// The recorded prefix is the stream's first `max_events` events, with
    /// the trailing `Finished` left implicit; `fill_packed`'s exact cap
    /// means no surplus events are generated when the limit truncates
    /// mid-stream.
    #[deterministic]
    pub fn record<S: AccessStream>(stream: &mut S, max_events: usize) -> Self {
        const RECORD_BATCH: usize = 4096;
        let mut p = PackedTrace::new();
        let mut chunk = PackedTrace::new();
        while p.len() < max_events {
            let finished = stream.fill_packed(&mut chunk, RECORD_BATCH.min(max_events - p.len()));
            p.append(&chunk);
            if finished || chunk.is_empty() {
                break;
            }
        }
        p
    }

    /// Appends `other`'s events — column memcpys plus barrier markers
    /// rebased onto this trace's current access count.
    pub(crate) fn append(&mut self, other: &PackedTrace) {
        let base = self.gaps.len() as u64;
        self.extend_accesses(other, 0, other.gaps.len());
        self.barriers.extend(other.barriers.iter().map(|&b| base + b));
    }

    /// Appends accesses `from..to` of `src` (no barriers): the column-memcpy
    /// primitive replay uses instead of per-event decoding.
    pub(crate) fn extend_accesses(&mut self, src: &PackedTrace, from: usize, to: usize) {
        copy_bits(&mut self.writes, self.gaps.len(), &src.writes, from, to - from);
        self.gaps.extend_from_slice(&src.gaps[from..to]);
        self.addrs.extend_from_slice(&src.addrs[from..to]);
        self.mlps.extend_from_slice(&src.mlps[from..to]);
    }

    /// Appends each access to the trace of `out` that `home` picks for its
    /// address, and each barrier to every trace of `out`: the sliced LLC's
    /// demux, read straight from the columns.
    pub(crate) fn demux_into(&self, out: &mut [PackedTrace], home: impl Fn(u64) -> usize) {
        let mut nb = 0;
        for i in 0..=self.gaps.len() {
            while self.barriers.get(nb) == Some(&(i as u64)) {
                for t in out.iter_mut() {
                    t.push_barrier();
                }
                nb += 1;
            }
            if i < self.gaps.len() {
                let addr = self.addrs[i];
                out[home(addr)].push_access(self.gaps[i], addr, self.write_at(i), self.mlps[i]);
            }
        }
    }

    /// Releases spare column capacity, so [`Self::packed_bytes`] counts
    /// only the packed events.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.gaps.shrink_to_fit();
        self.addrs.shrink_to_fit();
        self.mlps.shrink_to_fit();
        self.writes.shrink_to_fit();
        self.barriers.shrink_to_fit();
    }

    /// Appends one access.
    #[inline]
    pub fn push_access(&mut self, gap: u32, addr: u64, write: bool, mlp_tenths: u16) {
        let i = self.gaps.len();
        if i.is_multiple_of(64) {
            self.writes.push(0);
        }
        if write {
            self.writes[i >> 6] |= 1 << (i & 63);
        }
        self.gaps.push(gap);
        self.addrs.push(addr);
        self.mlps.push(mlp_tenths);
    }

    /// Appends a barrier at the current position.
    #[inline]
    pub fn push_barrier(&mut self) {
        self.barriers.push(self.gaps.len() as u64);
    }

    /// Number of packed accesses.
    pub fn accesses(&self) -> usize {
        self.gaps.len()
    }

    /// Number of packed barriers.
    pub fn barriers(&self) -> usize {
        self.barriers.len()
    }

    /// Total packed events (accesses + barriers, excluding the implicit
    /// `Finished`).
    pub fn len(&self) -> usize {
        self.gaps.len() + self.barriers.len()
    }

    /// True when nothing was packed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total instructions the trace retires when replayed.
    pub fn instructions(&self) -> u64 {
        self.gaps.iter().map(|&g| g as u64 + 1).sum()
    }

    /// Heap bytes held by the packed columns (capacity, not length) —
    /// lets harnesses report the footprint advantage over `Vec<ThreadEvent>`.
    pub fn packed_bytes(&self) -> usize {
        self.gaps.capacity() * 4
            + self.addrs.capacity() * 8
            + self.mlps.capacity() * 2
            + self.writes.capacity() * 8
            + self.barriers.capacity() * 8
    }

    /// The barrier marker of index `b`: the accesses delivered before it
    /// fires.
    #[inline]
    pub(crate) fn barrier_at(&self, b: usize) -> usize {
        self.barriers[b] as usize
    }

    /// Whether access `i` is a store.
    #[inline]
    fn write_at(&self, i: usize) -> bool {
        (self.writes[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Decodes access `i` into an event.
    #[inline]
    #[hot_path]
    pub(crate) fn access_at(&self, i: usize) -> ThreadEvent {
        ThreadEvent::Access {
            gap: self.gaps[i],
            addr: self.addrs[i],
            write: self.write_at(i),
            mlp_tenths: self.mlps[i],
        }
    }

    /// Decodes the event at a cursor (`pos` accesses and `nb` barriers
    /// already delivered), or `None` past the last event.
    #[inline]
    pub(crate) fn event_at(&self, pos: usize, nb: usize) -> Option<ThreadEvent> {
        if nb < self.barriers.len() && self.barrier_at(nb) == pos {
            return Some(ThreadEvent::Barrier);
        }
        (pos < self.gaps.len()).then(|| self.access_at(pos))
    }

    /// Unpacks into the equivalent event sequence, without a trailing
    /// `Finished` (tests/interchange; the hot path replays in place via
    /// [`ReplayStream`]).
    pub fn to_events(&self) -> Vec<ThreadEvent> {
        let mut out = Vec::with_capacity(self.len());
        let (mut pos, mut nb) = (0, 0);
        while let Some(e) = self.event_at(pos, nb) {
            match e {
                ThreadEvent::Barrier => nb += 1,
                _ => pos += 1,
            }
            out.push(e);
        }
        out
    }

    /// Encodes the trace in the versioned binary format (see the
    /// [module docs](self)).
    ///
    /// # Examples
    ///
    /// ```
    /// use icp_cmp_sim::{PackedTrace, ThreadEvent};
    ///
    /// let trace = PackedTrace::from_events(&[ThreadEvent::access(3, 0x40), ThreadEvent::Barrier]);
    /// let bytes = trace.to_bytes();
    /// assert_eq!(PackedTrace::from_bytes(&bytes), Ok(trace));
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.gaps.len() * 16 + self.barriers.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        let mut nb = 0;
        for i in 0..=self.gaps.len() {
            // Barriers due before access `i` (or at the end of the trace).
            while self.barriers.get(nb) == Some(&(i as u64)) {
                out.push(TAG_BARRIER);
                nb += 1;
            }
            if i < self.gaps.len() {
                out.push(TAG_ACCESS);
                out.extend_from_slice(&self.gaps[i].to_le_bytes());
                out.extend_from_slice(&self.addrs[i].to_le_bytes());
                out.push(u8::from(self.write_at(i)));
                out.extend_from_slice(&self.mlps[i].to_le_bytes());
            }
        }
        out
    }

    /// Decodes the binary format. Malformed input of any kind — wrong
    /// magic or version, an unknown tag, input shorter or longer than the
    /// declared event count — is an error, never a panic. Events after a
    /// `Finished` tag are validated but not stored.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = Reader { bytes };
        if r.u32()? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let count = r.u64()?;
        // Every event takes at least its tag byte, so a count beyond the
        // remaining input is a truncation, caught before any allocation.
        if count > r.bytes.len() as u64 {
            return Err(TraceError::Truncated);
        }
        let mut trace = PackedTrace::new();
        let mut finished = false;
        for _ in 0..count {
            match r.u8()? {
                TAG_ACCESS => {
                    let gap = r.u32()?;
                    let addr = r.u64()?;
                    let write = r.u8()? & 1 == 1;
                    let mlp_tenths = r.u16()?;
                    if !finished {
                        trace.push_access(gap, addr, write, mlp_tenths);
                    }
                }
                TAG_BARRIER => {
                    if !finished {
                        trace.push_barrier();
                    }
                }
                TAG_FINISHED => finished = true,
                tag => return Err(TraceError::BadTag(tag)),
            }
        }
        if !r.bytes.is_empty() {
            return Err(TraceError::TrailingBytes(r.bytes.len()));
        }
        Ok(trace)
    }

    /// A zero-copy replay stream over a shared packed trace.
    #[deterministic]
    pub fn stream(this: &Arc<Self>) -> ReplayStream {
        ReplayStream::over(Arc::clone(this))
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ThreadEvent> {
        vec![
            ThreadEvent::Access { gap: 3, addr: 0x1234_5678_9abc, write: false, mlp_tenths: 10 },
            ThreadEvent::Access { gap: 0, addr: 64, write: true, mlp_tenths: 60 },
            ThreadEvent::Barrier,
            ThreadEvent::Barrier,
            ThreadEvent::Access { gap: 7, addr: 128, write: false, mlp_tenths: 10 },
            ThreadEvent::Barrier,
        ]
    }

    /// 300 events with barriers on a stride and writes crossing bitmap
    /// words, so chunk caps land on and off barrier and word boundaries.
    fn long_events() -> Vec<ThreadEvent> {
        (0..300)
            .map(|i| {
                if i % 67 == 0 {
                    ThreadEvent::Barrier
                } else {
                    ThreadEvent::Access {
                        gap: (i % 7) as u32,
                        addr: ((i * 31) % 256) * 64,
                        write: i % 4 == 1,
                        mlp_tenths: 10,
                    }
                }
            })
            .collect()
    }

    /// Delivers only through `next_event`, so the simulator and `record`
    /// see the trait's default `fill_packed`.
    struct Scalar(ReplayStream);

    impl AccessStream for Scalar {
        fn next_event(&mut self) -> ThreadEvent {
            self.0.next_event()
        }
    }

    #[test]
    fn roundtrip_preserves_events() {
        let events = sample_events();
        let p = PackedTrace::from_events(&events);
        assert_eq!(p.to_events(), events);
        assert_eq!(p.accesses(), 3);
        assert_eq!(p.barriers(), 3);
        assert_eq!(p.len(), 6);
        assert_eq!(p.instructions(), 4 + 1 + 8);
    }

    #[test]
    fn fill_packed_matches_next_event_at_all_caps() {
        // The columnar replay must deliver the scalar sequence, chunk by
        // chunk, reporting the end exactly once the events run out.
        for events in [sample_events(), long_events()] {
            let p = Arc::new(PackedTrace::from_events(&events));
            for cap in [1usize, 2, 3, 5, 16, 63, 64, 65, 67, 256] {
                let mut packed = PackedTrace::stream(&p);
                let mut scalar = PackedTrace::stream(&p);
                let mut chunk = PackedTrace::new();
                loop {
                    let finished = packed.fill_packed(&mut chunk, cap);
                    for e in chunk.to_events() {
                        assert_eq!(e, scalar.next_event(), "cap {cap}");
                    }
                    if finished {
                        break;
                    }
                    assert_eq!(chunk.len(), cap, "an unfinished chunk must be full");
                }
                assert_eq!(scalar.next_event(), ThreadEvent::Finished, "cap {cap}");
            }
        }
    }

    #[test]
    fn record_stores_the_bounded_prefix() {
        let events = sample_events();
        for max in [0usize, 1, 2, 3, 4, 6, 100] {
            let mut s = ReplayStream::new(events.clone());
            let p = PackedTrace::record(&mut s, max);
            assert_eq!(p.to_events(), events[..max.min(events.len())], "max_events {max}");
        }
    }

    #[test]
    fn shared_streams_are_independent_cursors() {
        let p = Arc::new(PackedTrace::from_events(&sample_events()));
        let mut a = PackedTrace::stream(&p);
        let mut b = PackedTrace::stream(&p);
        assert_eq!(a.next_event(), b.next_event());
        a.next_event();
        // `b` is unaffected by `a`'s progress.
        assert_eq!(b.next_event(), ThreadEvent::Access { gap: 0, addr: 64, write: true, mlp_tenths: 60 });
    }

    #[test]
    fn exhausted_stream_keeps_yielding_finished() {
        let p = Arc::new(PackedTrace::from_events(&[ThreadEvent::access(0, 0)]));
        let mut s = PackedTrace::stream(&p);
        s.next_event();
        assert_eq!(s.next_event(), ThreadEvent::Finished);
        assert_eq!(s.next_event(), ThreadEvent::Finished);
        let mut chunk = PackedTrace::from_events(&[ThreadEvent::Barrier]);
        assert!(s.fill_packed(&mut chunk, 4));
        assert!(chunk.is_empty());
    }

    #[test]
    fn empty_trace_is_finished_immediately() {
        let p = Arc::new(PackedTrace::new());
        assert!(p.is_empty());
        let mut s = PackedTrace::stream(&p);
        assert_eq!(s.next_event(), ThreadEvent::Finished);
    }

    #[test]
    fn leading_and_trailing_barriers_survive() {
        let events = vec![
            ThreadEvent::Barrier,
            ThreadEvent::access(1, 64),
            ThreadEvent::Barrier,
        ];
        let p = PackedTrace::from_events(&events);
        assert_eq!(p.to_events(), events);
    }

    #[test]
    fn write_bitmap_crosses_word_boundaries() {
        // 130 accesses with writes on a stride: exercises bits in three
        // bitmap words.
        let events: Vec<ThreadEvent> = (0..130)
            .map(|i| ThreadEvent::Access {
                gap: i as u32,
                addr: i as u64 * 64,
                write: i % 3 == 0,
                mlp_tenths: 10,
            })
            .collect();
        let p = PackedTrace::from_events(&events);
        assert_eq!(p.to_events(), events);
    }

    /// The encoding the format's previous event-list writer produced for
    /// [`sample_events`], byte for byte: traces written before the packed
    /// writer existed must still load.
    fn sample_bytes() -> Vec<u8> {
        let mut b = MAGIC.to_le_bytes().to_vec();
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&6u64.to_le_bytes());
        for e in sample_events() {
            match e {
                ThreadEvent::Access { gap, addr, write, mlp_tenths } => {
                    b.push(0);
                    b.extend_from_slice(&gap.to_le_bytes());
                    b.extend_from_slice(&addr.to_le_bytes());
                    b.push(u8::from(write));
                    b.extend_from_slice(&mlp_tenths.to_le_bytes());
                }
                ThreadEvent::Barrier => b.push(1),
                ThreadEvent::Finished => b.push(2),
            }
        }
        b
    }

    #[test]
    fn bytes_roundtrip_and_match_the_event_list_encoding() {
        let p = PackedTrace::from_events(&sample_events());
        assert!(p.packed_bytes() > 0);
        assert_eq!(p.to_bytes(), sample_bytes());
        assert_eq!(PackedTrace::from_bytes(&sample_bytes()), Ok(p));
        let empty = PackedTrace::new();
        assert_eq!(PackedTrace::from_bytes(&empty.to_bytes()), Ok(empty));
    }

    #[test]
    fn finished_tag_ends_the_trace() {
        let mut b = MAGIC.to_le_bytes().to_vec();
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&3u64.to_le_bytes());
        b.extend_from_slice(&[1, 2, 1]);
        let p = PackedTrace::from_bytes(&b).unwrap();
        assert_eq!(p.to_events(), vec![ThreadEvent::Barrier]);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(PackedTrace::from_bytes(b"nope"), Err(TraceError::BadMagic));
        assert_eq!(PackedTrace::from_bytes(b"no"), Err(TraceError::Truncated));
        assert_eq!(
            PackedTrace::from_bytes(&0u32.to_le_bytes().repeat(4)),
            Err(TraceError::BadMagic)
        );
        // Valid magic, bad version.
        let mut b = MAGIC.to_le_bytes().to_vec();
        b.extend_from_slice(&99u32.to_le_bytes());
        b.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(PackedTrace::from_bytes(&b), Err(TraceError::BadVersion(99)));
        // Truncated payload.
        let bytes = sample_bytes();
        assert_eq!(PackedTrace::from_bytes(&bytes[..bytes.len() - 1]), Err(TraceError::Truncated));
        // A count far beyond the input fails before allocating.
        let mut b = MAGIC.to_le_bytes().to_vec();
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(PackedTrace::from_bytes(&b), Err(TraceError::Truncated));
        // Bad tag.
        let mut b = MAGIC.to_le_bytes().to_vec();
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&1u64.to_le_bytes());
        b.push(7);
        assert_eq!(PackedTrace::from_bytes(&b), Err(TraceError::BadTag(7)));
        // Bytes after the declared events.
        let mut b = sample_bytes();
        b.extend_from_slice(&[1, 1]);
        assert_eq!(PackedTrace::from_bytes(&b), Err(TraceError::TrailingBytes(2)));
    }

    #[test]
    fn copy_bits_matches_per_bit_copy_at_all_offsets() {
        // A fixed pseudo-random source bitmap, copied at every combination
        // of small src/dst misalignments and lengths crossing word
        // boundaries, must equal the bit-by-bit reference.
        let src: Vec<u64> = (0..4u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) | 1)
            .collect();
        for src_start in [0usize, 1, 7, 63, 64, 65, 100] {
            for dst_start in [0usize, 1, 31, 63, 64, 77] {
                for len in [0usize, 1, 5, 63, 64, 65, 130] {
                    if src_start + len > src.len() * 64 {
                        continue;
                    }
                    // Seed dst with the bits below dst_start set to a known
                    // pattern and everything above zero (the invariant).
                    let mut dst = vec![0u64; dst_start.div_ceil(64)];
                    for b in 0..dst_start {
                        if b % 3 == 0 {
                            dst[b / 64] |= 1 << (b % 64);
                        }
                    }
                    let mut expect = dst.clone();
                    expect.resize((dst_start + len).div_ceil(64).max(expect.len()), 0);
                    for k in 0..len {
                        let bit = (src[(src_start + k) / 64] >> ((src_start + k) % 64)) & 1;
                        expect[(dst_start + k) / 64] |= bit << ((dst_start + k) % 64);
                    }
                    copy_bits(&mut dst, dst_start, &src, src_start, len);
                    assert_eq!(dst, expect, "src_start={src_start} dst_start={dst_start} len={len}");
                }
            }
        }
    }

    #[test]
    fn cleared_trace_refills_from_scratch() {
        let mut chunk = PackedTrace::with_capacity(4);
        chunk.push_barrier();
        chunk.push_access(3, 0x40, true, 10);
        chunk.push_access(0, 0x80, false, 60);
        chunk.push_barrier();
        assert_eq!(chunk.accesses(), 2);
        assert_eq!(chunk.barriers(), 2);
        assert_eq!(chunk.len(), 4);
        assert_eq!(
            chunk.to_events(),
            vec![
                ThreadEvent::Barrier,
                ThreadEvent::Access { gap: 3, addr: 0x40, write: true, mlp_tenths: 10 },
                ThreadEvent::Access { gap: 0, addr: 0x80, write: false, mlp_tenths: 60 },
                ThreadEvent::Barrier,
            ]
        );
        let bytes = chunk.packed_bytes();
        chunk.clear();
        assert!(chunk.is_empty());
        assert_eq!(chunk, PackedTrace::new(), "a cleared trace holds no events");
        assert_eq!(chunk.packed_bytes(), bytes, "clear keeps the allocations");
        chunk.push_access(1, 0xc0, false, 10);
        assert_eq!(chunk.to_events(), vec![ThreadEvent::access(1, 0xc0)]);
    }

    #[test]
    fn append_matches_event_pushes() {
        // Appending chunks of awkward sizes (bitmap tails at non-word
        // boundaries) equals pushing the same events one at a time.
        let events: Vec<ThreadEvent> = (0..300)
            .map(|i| {
                if i % 71 == 0 {
                    ThreadEvent::Barrier
                } else {
                    ThreadEvent::Access {
                        gap: i as u32,
                        addr: i as u64 * 64,
                        write: i % 5 == 0,
                        mlp_tenths: 10,
                    }
                }
            })
            .collect();
        let reference = PackedTrace::from_events(&events);
        let mut assembled = PackedTrace::new();
        let mut rest = &events[..];
        for chunk in [1usize, 3, 64, 65, 90, 200] {
            let (head, tail) = rest.split_at(chunk.min(rest.len()));
            assembled.append(&PackedTrace::from_events(head));
            rest = tail;
        }
        assert_eq!(assembled, reference);
    }

    #[test]
    fn default_fill_packed_loops_over_next_event() {
        // `Scalar` has no override, so this exercises the trait default —
        // the end reported as the return value, an exhausted stream
        // yielding empty finished chunks, and `cap == 0` consuming nothing.
        let events = sample_events();
        let mut s = Scalar(ReplayStream::new(events.clone()));
        let mut chunk = PackedTrace::new();
        assert!(!s.fill_packed(&mut chunk, 4));
        assert_eq!(chunk.to_events(), events[..4]);
        assert!(s.fill_packed(&mut chunk, 100));
        assert_eq!(chunk.to_events(), events[4..]);
        assert!(s.fill_packed(&mut chunk, 100));
        assert!(chunk.is_empty());
        let mut fresh = Scalar(ReplayStream::new(events));
        assert!(!fresh.fill_packed(&mut chunk, 0));
        assert!(chunk.is_empty());
        assert_eq!(fresh.next_event(), sample_events()[0]);
    }

    #[test]
    fn record_is_exact_under_truncation() {
        // The packed record path must stop at exactly `max_events` without
        // drawing surplus events from the stream.
        let events = sample_events();
        let mut s = ReplayStream::new(events.clone());
        let p = PackedTrace::record(&mut s, 3);
        assert_eq!(p.len(), 3);
        assert_eq!(s.next_event(), events[3], "no surplus events consumed");
    }

    #[test]
    fn columnar_replay_simulates_like_scalar_delivery() {
        use crate::config::SystemConfig;
        use crate::simulator::Simulator;

        let events: Vec<ThreadEvent> = (0..500)
            .map(|i| ThreadEvent::Access {
                gap: (i % 5) as u32,
                addr: ((i * 37) % 512) * 64,
                write: i % 3 == 0,
                mlp_tenths: 10,
            })
            .collect();
        let mut cfg = SystemConfig::scaled_down();
        cfg.cores = 1;
        cfg.interval_instructions = 100;
        let run = |stream: Box<dyn AccessStream>| {
            let mut sim = Simulator::new(cfg, vec![stream]);
            while sim.run_interval().is_some() {}
            (sim.wall_cycles(), sim.stats().threads[0])
        };
        let (w1, c1) = run(Box::new(Scalar(ReplayStream::new(events.clone()))));
        let (w2, c2) = run(Box::new(ReplayStream::new(events)));
        assert_eq!(w1, w2);
        assert_eq!(c1, c2);
    }
}
