//! The shared L2 cache with replacement-based way partitioning.
//!
//! This implements the paper's §V hardware mechanism faithfully:
//!
//! * Each set keeps, per thread, a counter of how many of its ways currently
//!   hold lines *brought in* by that thread (the "current assignment"
//!   counters).
//! * A global per-thread "target assignment" gives each thread its way
//!   quota.
//! * On a miss by thread `t`: if `t`'s current count in the set is below its
//!   target, the victim is a line belonging to some *other* thread
//!   (preferring threads over their own quota); otherwise the victim is
//!   `t`'s own LRU line. The cache thus converges *gradually* toward the
//!   target partition — there is no flush or reconfiguration.
//! * Replacement among the candidate lines is least-recently-used, i.e.
//!   "thread-wise LRU" in the paper's words.
//! * Hits are never restricted: any thread may hit on any line, which is
//!   what lets a partitioned shared cache keep the constructive sharing a
//!   private-cache organisation loses (§IV-A2).
//!
//! The cache also classifies inter-thread interactions the way §IV-A2 does:
//! an access is *inter-thread* if the previous access to that line came from
//! a different thread; it is *constructive* if that access is a hit, and an
//! eviction of another thread's line is the *destructive* form.

use crate::config::{CacheConfig, L2Geometry};
use crate::plru;
use crate::stats::InteractionStats;
use crate::ThreadId;
use icp_hot_path::hot_path;

/// Replacement policy underlying the partition enforcement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReplacementKind {
    /// Exact least-recently-used ordering (the paper's assumption).
    #[default]
    TrueLru,
    /// Tree pseudo-LRU — what real hardware implements at 64-way
    /// associativity. Requires a power-of-two way count. The victim walk
    /// is constrained to the partition-legal candidate ways, as in
    /// hardware way-masking (Intel CAT style).
    TreePlru,
}

/// How a new partition takes effect (paper §V discusses both options).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EnforcementKind {
    /// The paper's choice: the partition phases in through replacement
    /// decisions — no flush, no unavailability, gradual convergence.
    #[default]
    Replacement,
    /// The reconfigurable-cache alternative the paper rejects: applying a
    /// partition immediately *invalidates* every line of a thread that
    /// holds more ways in a set than its new quota (oldest first). Instant
    /// convergence, but "considerable loss of data during the
    /// reconfiguration" — kept for the `ablation_enforcement` comparison.
    Reconfigure,
}

/// Whether the L2 enforces way quotas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionMode {
    /// Plain shared cache: global LRU, no eviction control (the paper's
    /// "shared unpartitioned" baseline).
    Unpartitioned,
    /// Way quotas enforced via replacement (the paper's mechanism). The
    /// quota vector lives in [`PartitionedL2::targets`].
    Partitioned,
    /// Set partitioning à la OS page coloring (Lin et al., Zhang et al. in
    /// the paper's related work): each thread's accesses are folded into a
    /// private range of sets sized proportionally to its quota. Perfect
    /// isolation, but shared lines get *replicated* into every accessor's
    /// range — the drawback the paper attributes to private caches.
    SetPartitioned,
}

/// Sentinel tag marking an invalid (never-filled) way. A real tag is a
/// line address (`addr >> line_shift`), which cannot reach `u64::MAX` for
/// any line size > 1 byte, so validity needs no separate bit and the hit
/// scan is a single-comparison sweep over a contiguous tag row.
pub(crate) const INVALID_TAG: u64 = u64::MAX;

/// Entries in the way-hint table (power of two). 64 K one-byte entries
/// keep the table L1-resident next to the hot tag rows.
const WAY_HINT_ENTRIES: usize = 1 << 16;
/// Way-hint value meaning "no prediction". Larger than any way index
/// (ways <= 64), so the bounds check rejects it like any stale hint.
const NO_HINT: u8 = u8::MAX;

/// Slot of `tag` in the way-hint table: a multiplicative (Fibonacci) hash
/// so neighbouring line addresses spread across the table.
#[inline]
#[hot_path]
fn hint_index(tag: u64) -> usize {
    (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - 16)) as usize
}

/// Packed line-metadata flags (see [`PartitionedL2::meta`]): the line is
/// dirty and a victim eviction must write it back.
const META_DIRTY: u16 = 1 << 0;
/// The line was brought in by the prefetcher and not yet demand-referenced.
const META_PREFETCHED: u16 = 1 << 1;
/// High byte of the metadata word: the last-accessor thread id.
const META_ACCESSOR_SHIFT: u32 = 8;

/// SIMD tier for the tag/owner scans, detected once per cache at
/// construction: the `is_x86_feature_detected!` macro's cached-atomic
/// check is cheap but not free on paths taken millions of times per run,
/// so the hot loops branch on a plain field instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SimdTier {
    /// Autovectorised generic code only.
    Portable,
    /// 256-bit scans ([`find_tag_avx2`], [`owner_match_mask_avx2`]).
    Avx2,
    /// 512-bit scans with k-mask classification; requires AVX-512F +
    /// AVX-512BW (and AVX2, so this tier may also call the 256-bit
    /// kernels).
    Avx512,
}

impl SimdTier {
    fn detect() -> SimdTier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                return SimdTier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdTier::Avx2;
            }
        }
        SimdTier::Portable
    }
}

/// Portable tag scan: each 8-way block is reduced to one "any match"
/// test (a branchless OR of equalities the compiler can vectorise) and
/// only a matching block is rescanned for the position.
#[inline]
#[hot_path]
fn find_tag_generic(row: &[u64], tag: u64) -> Option<usize> {
    let mut chunks = row.chunks_exact(8);
    let mut base = 0;
    for chunk in &mut chunks {
        let mut any = false;
        for &t in chunk {
            any |= t == tag;
        }
        if any {
            for (j, &t) in chunk.iter().enumerate() {
                if t == tag {
                    return Some(base + j);
                }
            }
        }
        base += 8;
    }
    for (j, &t) in chunks.remainder().iter().enumerate() {
        if t == tag {
            return Some(base + j);
        }
    }
    None
}

/// First index of `tag` in `row`, dispatched through runtime feature
/// detection. The hot paths go through [`PartitionedL2::find_tag_cached`]
/// (same kernels, tier resolved once at construction); this standalone
/// dispatcher remains as the reference entry point the kernel-equivalence
/// test exercises. (A signature prefilter was tried and measured *slower*
/// end to end: the dependent sig-then-tag load chain costs more than the
/// saved tag-row bytes at these footprints.)
#[cfg(test)]
fn find_tag(row: &[u64], tag: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        // Runtime-dispatched (the detection macro caches in an atomic), so
        // the build stays portable to baseline x86-64. Widest ISA first.
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F presence was just verified.
            #[allow(unsafe_code)]
            return unsafe { find_tag_avx512(row, tag) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified.
            #[allow(unsafe_code)]
            return unsafe { find_tag_avx2(row, tag) };
        }
    }
    find_tag_generic(row, tag)
}

/// AVX-512 `find_tag`: 8 ways per 512-bit compare, with the per-lane result
/// delivered directly as a k-mask — no movemask recomposition. 32 ways per
/// iteration (four compares) share one "any match" branch; mask bits are
/// little-endian in way order, so `trailing_zeros` of the combined mask is
/// the first matching way, identical to `position` semantics.
///
/// # Safety
///
/// The caller must verify at runtime that the CPU supports AVX-512F (e.g.
/// via `is_x86_feature_detected!("avx512f")`) before calling; executing
/// 512-bit instructions elsewhere is undefined behaviour. All memory
/// accesses stay within `row` (loop bounds are checked against `row.len()`
/// and the loads are unaligned), so no other precondition exists.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
unsafe fn find_tag_avx512(row: &[u64], tag: u64) -> Option<usize> {
    use std::arch::x86_64::*;
    let needle = _mm512_set1_epi64(tag as i64);
    let n = row.len();
    let ptr = row.as_ptr();
    let mut w = 0;
    while w + 32 <= n {
        // SAFETY: `w + 32 <= n` bounds every offset; `ptr` derives from a
        // live `&[u64]` so `ptr.add(w + 24)..+8` is in-bounds; loadu permits
        // unaligned reads.
        let (m0, m1, m2, m3) = unsafe {
            (
                _mm512_cmpeq_epu64_mask(_mm512_loadu_si512(ptr.add(w) as *const _), needle),
                _mm512_cmpeq_epu64_mask(_mm512_loadu_si512(ptr.add(w + 8) as *const _), needle),
                _mm512_cmpeq_epu64_mask(_mm512_loadu_si512(ptr.add(w + 16) as *const _), needle),
                _mm512_cmpeq_epu64_mask(_mm512_loadu_si512(ptr.add(w + 24) as *const _), needle),
            )
        };
        let mask = (m0 as u32)
            | ((m1 as u32) << 8)
            | ((m2 as u32) << 16)
            | ((m3 as u32) << 24);
        if mask != 0 {
            return Some(w + mask.trailing_zeros() as usize);
        }
        w += 32;
    }
    while w + 8 <= n {
        // SAFETY: `w + 8 <= n` keeps the 8-lane unaligned load inside `row`.
        let m = unsafe {
            _mm512_cmpeq_epu64_mask(_mm512_loadu_si512(ptr.add(w) as *const _), needle)
        };
        if m != 0 {
            return Some(w + m.trailing_zeros() as usize);
        }
        w += 8;
    }
    while w < n {
        if row[w] == tag {
            return Some(w);
        }
        w += 1;
    }
    None
}

/// AVX2 `find_tag`: 16 ways per iteration — four 4×64-bit equality
/// compares OR-folded into a single `vptest` branch; only a matching
/// block pays for per-lane mask extraction. Lane masks are little-endian
/// in way order, so `trailing_zeros` of the combined mask is exactly the
/// first matching way — the same way `position` would return.
///
/// # Safety
///
/// The caller must verify at runtime that the CPU supports AVX2 (e.g. via
/// `is_x86_feature_detected!("avx2")`) before calling; executing the 256-bit
/// instructions on a non-AVX2 CPU is undefined behaviour. All memory accesses
/// stay within `row` (loop bounds are checked against `row.len()` and the
/// loads are unaligned), so no other precondition exists.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn find_tag_avx2(row: &[u64], tag: u64) -> Option<usize> {
    use std::arch::x86_64::*;
    let needle = _mm256_set1_epi64x(tag as i64);
    let n = row.len();
    let ptr = row.as_ptr();
    let mut w = 0;
    while w + 16 <= n {
        // SAFETY: `w + 16 <= n` bounds every offset; `ptr` derives from a
        // live `&[u64]` so `ptr.add(w + 12)..+4` is in-bounds; loadu permits
        // unaligned reads.
        let (e0, e1, e2, e3) = unsafe {
            (
                _mm256_cmpeq_epi64(_mm256_loadu_si256(ptr.add(w) as *const __m256i), needle),
                _mm256_cmpeq_epi64(_mm256_loadu_si256(ptr.add(w + 4) as *const __m256i), needle),
                _mm256_cmpeq_epi64(_mm256_loadu_si256(ptr.add(w + 8) as *const __m256i), needle),
                _mm256_cmpeq_epi64(_mm256_loadu_si256(ptr.add(w + 12) as *const __m256i), needle),
            )
        };
        let any = _mm256_or_si256(_mm256_or_si256(e0, e1), _mm256_or_si256(e2, e3));
        if _mm256_testz_si256(any, any) == 0 {
            let mask = (_mm256_movemask_pd(_mm256_castsi256_pd(e0)) as u32)
                | ((_mm256_movemask_pd(_mm256_castsi256_pd(e1)) as u32) << 4)
                | ((_mm256_movemask_pd(_mm256_castsi256_pd(e2)) as u32) << 8)
                | ((_mm256_movemask_pd(_mm256_castsi256_pd(e3)) as u32) << 12);
            return Some(w + mask.trailing_zeros() as usize);
        }
        w += 16;
    }
    while w + 4 <= n {
        // SAFETY: `w + 4 <= n` keeps the 4-lane unaligned load inside `row`.
        let eq = unsafe {
            _mm256_cmpeq_epi64(_mm256_loadu_si256(ptr.add(w) as *const __m256i), needle)
        };
        let mask = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
        if mask != 0 {
            return Some(w + mask.trailing_zeros() as usize);
        }
        w += 4;
    }
    while w < n {
        if row[w] == tag {
            return Some(w);
        }
        w += 1;
    }
    None
}

/// Bitmask (bit `i` = `owners[i] == th`) over the first 32 entries of an
/// owner-byte row: one vector compare instead of 32 scalar ones. Feeds
/// the victim sweep, which then loads LRU clocks only for matching ways.
///
/// # Safety
///
/// The caller must verify AVX2 support at runtime before calling, and must
/// pass `owners` with `owners.len() >= 32`: the single unaligned 256-bit
/// load reads exactly 32 bytes from the start of the slice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn owner_match_mask_avx2(owners: &[u8], th: u8) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(owners.len() >= 32);
    // SAFETY: caller guarantees at least 32 bytes; unaligned load.
    let v = unsafe { _mm256_loadu_si256(owners.as_ptr() as *const __m256i) };
    let eq = _mm256_cmpeq_epi8(v, _mm256_set1_epi8(th as i8));
    _mm256_movemask_epi8(eq) as u32
}

/// Bitmask (bit `i` = `owners[i] == th`) over a full 64-entry owner row:
/// one 512-bit byte compare delivers the whole row as a `__mmask64`.
///
/// # Safety
///
/// The caller must verify at runtime that the CPU supports AVX-512F and
/// AVX-512BW before calling, and must pass `owners.len() == 64`: the single
/// unaligned load reads exactly 64 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[allow(unsafe_code)]
unsafe fn owner_match_mask_avx512(owners: &[u8], th: u8) -> u64 {
    use std::arch::x86_64::*;
    debug_assert_eq!(owners.len(), 64);
    // SAFETY: caller guarantees exactly 64 owner bytes; unaligned load.
    let v = unsafe { _mm512_loadu_si512(owners.as_ptr() as *const _) };
    _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8(th as i8))
}

/// First index of the minimum LRU clock among the ways selected by `mask`
/// (bit `i` = way `i` is a candidate), over a full 64-way row. Candidate
/// lanes are min-reduced with non-candidates blended to `u32::MAX`; a
/// masked equality rescan recovers the way index. LRU clocks are globally
/// unique (every access writes a fresh clock, and the wrap-time rebase
/// preserves distinctness), so exactly one candidate carries the minimum
/// and the rescan cannot be ambiguous — the index matches what a
/// first-minimum scalar sweep would return. Returns `None` for an empty
/// mask.
///
/// # Safety
///
/// The caller must verify at runtime that the CPU supports AVX-512F before
/// calling, and must pass `lrus.len() == 64`: each pass reads exactly four
/// unaligned 16-lane vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
unsafe fn masked_lru_argmin_avx512(lrus: &[u32], mask: u64) -> Option<usize> {
    use std::arch::x86_64::*;
    debug_assert_eq!(lrus.len(), 64);
    if mask == 0 {
        return None;
    }
    let sentinel = _mm512_set1_epi32(-1); // u32::MAX in every lane
    let lp = lrus.as_ptr();
    let mut best = sentinel;
    for i in 0..4 {
        // SAFETY: `lrus.len() == 64` makes `lp.add(i * 16)..+16` in-bounds
        // for every `i < 4`; unaligned load.
        let v = unsafe { _mm512_loadu_si512(lp.add(i * 16) as *const _) };
        let m16 = ((mask >> (i * 16)) & 0xFFFF) as __mmask16;
        // Non-candidate lanes take the sentinel; valid clocks never reach it
        // (the clock rebases at `u32::MAX`).
        best = _mm512_min_epu32(best, _mm512_mask_mov_epi32(sentinel, m16, v));
    }
    let min = _mm512_reduce_min_epu32(best);
    let needle = _mm512_set1_epi32(min as i32);
    for i in 0..4 {
        // SAFETY: same bounds as the first pass; the row is hot in L1 now.
        let v = unsafe { _mm512_loadu_si512(lp.add(i * 16) as *const _) };
        let m16 = ((mask >> (i * 16)) & 0xFFFF) as __mmask16;
        let eq = _mm512_mask_cmpeq_epu32_mask(m16, v, needle);
        if eq != 0 {
            return Some(i * 16 + eq.trailing_zeros() as usize);
        }
    }
    // Unreachable: a non-empty mask guarantees some candidate lane equals
    // the reduced minimum. Kept as a defensive fallback for the caller.
    None
}

/// Outcome of one L2 access, consumed by the simulator for timing and
/// statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Hit on a line whose previous accessor was a different thread
    /// (constructive inter-thread interaction).
    pub inter_thread_hit: bool,
    /// On a miss that evicted a valid line of a *different* thread, the
    /// owner of the evicted line (destructive inter-thread interaction).
    pub evicted_other: Option<ThreadId>,
    /// Line (base byte address) of any valid line evicted by this access —
    /// used by an inclusive hierarchy to back-invalidate the L1s.
    pub evicted_line: Option<u64>,
    /// The evicted line was dirty and was written back to memory.
    pub wrote_back: bool,
    /// The hit consumed a prefetched line (first demand reference after a
    /// prefetch fill — a *useful* prefetch).
    pub prefetched_hit: bool,
}

/// A shared, way-partitionable, set-associative L2 cache.
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::{CacheConfig, PartitionedL2};
///
/// // A 4-thread shared cache; give thread 0 half the ways.
/// let mut l2 = PartitionedL2::new(CacheConfig::new(64 * 1024, 16, 64), 4);
/// l2.set_targets(&[8, 4, 2, 2]);
/// let miss = l2.access(0, 0x1000);
/// assert!(!miss.hit); // cold
/// assert!(l2.access(0, 0x1000).hit);
/// assert!(l2.access(3, 0x1000).hit); // other threads may hit thread 0's line
/// ```
#[derive(Clone, Debug)]
pub struct PartitionedL2 {
    cfg: CacheConfig,
    /// Shift/mask address math precomputed from `cfg`.
    pub(crate) geom: L2Geometry,
    pub(crate) threads: usize,
    pub(crate) mode: PartitionMode,
    pub(crate) replacement: ReplacementKind,
    enforcement: EnforcementKind,
    /// One PLRU tree (u64 of node bits) per set; unused under `TrueLru`.
    plru_bits: Vec<u64>,
    // Per-line metadata in struct-of-arrays form, `sets * ways` row-major by
    // set: the hit path touches only the 8-byte tag row of one set (a
    // branch-light `&[u64]` scan) instead of striding through 32-byte line
    // records, and the miss path reads each parallel array on demand.
    /// Line tags; [`INVALID_TAG`] marks an empty way.
    pub(crate) tags: Vec<u64>,
    /// LRU clocks (valid ways only). `u32` halves the victim sweep's
    /// memory traffic versus `u64`; [`Self::bump_clock`] rank-compresses
    /// every stored clock if the counter ever reaches `u32::MAX`, so
    /// ordering (and therefore every replacement decision) is identical to
    /// an unbounded clock.
    pub(crate) lrus: Vec<u32>,
    /// Allocating thread of each line; partition bookkeeping follows the
    /// allocator, not later sharers.
    pub(crate) owners: Vec<u8>,
    /// Packed per-line metadata: low byte holds the dirty
    /// ([`META_DIRTY`]) and prefetched ([`META_PREFETCHED`]) flags, high
    /// byte the thread that last touched the line (drives interaction
    /// classification). One `u16` instead of three parallel arrays keeps
    /// the whole record on the cache line the hit path already fetches —
    /// the line metadata working set is far larger than the host caches,
    /// so every separate array is an extra random-access miss.
    pub(crate) meta: Vec<u16>,
    /// Per-set per-thread current way counts: `sets * threads`, row-major by
    /// set. These are the §V "current assignment" counters.
    pub(crate) owned: Vec<u16>,
    /// Per-thread target way quotas (the §V "target assignment" counters);
    /// meaningful only in `Partitioned` mode. Always sums to `cfg.ways`.
    pub(crate) targets: Vec<u32>,
    /// Sanitizer shadow state: per `(set, thread)` grandfathered quota
    /// excess — the amount by which `owned` may legally exceed `targets`
    /// (free-way fills and pre-repartition residue). Maintained by the
    /// `sanitize` module; absent from release builds.
    #[cfg(feature = "sanitize")]
    pub(crate) quota_baseline: Vec<u16>,
    /// Per-thread (start, len) set ranges; meaningful only in
    /// `SetPartitioned` mode.
    set_ranges: Vec<(u32, u32)>,
    pub(crate) clock: u32,
    hits: Vec<u64>,
    misses: Vec<u64>,
    /// Dirty evictions written back to memory, attributed to the line's
    /// owner.
    writebacks: Vec<u64>,
    interactions: InteractionStats,
    /// SIMD tier detected at construction (see [`SimdTier`]).
    simd: SimdTier,
    /// Way predictor: last known way of a line, indexed by [`hint_index`]
    /// of its tag. Purely advisory — every prediction is verified with one
    /// tag load before use and falls back to the full row scan, and a tag
    /// occurs at most once per set (fills only follow failed scans), so a
    /// verified hint is exactly what the scan would return. Typical L2
    /// reference streams re-touch recently installed lines (every L1
    /// writeback does), making this a 1-load fast path past the 64-way
    /// sweep.
    way_hints: Vec<u8>,
}

impl PartitionedL2 {
    /// Creates an empty shared L2 for `threads` threads, initially
    /// unpartitioned.
    ///
    /// # Panics
    /// Panics if `threads` is 0, exceeds 256 (owner stored in a `u8`), or
    /// exceeds the way count.
    pub fn new(cfg: CacheConfig, threads: usize) -> Self {
        assert!(threads > 0 && threads <= 256, "1..=256 threads supported");
        assert!(
            cfg.ways as usize >= threads,
            "need at least one way per thread"
        );
        let n = (cfg.num_sets() * cfg.ways as u64) as usize;
        let sets = cfg.num_sets() as usize;
        PartitionedL2 {
            cfg,
            geom: cfg.geometry(),
            threads,
            mode: PartitionMode::Unpartitioned,
            replacement: ReplacementKind::TrueLru,
            enforcement: EnforcementKind::Replacement,
            plru_bits: vec![0; sets],
            tags: vec![INVALID_TAG; n],
            lrus: vec![0; n],
            owners: vec![0; n],
            meta: vec![0; n],
            owned: vec![0; sets * threads],
            targets: equal_split(cfg.ways, threads),
            #[cfg(feature = "sanitize")]
            quota_baseline: vec![0; sets * threads],
            set_ranges: Vec::new(),
            clock: 0,
            hits: vec![0; threads],
            misses: vec![0; threads],
            writebacks: vec![0; threads],
            interactions: InteractionStats::default(),
            simd: SimdTier::detect(),
            way_hints: vec![NO_HINT; WAY_HINT_ENTRIES],
        }
    }

    /// [`find_tag`] with the dispatch branch resolved from the cached
    /// [`SimdTier`] instead of the detection macro's atomic check.
    #[inline]
    #[hot_path]
    fn find_tag_cached(&self, row: &[u64], tag: u64) -> Option<usize> {
        #[cfg(target_arch = "x86_64")]
        {
            if self.simd == SimdTier::Avx512 {
                // SAFETY: `simd` holds `Avx512` only when runtime detection
                // saw AVX-512F at construction.
                #[allow(unsafe_code)]
                return unsafe { find_tag_avx512(row, tag) };
            }
            if self.simd == SimdTier::Avx2 {
                // SAFETY: `simd` holds `Avx2` only when runtime detection
                // saw AVX2 at construction.
                #[allow(unsafe_code)]
                return unsafe { find_tag_avx2(row, tag) };
            }
        }
        find_tag_generic(row, tag)
    }

    /// Selects the replacement policy (builder style).
    ///
    /// # Panics
    /// Panics if `TreePlru` is requested with a non-power-of-two way count
    /// or more than 64 ways.
    pub fn with_replacement(mut self, kind: ReplacementKind) -> Self {
        self.set_replacement(kind);
        self
    }

    /// Switches the replacement policy in place (PLRU state starts cold).
    ///
    /// # Panics
    /// Same conditions as [`Self::with_replacement`].
    pub fn set_replacement(&mut self, kind: ReplacementKind) {
        if kind == ReplacementKind::TreePlru {
            assert!(
                self.cfg.ways.is_power_of_two() && self.cfg.ways <= 64,
                "tree PLRU needs a power-of-two way count <= 64"
            );
        }
        self.replacement = kind;
    }

    /// The replacement policy in use.
    pub fn replacement(&self) -> ReplacementKind {
        self.replacement
    }

    /// Selects how new partitions take effect (builder style).
    pub fn with_enforcement(mut self, kind: EnforcementKind) -> Self {
        self.enforcement = kind;
        self
    }

    /// Switches the enforcement mode in place.
    pub fn set_enforcement(&mut self, kind: EnforcementKind) {
        self.enforcement = kind;
    }

    /// The enforcement mode in use.
    pub fn enforcement(&self) -> EnforcementKind {
        self.enforcement
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of threads sharing the cache.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current partition mode.
    pub fn mode(&self) -> PartitionMode {
        self.mode
    }

    /// Switches to plain shared (global LRU) operation.
    pub fn set_unpartitioned(&mut self) {
        self.mode = PartitionMode::Unpartitioned;
    }

    /// Sets the per-thread way quotas and enables partitioned operation.
    ///
    /// The cache is *not* flushed: per §V the partition takes effect
    /// gradually through replacement decisions.
    ///
    /// # Panics
    /// Panics if `targets.len() != threads` or the quotas don't sum to the
    /// way count.
    pub fn set_targets(&mut self, targets: &[u32]) {
        assert_eq!(targets.len(), self.threads, "one quota per thread");
        let sum: u32 = targets.iter().sum();
        assert_eq!(
            sum, self.cfg.ways,
            "quotas must sum to the way count ({} != {})",
            sum, self.cfg.ways
        );
        self.targets.clear();
        self.targets.extend_from_slice(targets);
        self.mode = PartitionMode::Partitioned;
        if self.enforcement == EnforcementKind::Reconfigure {
            self.reconfigure_to_targets();
        }
        #[cfg(feature = "sanitize")]
        self.sanitize_rebaseline();
    }

    /// Instantly trims every thread to its quota in every set by
    /// invalidating its oldest excess lines (the reconfigurable-cache data
    /// loss §V warns about). Dirty victims count as writebacks.
    fn reconfigure_to_targets(&mut self) {
        let ways = self.geom.ways;
        for set in 0..self.geom.num_sets() as usize {
            for t in 0..self.threads {
                let quota = self.targets[t];
                loop {
                    let owned = self.owned[set * self.threads + t] as u32;
                    if owned <= quota {
                        break;
                    }
                    // Invalidate this thread's LRU line in the set.
                    let base = set * ways;
                    let victim = (0..ways)
                        .filter(|&w| {
                            self.tags[base + w] != INVALID_TAG
                                && self.owners[base + w] as usize == t
                        })
                        .min_by_key(|&w| self.lrus[base + w])
                        .expect("owned counter says lines exist");
                    if self.meta[base + victim] & META_DIRTY != 0 {
                        self.writebacks[t] += 1;
                    }
                    self.tags[base + victim] = INVALID_TAG;
                    self.meta[base + victim] = 0;
                    self.owned[set * self.threads + t] -= 1;
                }
            }
        }
    }

    /// The current per-thread way quotas.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Enables set partitioning (page-coloring style): thread `t` gets a
    /// contiguous range of sets proportional to `quotas[t]` (same units as
    /// way quotas, so policies are interchangeable) and all of its accesses
    /// fold into that range. Contents are not flushed; stale lines in
    /// foreign ranges age out naturally (they can no longer be referenced).
    ///
    /// # Panics
    /// Same contract as [`Self::set_targets`]; additionally every thread
    /// must receive at least one set.
    pub fn set_set_partition(&mut self, quotas: &[u32]) {
        assert_eq!(quotas.len(), self.threads, "one quota per thread");
        let sum: u32 = quotas.iter().sum();
        assert_eq!(
            sum, self.cfg.ways,
            "quotas must sum to the way count ({} != {})",
            sum, self.cfg.ways
        );
        let sets = self.cfg.num_sets() as u32;
        assert!(
            sets >= self.threads as u32,
            "need at least one set per thread"
        );
        // Largest-remainder apportionment of sets, 1-set floor.
        let spare = sets - self.threads as u32;
        let shares: Vec<f64> = quotas
            .iter()
            .map(|&q| q as f64 / sum as f64 * spare as f64)
            .collect();
        let mut lens: Vec<u32> = shares.iter().map(|s| 1 + s.floor() as u32).collect();
        let mut leftover = sets - lens.iter().sum::<u32>();
        let mut order: Vec<usize> = (0..self.threads).collect();
        order.sort_by(|&a, &b| {
            let ra = shares[a] - shares[a].floor();
            let rb = shares[b] - shares[b].floor();
            rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
        });
        let mut i = 0;
        while leftover > 0 {
            lens[order[i % self.threads]] += 1;
            leftover -= 1;
            i += 1;
        }
        let mut start = 0u32;
        self.set_ranges = lens
            .iter()
            .map(|&len| {
                let r = (start, len);
                start += len;
                r
            })
            .collect();
        self.targets.clear();
        self.targets.extend_from_slice(quotas);
        self.mode = PartitionMode::SetPartitioned;
    }

    /// The per-thread set ranges (empty unless set-partitioned).
    pub fn set_ranges(&self) -> &[(u32, u32)] {
        &self.set_ranges
    }

    /// Performs a read access by `thread` to `addr`.
    pub fn access(&mut self, thread: ThreadId, addr: u64) -> L2AccessResult {
        self.access_rw(thread, addr, false)
    }

    /// Performs a read or write access by `thread` to `addr`
    /// (write-allocate, write-back).
    #[hot_path]
    pub fn access_rw(&mut self, thread: ThreadId, addr: u64, write: bool) -> L2AccessResult {
        debug_assert!(thread < self.threads);
        self.bump_clock();
        let tag = self.geom.tag(addr);
        debug_assert_ne!(tag, INVALID_TAG, "address too close to u64::MAX");
        let set = self.map_set(thread, addr);
        let ways = self.geom.ways;
        let base = set * ways;
        self.interactions.total_accesses += 1;

        // Hit path: any thread can hit on any line. The way predictor
        // short-circuits the row sweep with a single verified tag load;
        // on a stale or cold hint the scan runs as before (invalid ways
        // hold INVALID_TAG and can never match) and refreshes the hint.
        let h = hint_index(tag);
        let hinted = self.way_hints[h] as usize;
        let hit_way = if hinted < ways && self.tags[base + hinted] == tag {
            Some(hinted)
        } else {
            let found = self.find_tag_cached(&self.tags[base..base + ways], tag);
            if let Some(w) = found {
                self.way_hints[h] = w as u8;
            }
            found
        };
        if let Some(w) = hit_way {
            let i = base + w;
            self.lrus[i] = self.clock;
            if self.replacement == ReplacementKind::TreePlru {
                plru::touch(&mut self.plru_bits[set], ways as u32, w as u32);
            }
            // One packed metadata word covers dirty, prefetched and
            // last-accessor; the store is conditional so the common
            // same-thread clean-read hit leaves the word unwritten.
            let m = self.meta[i];
            let inter = (m >> META_ACCESSOR_SHIFT) as usize != thread;
            if inter {
                self.interactions.inter_thread_hits += 1;
            }
            let prefetched_hit = m & META_PREFETCHED != 0;
            let mut nm = m & !META_PREFETCHED;
            if write {
                nm |= META_DIRTY;
            }
            if inter {
                nm = (nm & 0x00FF) | ((thread as u16) << META_ACCESSOR_SHIFT);
            }
            if nm != m {
                self.meta[i] = nm;
            }
            self.hits[thread] += 1;
            return L2AccessResult {
                hit: true,
                inter_thread_hit: inter,
                evicted_other: None,
                evicted_line: None,
                wrote_back: false,
                prefetched_hit,
            };
        }

        // Miss path.
        self.misses[thread] += 1;
        let victim = self.choose_victim(set, thread);
        #[cfg(feature = "sanitize")]
        self.sanitize_victim_check(set, victim, thread);
        let (evicted_other, evicted_line, wrote_back) =
            self.evict_for_fill(set, victim, thread);
        let i = base + victim;
        self.tags[i] = tag;
        self.way_hints[h] = victim as u8;
        self.lrus[i] = self.clock;
        self.meta[i] =
            ((thread as u16) << META_ACCESSOR_SHIFT) | if write { META_DIRTY } else { 0 };
        self.owners[i] = thread as u8;
        if self.replacement == ReplacementKind::TreePlru {
            plru::touch(&mut self.plru_bits[set], ways as u32, victim as u32);
        }
        self.owned[set * self.threads + thread] += 1;
        #[cfg(feature = "sanitize")]
        self.sanitize_note_fill(set, thread, evicted_line.is_none());
        L2AccessResult {
            hit: false,
            inter_thread_hit: false,
            evicted_other,
            evicted_line,
            wrote_back,
            prefetched_hit: false,
        }
    }

    /// Maps `addr` to the set `thread` uses: the natural index, or folded
    /// into the thread's private range under set partitioning.
    #[inline]
    #[hot_path]
    fn map_set(&self, thread: ThreadId, addr: u64) -> usize {
        match self.mode {
            PartitionMode::SetPartitioned => {
                // Fold the natural set index into the accessor's range:
                // the page-coloring constraint on physical placement.
                let (start, len) = self.set_ranges[thread];
                (start + (self.geom.set_index(addr) as u32 % len)) as usize
            }
            _ => self.geom.set_index(addr) as usize,
        }
    }

    /// Victim bookkeeping shared by demand fills and prefetch fills:
    /// decrements the previous owner's counter, accounts the writeback, and
    /// classifies the eviction. Returns
    /// `(evicted_other, evicted_line, wrote_back)`.
    #[inline]
    #[hot_path]
    fn evict_for_fill(
        &mut self,
        set: usize,
        victim: usize,
        thread: ThreadId,
    ) -> (Option<ThreadId>, Option<u64>, bool) {
        let i = set * self.geom.ways + victim;
        if self.tags[i] == INVALID_TAG {
            return (None, None, false);
        }
        let prev_owner = self.owners[i] as usize;
        self.owned[set * self.threads + prev_owner] -= 1;
        #[cfg(feature = "sanitize")]
        self.sanitize_note_evict(set, prev_owner, thread);
        let was_dirty = self.meta[i] & META_DIRTY != 0;
        if was_dirty {
            self.writebacks[prev_owner] += 1;
        }
        let inter = if prev_owner != thread {
            self.interactions.inter_thread_evictions += 1;
            Some(prev_owner)
        } else {
            None
        };
        (inter, Some(self.geom.tag_to_addr(self.tags[i])), was_dirty)
    }

    /// Installs `addr`'s line on behalf of `thread`'s prefetcher. Does
    /// nothing if the line is already resident. The fill follows the same
    /// victim-selection rules as a demand miss (prefetches respect the
    /// partition and can pollute exactly like demand fills), but does not
    /// touch the demand hit/miss or interaction counters. Returns the
    /// evicted line (for inclusive back-invalidation) and whether the fill
    /// displaced another thread's line.
    #[hot_path]
    pub fn prefetch_fill(&mut self, thread: ThreadId, addr: u64) -> L2AccessResult {
        debug_assert!(thread < self.threads);
        let tag = self.geom.tag(addr);
        debug_assert_ne!(tag, INVALID_TAG, "address too close to u64::MAX");
        let set = self.map_set(thread, addr);
        let ways = self.geom.ways;
        let base = set * ways;
        // Presence probe with the same verified way-hint fast path as
        // `access_rw` (residency is all that matters here).
        let h = hint_index(tag);
        let hinted = self.way_hints[h] as usize;
        let resident = (hinted < ways && self.tags[base + hinted] == tag)
            || match self.find_tag_cached(&self.tags[base..base + ways], tag) {
                Some(w) => {
                    self.way_hints[h] = w as u8;
                    true
                }
                None => false,
            };
        if resident {
            return L2AccessResult {
                hit: true,
                inter_thread_hit: false,
                evicted_other: None,
                evicted_line: None,
                wrote_back: false,
                prefetched_hit: false,
            };
        }
        self.bump_clock();
        let victim = self.choose_victim(set, thread);
        #[cfg(feature = "sanitize")]
        self.sanitize_victim_check(set, victim, thread);
        let (evicted_other, evicted_line, wrote_back) =
            self.evict_for_fill(set, victim, thread);
        // Prefetched lines are inserted at LRU-adjacent priority (half a
        // clock behind MRU would need fractions; inserting with the current
        // clock is the common simplification).
        let i = base + victim;
        self.tags[i] = tag;
        self.way_hints[h] = victim as u8;
        self.lrus[i] = self.clock;
        self.meta[i] = ((thread as u16) << META_ACCESSOR_SHIFT) | META_PREFETCHED;
        self.owners[i] = thread as u8;
        if self.replacement == ReplacementKind::TreePlru {
            plru::touch(&mut self.plru_bits[set], ways as u32, victim as u32);
        }
        self.owned[set * self.threads + thread] += 1;
        #[cfg(feature = "sanitize")]
        self.sanitize_note_fill(set, thread, evicted_line.is_none());
        L2AccessResult {
            hit: false,
            inter_thread_hit: false,
            evicted_other,
            evicted_line,
            wrote_back,
            prefetched_hit: false,
        }
    }

    /// Advances the LRU clock. The clock and every stored LRU stamp are
    /// `u32` (half the victim sweep's memory traffic); if the counter ever
    /// reaches the last assignable value the stored clocks are
    /// rank-compressed to `1..=k` in order — distinctness and relative
    /// order are preserved exactly, so replacement decisions match an
    /// unbounded clock bit for bit. `u32::MAX` itself is never assigned:
    /// it is the sweep sentinel for "not a candidate".
    #[inline]
    #[hot_path]
    fn bump_clock(&mut self) {
        if self.clock >= u32::MAX - 1 {
            self.rebase_lru_clocks();
        }
        self.clock += 1;
    }

    /// Rank-compresses all stored LRU clocks to `1..=k` preserving order
    /// (cold: runs at most once per ~4 billion accesses). Zero entries
    /// (never-used ways) stay zero; nonzero stamps are globally distinct —
    /// every one came from a distinct clock value — so ranking keeps them
    /// distinct.
    #[cold]
    fn rebase_lru_clocks(&mut self) {
        let mut stamps: Vec<u32> = self.lrus.iter().copied().filter(|&l| l != 0).collect();
        stamps.sort_unstable();
        for l in self.lrus.iter_mut() {
            if *l != 0 {
                // Distinct stamps make the rank unambiguous; the stamp is
                // present by construction, so `partition_point` finds it.
                *l = stamps.partition_point(|&x| x < *l) as u32 + 1;
            }
        }
        self.clock = stamps.len() as u32;
    }

    /// Picks a victim way in `set` for a miss by `thread`, per §V.
    #[hot_path]
    fn choose_victim(&self, set: usize, thread: ThreadId) -> usize {
        let ways = self.geom.ways;
        let base = set * ways;

        // The per-set assignment counters double as an occupancy count
        // (every valid line has exactly one owner — `check_invariants`
        // holds us to it), so a full set skips the free-way scan entirely.
        // Steady state after warmup is "always full": the scan below runs
        // only while the set is still filling.
        let owned_row = &self.owned[set * self.threads..(set + 1) * self.threads];
        let valid: usize = owned_row.iter().map(|&c| c as usize).sum();
        if valid < ways {
            return self.find_tag_cached(&self.tags[base..base + ways], INVALID_TAG)
                .expect("assignment counters say a way is free");
        }

        if self.replacement == ReplacementKind::TreePlru {
            return self.choose_victim_masked(set, thread, owned_row);
        }

        #[cfg(target_arch = "x86_64")]
        if ways == 64 && self.simd == SimdTier::Avx512 {
            // SAFETY: `simd` holds `Avx512` only when runtime detection saw
            // AVX-512F + AVX-512BW at construction, and `ways == 64` gives
            // the exact row lengths the kernels require.
            #[allow(unsafe_code)]
            return unsafe {
                self.choose_victim_avx512(set, thread, owned_row, &self.lrus[base..base + ways])
            };
        }

        // True LRU over a full set: one fused sweep computes every
        // candidate class the §V policy can ask for (own LRU, other-thread
        // LRU, over-quota-owner LRU), instead of one predicate scan per
        // class. LRU clocks are globally unique (each access writes a
        // fresh clock), so taking each class's first minimum here selects
        // exactly the way a dedicated scan would.
        let lrus = &self.lrus[base..base + ways];
        if self.mode != PartitionMode::Partitioned {
            // Unpartitioned: global LRU. Set-partitioned: the range is
            // exclusively the accessor's, so plain LRU within the set is
            // already isolation.
            let mut best_w = 0;
            let mut best_lru = lrus[0];
            for (w, &lru) in lrus.iter().enumerate().skip(1) {
                if lru < best_lru {
                    best_lru = lru;
                    best_w = w;
                }
            }
            return best_w;
        }
        let owners = &self.owners[base..base + ways];
        if (owned_row[thread] as u32) >= self.targets[thread] {
            // At/over quota — the steady state once quotas have phased in:
            // evict our own LRU line ("thread-wise LRU"). With AVX2 the
            // owner row collapses to a match bitmask (32 ways per compare)
            // and only the matching ways' LRU clocks are loaded — a
            // thread's quota is typically a fraction of the set. Bits are
            // consumed lowest-first, preserving way order.
            let th = thread as u8;
            let mut best_w = usize::MAX;
            let mut best_lru = u32::MAX;
            let mut w = 0;
            #[cfg(target_arch = "x86_64")]
            if self.simd != SimdTier::Portable {
                while w + 32 <= ways {
                    // SAFETY: any non-portable tier implies AVX2 was
                    // detected at construction; slice has >= 32 bytes.
                    #[allow(unsafe_code)]
                    let mut bits = unsafe { owner_match_mask_avx2(&owners[w..], th) };
                    while bits != 0 {
                        let j = w + bits.trailing_zeros() as usize;
                        if lrus[j] < best_lru {
                            best_lru = lrus[j];
                            best_w = j;
                        }
                        bits &= bits - 1;
                    }
                    w += 32;
                }
            }
            // Portable path and tail: foreign ways map to a `u32::MAX` key
            // so the sweep stays branchless (valid LRU clocks never reach
            // the sentinel, so a foreign way can't win).
            while w < ways {
                let key = if owners[w] == th { lrus[w] } else { u32::MAX };
                if key < best_lru {
                    best_lru = key;
                    best_w = w;
                }
                w += 1;
            }
            if best_w != usize::MAX {
                return best_w;
            }
            // We own nothing in this set yet: steal the set-global victim
            // — a thread must always be able to make progress.
            let mut best_w = 0;
            let mut best_lru = lrus[0];
            for (w, &lru) in lrus.iter().enumerate().skip(1) {
                if lru < best_lru {
                    best_lru = lru;
                    best_w = w;
                }
            }
            return best_w;
        }
        // Under quota (a transient while a repartition phases in): take a
        // way from another thread. Prefer victims whose owners are over
        // their own quota so the set converges to the target; fall back to
        // any other thread's LRU line; if every line is ours already
        // (inconsistent quotas), self-evict.
        let mut best_over = (u32::MAX, usize::MAX);
        let mut best_other = (u32::MAX, usize::MAX);
        let mut best_own = (u32::MAX, usize::MAX);
        for w in 0..ways {
            let lru = lrus[w];
            let o = owners[w] as usize;
            if o == thread {
                if lru < best_own.0 {
                    best_own = (lru, w);
                }
            } else {
                if lru < best_other.0 {
                    best_other = (lru, w);
                }
                if lru < best_over.0 && (owned_row[o] as u32) > self.targets[o] {
                    best_over = (lru, w);
                }
            }
        }
        if best_over.1 != usize::MAX {
            return best_over.1;
        }
        if best_other.1 != usize::MAX {
            return best_other.1;
        }
        debug_assert_ne!(best_own.1, usize::MAX, "set is full");
        best_own.1
    }

    /// The full-set true-LRU §V victim policy for 64-way sets on AVX-512:
    /// every candidate class (own lines, other threads' lines, over-quota
    /// owners' lines) is built as a `__mmask64` — one byte-compare per
    /// involved thread — and fed to the masked LRU argmin, replacing the
    /// scalar per-way classification sweeps. Globally-unique LRU clocks
    /// make this pick exactly the way the scalar path would.
    ///
    /// # Safety
    ///
    /// The caller must verify at runtime that the CPU supports AVX-512F and
    /// AVX-512BW, and must pass the set's full LRU row with
    /// `self.geom.ways == 64` (so owner rows are exactly 64 bytes). The set
    /// must be full (every way valid), which the occupancy check in
    /// [`Self::choose_victim`] establishes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    #[allow(unsafe_code)]
    unsafe fn choose_victim_avx512(
        &self,
        set: usize,
        thread: ThreadId,
        owned_row: &[u16],
        lrus: &[u32],
    ) -> usize {
        let base = set * self.geom.ways;
        let owners = &self.owners[base..base + 64];
        if self.mode != PartitionMode::Partitioned {
            // Unpartitioned: global LRU. Set-partitioned: the range is
            // exclusively the accessor's, so plain LRU within the set is
            // already isolation.
            // SAFETY: preconditions forwarded from the caller.
            return unsafe { masked_lru_argmin_avx512(lrus, u64::MAX) }.unwrap_or(0);
        }
        // SAFETY: preconditions forwarded from the caller (64-byte row).
        let own = unsafe { owner_match_mask_avx512(owners, thread as u8) };
        if (owned_row[thread] as u32) >= self.targets[thread] {
            // At/over quota: evict our own LRU line ("thread-wise LRU");
            // owning nothing in this set, steal the set-global victim.
            // SAFETY: preconditions forwarded from the caller.
            if let Some(w) = unsafe { masked_lru_argmin_avx512(lrus, own) } {
                return w;
            }
            // SAFETY: preconditions forwarded from the caller.
            return unsafe { masked_lru_argmin_avx512(lrus, u64::MAX) }.unwrap_or(0);
        }
        // Under quota: prefer victims whose owners are over their own quota
        // so the set converges to the target; fall back to any other
        // thread's LRU line; if every line is ours (inconsistent quotas),
        // self-evict. The set is full, so `!own` is exactly "other".
        let mut over = 0u64;
        for (o, &owned) in owned_row.iter().enumerate() {
            if o != thread && (owned as u32) > self.targets[o] {
                // SAFETY: preconditions forwarded from the caller.
                over |= unsafe { owner_match_mask_avx512(owners, o as u8) };
            }
        }
        // SAFETY: preconditions forwarded from the caller.
        if let Some(w) = unsafe { masked_lru_argmin_avx512(lrus, over) } {
            return w;
        }
        // SAFETY: preconditions forwarded from the caller.
        if let Some(w) = unsafe { masked_lru_argmin_avx512(lrus, !own) } {
            return w;
        }
        // SAFETY: preconditions forwarded from the caller.
        unsafe { masked_lru_argmin_avx512(lrus, own) }.unwrap_or(0)
    }

    /// The §V victim policy via masked PLRU predicate walks — the
    /// tree-PLRU path, where candidate masks feed the tree descent and a
    /// fused LRU sweep doesn't apply. `owned_row` is the set's assignment
    /// counter row; the set is known to be full.
    fn choose_victim_masked(&self, set: usize, thread: ThreadId, owned_row: &[u16]) -> usize {
        if self.mode != PartitionMode::Partitioned {
            return self.victim_among(set, |_| true).expect("set is full");
        }
        if (owned_row[thread] as u32) < self.targets[thread] {
            let over_quota = self.victim_among(set, |o| {
                o != thread && owned_row[o] as u32 > self.targets[o]
            });
            if let Some(i) = over_quota {
                return i;
            }
            if let Some(i) = self.victim_among(set, |o| o != thread) {
                return i;
            }
        }
        self.victim_among(set, |o| o == thread)
            .or_else(|| self.victim_among(set, |_| true))
            .expect("set is full")
    }

    /// The tree-PLRU victim among the valid lines of `set` whose *owner*
    /// satisfies `pred`: the candidates form a mask that steers the PLRU
    /// tree walk.
    fn victim_among<F: Fn(usize) -> bool>(&self, set: usize, pred: F) -> Option<usize> {
        let ways = self.geom.ways;
        let base = set * ways;
        let mut mask = 0u64;
        for w in 0..ways {
            if self.tags[base + w] != INVALID_TAG && pred(self.owners[base + w] as usize) {
                mask |= 1 << w;
            }
        }
        plru::victim(self.plru_bits[set], ways as u32, mask).map(|w| w as usize)
    }

    /// Per-thread hit counters.
    pub fn hits(&self) -> &[u64] {
        &self.hits
    }

    /// Per-thread miss counters.
    pub fn misses(&self) -> &[u64] {
        &self.misses
    }

    /// Per-thread memory writeback counters (dirty evictions, attributed
    /// to the line owner).
    pub fn writebacks(&self) -> &[u64] {
        &self.writebacks
    }

    /// Inter-thread interaction statistics.
    pub fn interactions(&self) -> &InteractionStats {
        &self.interactions
    }

    /// Total ways currently owned by `thread` across all sets.
    pub fn ways_owned(&self, thread: ThreadId) -> u64 {
        (0..self.cfg.num_sets() as usize)
            .map(|s| self.owned[s * self.threads + thread] as u64)
            .sum()
    }

    /// Ways owned by `thread` in one set (tests/diagnostics).
    pub fn ways_owned_in_set(&self, set: usize, thread: ThreadId) -> u32 {
        self.owned[set * self.threads + thread] as u32
    }

    /// Zeroes hit/miss/interaction counters; contents and quotas persist.
    pub fn reset_counters(&mut self) {
        self.hits.fill(0);
        self.misses.fill(0);
        self.writebacks.fill(0);
        self.interactions = InteractionStats::default();
    }

    /// Verifies internal consistency: ownership counters match line owners.
    /// O(cache size); intended for tests and debug assertions.
    pub fn check_invariants(&self) {
        let ways = self.geom.ways;
        for set in 0..self.geom.num_sets() as usize {
            let mut counts = vec![0u16; self.threads];
            for w in set * ways..(set + 1) * ways {
                if self.tags[w] != INVALID_TAG {
                    counts[self.owners[w] as usize] += 1;
                }
            }
            for (t, &count) in counts.iter().enumerate() {
                assert_eq!(
                    count,
                    self.owned[set * self.threads + t],
                    "ownership counter mismatch: set {set} thread {t}"
                );
            }
        }
    }
}

/// Splits `ways` into `threads` near-equal integer quotas summing exactly.
pub fn equal_split(ways: u32, threads: usize) -> Vec<u32> {
    let base = ways / threads as u32;
    let extra = (ways as usize % threads) as u32;
    (0..threads as u32)
        .map(|t| base + if t < extra { 1 } else { 0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miri smoke tests run `cargo miri test -p icp-cmp-sim portable_`:
    /// these exercise only the portable scalar paths (no runtime SIMD
    /// dispatch), so the interpreter can check them without AVX2 shims.
    #[test]
    fn portable_find_tag_generic_matches_reference() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64] {
            let row: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            for needle in 0..(n as u64 * 3 + 4) {
                let expect = row.iter().position(|&t| t == needle);
                assert_eq!(find_tag_generic(&row, needle), expect, "n={n} needle={needle}");
            }
        }
    }

    #[test]
    fn portable_find_tag_generic_finds_first_duplicate() {
        let mut row = vec![7u64; 20];
        row[3] = 9;
        assert_eq!(find_tag_generic(&row, 7), Some(0));
        assert_eq!(find_tag_generic(&row, 9), Some(3));
        assert_eq!(find_tag_generic(&row, 8), None);
    }

    #[test]
    fn portable_partitioned_access_and_repartition() {
        let mut l2 = one_set();
        l2.set_targets(&[4, 2, 1, 1]);
        for t in 0..4 {
            for i in 0..4u64 {
                l2.access(t, line(t as u64 * 4 + i));
            }
        }
        l2.check_invariants();
        l2.set_targets(&[1, 1, 2, 4]);
        for t in 0..4 {
            for i in 0..4u64 {
                l2.access(t, line(16 + t as u64 * 4 + i));
            }
        }
        l2.check_invariants();
    }

    /// 1 set x 8 ways cache: makes quota interactions easy to reason about.
    fn one_set() -> PartitionedL2 {
        PartitionedL2::new(CacheConfig::new(8 * 64, 8, 64), 4)
    }

    /// Address of distinct line `i` (all map to set 0 in `one_set`).
    fn line(i: u64) -> u64 {
        i * 64
    }

    #[test]
    fn find_tag_matches_position_semantics() {
        // Exercise odd lengths (remainder path), duplicates (first index
        // wins) and absence, against the reference implementation — for
        // both the dispatcher and the portable fallback.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65] {
            let row: Vec<u64> = (0..len as u64).map(|i| (i * 37) % 11).collect();
            for needle in 0..12u64 {
                let expect = row.iter().position(|&t| t == needle);
                assert_eq!(find_tag(&row, needle), expect, "len {len} needle {needle}");
                assert_eq!(find_tag_generic(&row, needle), expect, "len {len} needle {needle}");
            }
        }
    }

    #[test]
    fn equal_split_sums() {
        assert_eq!(equal_split(64, 4), vec![16, 16, 16, 16]);
        assert_eq!(equal_split(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(equal_split(64, 8), vec![8; 8]);
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut l2 = one_set();
        assert!(!l2.access(0, line(1)).hit);
        assert!(l2.access(0, line(1)).hit);
        assert!(l2.access(1, line(1)).hit); // cross-thread hit allowed
        assert_eq!(l2.hits(), &[1, 1, 0, 0]);
        assert_eq!(l2.misses(), &[1, 0, 0, 0]);
    }

    #[test]
    fn cross_thread_hit_is_constructive_interaction() {
        let mut l2 = one_set();
        l2.access(0, line(1));
        let r = l2.access(1, line(1));
        assert!(r.hit && r.inter_thread_hit);
        // Same thread again: now intra-thread.
        let r = l2.access(1, line(1));
        assert!(r.hit && !r.inter_thread_hit);
        assert_eq!(l2.interactions().inter_thread_hits, 1);
    }

    #[test]
    fn unpartitioned_uses_global_lru() {
        let mut l2 = one_set();
        for i in 0..8 {
            l2.access(0, line(i));
        }
        // Thread 1 misses: evicts the globally-LRU line 0 despite thread 0
        // owning everything.
        let r = l2.access(1, line(100));
        assert_eq!(r.evicted_other, Some(0));
        assert!(!l2.access(0, line(0)).hit); // line 0 is gone
        l2.check_invariants();
    }

    #[test]
    fn partitioned_blocks_cross_thread_eviction_when_at_quota() {
        let mut l2 = one_set();
        l2.set_targets(&[2, 2, 2, 2]);
        // Thread 0 fills its quota of 2 and keeps missing: it must now evict
        // only its own lines, never other threads'.
        l2.access(1, line(50));
        l2.access(1, line(51));
        for i in 0..20 {
            let r = l2.access(0, line(i));
            assert!(
                r.evicted_other.is_none(),
                "thread 0 evicted another thread's line at i={i}"
            );
        }
        // Thread 1's lines survived thread 0's thrashing.
        assert!(l2.access(1, line(50)).hit);
        assert!(l2.access(1, line(51)).hit);
        // Thread 0 legitimately filled the 6 free ways (eviction control
        // only restricts *evictions*, not allocation into invalid ways) and
        // then recycled its own lines.
        assert_eq!(l2.ways_owned_in_set(0, 0), 6);
        assert_eq!(l2.ways_owned_in_set(0, 1), 2);
        l2.check_invariants();
    }

    #[test]
    fn under_quota_thread_takes_from_over_quota_thread() {
        let mut l2 = one_set();
        // Unpartitioned warm-up: thread 0 grabs all 8 ways.
        for i in 0..8 {
            l2.access(0, line(i));
        }
        // Now partition 4/4 between threads 0 and 1 (others 0... quotas must
        // sum to 8 with 4 threads; give mins elsewhere).
        l2.set_targets(&[3, 3, 1, 1]);
        // Thread 1 misses: must evict thread 0's lines (over quota).
        for i in 0..3 {
            let r = l2.access(1, line(20 + i));
            assert_eq!(r.evicted_other, Some(0), "miss {i}");
        }
        assert_eq!(l2.ways_owned_in_set(0, 1), 3);
        assert_eq!(l2.ways_owned_in_set(0, 0), 5);
        l2.check_invariants();
    }

    #[test]
    fn gradual_convergence_to_targets() {
        let mut l2 = one_set();
        l2.set_targets(&[5, 1, 1, 1]);
        // All four threads continuously miss over disjoint line pools.
        for round in 0..50u64 {
            for t in 0..4usize {
                l2.access(t, line(1000 * (t as u64 + 1) + round));
            }
        }
        // Converged to the target partition.
        assert_eq!(l2.ways_owned_in_set(0, 0), 5);
        assert_eq!(l2.ways_owned_in_set(0, 1), 1);
        assert_eq!(l2.ways_owned_in_set(0, 2), 1);
        assert_eq!(l2.ways_owned_in_set(0, 3), 1);
        l2.check_invariants();
    }

    #[test]
    fn repartition_shifts_ownership_without_flush() {
        let mut l2 = one_set();
        l2.set_targets(&[5, 1, 1, 1]);
        for round in 0..50u64 {
            for t in 0..4usize {
                l2.access(t, line(1000 * (t as u64 + 1) + round));
            }
        }
        let occupied_before: u64 = (0..4).map(|t| l2.ways_owned(t)).sum();
        // Flip the partition; keep streaming.
        l2.set_targets(&[1, 5, 1, 1]);
        for round in 50..120u64 {
            for t in 0..4usize {
                l2.access(t, line(1000 * (t as u64 + 1) + round));
            }
        }
        assert_eq!(l2.ways_owned_in_set(0, 0), 1);
        assert_eq!(l2.ways_owned_in_set(0, 1), 5);
        // No lines were lost in the transition.
        let occupied_after: u64 = (0..4).map(|t| l2.ways_owned(t)).sum();
        assert_eq!(occupied_before, occupied_after);
        l2.check_invariants();
    }

    #[test]
    fn destructive_evictions_counted() {
        let mut l2 = one_set();
        for i in 0..8 {
            l2.access(0, line(i));
        }
        l2.access(1, line(100)); // evicts a thread-0 line
        assert_eq!(l2.interactions().inter_thread_evictions, 1);
        // Self-eviction is not inter-thread: pin thread 1 at quota 1 (it
        // already owns exactly one line) and let it thrash against itself.
        let before = l2.interactions().inter_thread_evictions;
        l2.set_targets(&[7, 1, 0, 0]);
        for i in 200..210 {
            l2.access(1, line(i));
        }
        assert_eq!(l2.interactions().inter_thread_evictions, before);
        l2.check_invariants();
    }

    #[test]
    #[should_panic(expected = "sum to the way count")]
    fn bad_targets_rejected() {
        one_set().set_targets(&[1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "one quota per thread")]
    fn wrong_target_len_rejected() {
        one_set().set_targets(&[4, 4]);
    }

    #[test]
    fn multi_set_cache_partitions_each_set() {
        // 4 sets x 4 ways, 2 threads.
        let mut l2 = PartitionedL2::new(CacheConfig::new(16 * 64, 4, 64), 2);
        l2.set_targets(&[3, 1]);
        // Both threads stream over many lines in all sets.
        for i in 0..400u64 {
            l2.access(0, i * 64);
            l2.access(1, (1000 + i) * 64);
        }
        for set in 0..4 {
            assert_eq!(l2.ways_owned_in_set(set, 0), 3, "set {set}");
            assert_eq!(l2.ways_owned_in_set(set, 1), 1, "set {set}");
        }
        l2.check_invariants();
    }

    #[test]
    fn reset_counters_keeps_contents() {
        let mut l2 = one_set();
        l2.access(0, line(1));
        l2.reset_counters();
        assert_eq!(l2.hits(), &[0, 0, 0, 0]);
        assert!(l2.access(0, line(1)).hit); // still cached
    }

    #[test]
    fn plru_partitioning_enforces_quotas() {
        let mut l2 = PartitionedL2::new(CacheConfig::new(8 * 64, 8, 64), 4)
            .with_replacement(ReplacementKind::TreePlru);
        l2.set_targets(&[5, 1, 1, 1]);
        for round in 0..50u64 {
            for t in 0..4usize {
                l2.access(t, line(1000 * (t as u64 + 1) + round));
            }
        }
        assert_eq!(l2.ways_owned_in_set(0, 0), 5);
        assert_eq!(l2.ways_owned_in_set(0, 1), 1);
        assert_eq!(l2.ways_owned_in_set(0, 2), 1);
        assert_eq!(l2.ways_owned_in_set(0, 3), 1);
        l2.check_invariants();
    }

    #[test]
    fn plru_blocks_cross_thread_eviction_at_quota() {
        let mut l2 = PartitionedL2::new(CacheConfig::new(8 * 64, 8, 64), 4)
            .with_replacement(ReplacementKind::TreePlru);
        l2.set_targets(&[2, 2, 2, 2]);
        l2.access(1, line(50));
        l2.access(1, line(51));
        for i in 0..20 {
            let r = l2.access(0, line(i));
            assert!(r.evicted_other.is_none(), "i={i}");
        }
        assert!(l2.access(1, line(50)).hit);
        assert!(l2.access(1, line(51)).hit);
        l2.check_invariants();
    }

    #[test]
    fn plru_hit_rate_close_to_lru_for_looping_thread(){
        // A loop fitting in the ways: after warmup both policies hit 100%.
        for kind in [ReplacementKind::TrueLru, ReplacementKind::TreePlru] {
            let mut l2 = PartitionedL2::new(CacheConfig::new(8 * 64, 8, 64), 1)
                .with_replacement(kind);
            for _ in 0..10 {
                for i in 0..8 {
                    l2.access(0, line(i));
                }
            }
            assert_eq!(l2.misses()[0], 8, "{kind:?}: only compulsory misses");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two_ways() {
        // 3-way cache: PLRU cannot be used.
        let _ = PartitionedL2::new(CacheConfig::new(2 * 3 * 64, 3, 64), 2)
            .with_replacement(ReplacementKind::TreePlru);
    }

    #[test]
    fn reconfigure_enforcement_trims_instantly() {
        let mut l2 = PartitionedL2::new(CacheConfig::new(8 * 64, 8, 64), 4)
            .with_enforcement(EnforcementKind::Reconfigure);
        // Thread 0 fills the whole set.
        for i in 0..8 {
            l2.access(0, line(i));
        }
        assert_eq!(l2.ways_owned_in_set(0, 0), 8);
        // Applying a 2/2/2/2 partition instantly drops thread 0 to 2 lines.
        l2.set_targets(&[2, 2, 2, 2]);
        assert_eq!(l2.ways_owned_in_set(0, 0), 2);
        l2.check_invariants();
        // The data is gone: the most recent two lines survive, the rest
        // miss on re-access.
        assert!(l2.access(0, line(7)).hit);
        assert!(l2.access(0, line(6)).hit);
        assert!(!l2.access(0, line(0)).hit);
    }

    #[test]
    fn reconfigure_writes_back_dirty_victims() {
        let mut l2 = PartitionedL2::new(CacheConfig::new(8 * 64, 8, 64), 2)
            .with_enforcement(EnforcementKind::Reconfigure);
        for i in 0..4 {
            l2.access_rw(0, line(i), true); // dirty lines
        }
        l2.set_targets(&[1, 7]);
        assert_eq!(l2.ways_owned_in_set(0, 0), 1);
        assert_eq!(l2.writebacks()[0], 3);
        l2.check_invariants();
    }

    #[test]
    fn replacement_enforcement_keeps_data() {
        // Contrast case: the default mechanism keeps all lines resident
        // when the partition is applied.
        let mut l2 = one_set();
        for i in 0..8 {
            l2.access(0, line(i));
        }
        l2.set_targets(&[2, 2, 2, 2]);
        assert_eq!(l2.ways_owned_in_set(0, 0), 8); // nothing dropped yet
        for i in 0..8 {
            assert!(l2.access(0, line(i)).hit, "line {i} must survive");
        }
    }

    #[test]
    fn set_partition_ranges_cover_all_sets() {
        // 8 sets x 8 ways, 4 threads.
        let mut l2 = PartitionedL2::new(CacheConfig::new(8 * 8 * 64, 8, 64), 4);
        l2.set_set_partition(&[4, 2, 1, 1]);
        let ranges = l2.set_ranges().to_vec();
        assert_eq!(ranges.len(), 4);
        let total: u32 = ranges.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 8);
        // Contiguous and ordered.
        let mut next = 0;
        for (start, len) in ranges {
            assert_eq!(start, next);
            assert!(len >= 1);
            next = start + len;
        }
        // Proportionality: thread 0 (half the quota) gets the biggest range.
        assert!(l2.set_ranges()[0].1 >= l2.set_ranges()[1].1);
    }

    #[test]
    fn set_partition_isolates_threads_completely() {
        let mut l2 = PartitionedL2::new(CacheConfig::new(8 * 8 * 64, 8, 64), 2);
        l2.set_set_partition(&[4, 4]);
        // Thread 0 warms lines; thread 1 thrashes over a huge pool. Thread
        // 0's lines must be untouchable.
        for i in 0..16 {
            l2.access(0, line(i));
        }
        let misses_before = l2.misses()[0];
        for i in 0..500 {
            l2.access(1, line(1000 + i));
        }
        for i in 0..16 {
            l2.access(0, line(i));
        }
        // Thread 0's second pass: all hits (its range holds 4 sets x 8
        // ways = 32 lines >= 16).
        assert_eq!(l2.misses()[0], misses_before);
        assert_eq!(l2.interactions().inter_thread_evictions, 0);
        l2.check_invariants();
    }

    #[test]
    fn set_partition_replicates_shared_lines() {
        let mut l2 = PartitionedL2::new(CacheConfig::new(8 * 8 * 64, 8, 64), 2);
        l2.set_set_partition(&[4, 4]);
        // Both threads access the same address: each misses once (the line
        // is replicated into both ranges) — no constructive sharing, the
        // private-cache drawback the paper describes.
        assert!(!l2.access(0, line(7)).hit);
        assert!(!l2.access(1, line(7)).hit);
        assert!(l2.access(0, line(7)).hit);
        assert!(l2.access(1, line(7)).hit);
        l2.check_invariants();
    }

    #[test]
    fn way_partition_shares_where_set_partition_replicates() {
        // The contrast case: way partitioning lets thread 1 hit thread 0's
        // line.
        let mut l2 = one_set();
        l2.set_targets(&[2, 2, 2, 2]);
        assert!(!l2.access(0, line(7)).hit);
        assert!(l2.access(1, line(7)).hit); // constructive sharing survives
    }

    #[test]
    #[should_panic(expected = "sum to the way count")]
    fn set_partition_validates_quotas() {
        let mut l2 = PartitionedL2::new(CacheConfig::new(8 * 8 * 64, 8, 64), 2);
        l2.set_set_partition(&[3, 3]);
    }

    #[test]
    fn zero_quota_thread_still_progresses() {
        let mut l2 = one_set();
        l2.set_targets(&[8, 0, 0, 0]);
        // Thread 1 has quota 0 but must still be able to allocate (it evicts
        // its own lines once it has any; the first allocation steals LRU).
        assert!(!l2.access(1, line(1)).hit);
        assert!(l2.access(1, line(1)).hit);
        l2.check_invariants();
    }
}
