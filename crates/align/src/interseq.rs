//! Inter-sequence batched X-drop engine: many candidate pairs per register.
//!
//! The packed kernel ([`crate::packed`]) vectorises *within* one pair's
//! antidiagonal, so its lane occupancy is bounded by the live band width —
//! a few dozen cells on a true overlap, a handful on a dying false
//! positive. This module turns the problem sideways, Farrar-style
//! ("Striped Smith–Waterman", Farrar 2007, adapted from intra- to
//! inter-sequence striping): every SIMD lane carries a *different* pair,
//! and all lanes advance their own DP front one antidiagonal per step in
//! lockstep. Occupancy then depends only on how long lanes keep working,
//! which the batch scheduler controls:
//!
//! * **Length bucketing** ([`LengthBuckets`]): candidates are sorted
//!   longest-first and cut into buckets of ≤ 2× length spread, so
//!   co-resident lanes finish at commensurate times.
//! * **Staged lane refill**: diagonal progress is quantised onto a doubling
//!   boundary grid (64, 128, 256, …). A cohort of lanes runs one stage;
//!   survivors park in the next stage's pool and are re-seated into fresh,
//!   fully occupied cohorts, while early deaths (the false-positive common
//!   case) free their lane immediately. Cohorts are only under-occupied on
//!   the final flush of each pool. The deepest full pool is seated first,
//!   so parked continuations stay bounded by lanes × stages rather than by
//!   bucket size ([`BatchStats::max_parked`]).
//! * **Shared pools across cores**: the engines of one batch (one per core
//!   in [`align_candidates_batched`]) share its stage pools behind one
//!   lock. Each picks its next cohort by the same rule under the lock and
//!   runs it outside, so every core works on the one bucket that holds
//!   nearly all the candidates; a bucket that fits one cohort spawns no
//!   thread.
//! * **Band-relative addressing**: each lane stores its rows at
//!   `row - offset`, the offset fixed per stage at the lane's current band
//!   floor. Lanes whose absolute bands drift apart (different length
//!   ratios) still share a dense register window.
//!
//! # Bit-identity
//!
//! Results are bit-identical to [`crate::xdrop::XDropAligner`] per pair —
//! same scores, extents, `cells` counts, tie-breaks, and termination. The
//! lane arithmetic is `i16`; the [`eligible_i16`] precheck admits a pair
//! only when every intermediate value is provably exact in `i16`
//! (`n + m ≤ 32 000`, `min(n, m)·match ≤ 30 000`, `|penalties| ≤ 1024`,
//! `x ≤ 4096` — so live scores stay in `[-x, 30 000]`, transients below
//! `i16` saturation, and every dead-predecessor value renormalises to
//! exactly [`NEG16`] under the same argument as the packed kernel's
//! `NEG` renormalisation). Ineligible pairs take the widen-to-`i32` retry
//! path: they run on the bit-identical [`PackedXDropAligner`] instead.
//! The proptests in `crates/align/tests/interseq_equivalence.rs` pin all
//! three ISA paths against the scalar reference.
//!
//! # Accelerator interface
//!
//! [`BatchPlan`] (bucket extents + refill order, plain POD) is the stable
//! descriptor a future GPU backend consumes: the same bucketing and
//! lane-refill schedule maps onto warp-per-pair batch alignment (cf. the
//! GPU scheduler work for de novo assembly, arXiv 2309.07270).

use crate::batch::AlignParams;
use crate::packed::{PackedView, PackedXDropAligner, MAX_X};
use crate::scoring::ScoringScheme;
use crate::seed_extend::{assemble_record, packed_candidate_geometry, AlignmentRecord, Candidate};
use crate::xdrop::Extension;
use gnb_genome::ReadSet;
use std::collections::VecDeque;
use std::sync::Mutex;

/// "Minus infinity" of the `i16` lane arithmetic (`i16::MIN / 4`): low
/// enough that adding any admitted substitution or gap value cannot wrap,
/// high enough that `NEG16 + value` always falls below every admissible
/// X-drop cutoff (see module docs).
pub const NEG16: i16 = i16::MIN / 4;

/// Widest supported lane count (the AVX-512BW path: 32 × i16).
pub const MAX_LANES: usize = 32;

/// Per-lane band-bound sentinels for lanes with no work this diagonal:
/// `DEAD_LO > any q` and `DEAD_HI < any q`, so the in-band and guard masks
/// are false at every position even after the ±3 bound arithmetic.
const DEAD_LO: i16 = 32_000;
const DEAD_HI: i16 = -32_000;

/// Augmented stripe codes: bases are 0–3; an ambiguous base becomes 4 on
/// the `a` side and 5 on the `b` side so one lane-equality test implements
/// "N matches nothing" (N vs N also mismatches).
const A_AMBIG: i16 = 4;
const B_AMBIG: i16 = 5;

/// First stage boundary of the doubling refill grid.
const STAGE0: u32 = 64;

/// Longest stage between re-seats. Lanes re-anchor their band-relative
/// offsets only at stage boundaries, and bands of co-resident lanes drift
/// apart at a few percent of a row per diagonal; capping the stage length
/// bounds that dispersion (and with it the swept union window), while the
/// per-cell cost of stage setup (stripes, restores, parks) stays nearly
/// flat in the stage length.
const STAGE_CAP: u32 = 192;

/// Largest candidate count per bucket (bounds per-bucket pool memory).
const MAX_BUCKET_TASKS: u32 = 4096;

// ---------------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------------

/// Which inner-loop implementation a [`BatchedXDropAligner`] runs. All
/// paths compute bit-identical results; only the lane width (and therefore
/// throughput) differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaPath {
    /// Plain Rust, 8 scalar lanes — the reference the vector paths are
    /// pinned against, and the fallback for non-x86 hosts.
    Portable,
    /// AVX2: 16 × i16 lanes per `__m256i`.
    Avx2,
    /// AVX-512BW: 32 × i16 lanes per `__m512i` with mask registers.
    Avx512,
}

impl IsaPath {
    /// Best path available on this host (runtime CPU detection).
    pub fn detect() -> IsaPath {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512bw") {
                return IsaPath::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return IsaPath::Avx2;
            }
        }
        IsaPath::Portable
    }

    /// Whether this path can run on this host.
    pub fn is_available(self) -> bool {
        match self {
            IsaPath::Portable => true,
            #[cfg(target_arch = "x86_64")]
            IsaPath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            IsaPath::Avx512 => std::arch::is_x86_feature_detected!("avx512bw"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Pairs processed per SIMD register on this path.
    pub fn lane_width(self) -> usize {
        match self {
            IsaPath::Portable => 8,
            IsaPath::Avx2 => 16,
            IsaPath::Avx512 => 32,
        }
    }
}

/// The x86 SIMD feature set detected at runtime, for benchmark headers and
/// honest reporting of what a committed number describes.
pub fn detected_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512bw") {
            out.push("avx512bw");
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Batch plan (the accelerator-ready descriptor)
// ---------------------------------------------------------------------------

/// One length bucket: a contiguous span of the longest-first order whose
/// tasks are within 2× of each other in total length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketDesc {
    /// First index into [`BatchPlan::order`].
    pub first: u32,
    /// Number of candidates in the bucket.
    pub count: u32,
    /// Largest `len(a) + len(b)` in the bucket.
    pub max_len_sum: u32,
    /// Smallest `len(a) + len(b)` in the bucket.
    pub min_len_sum: u32,
}

/// Explicit length-bucket grouping over a longest-first task order.
#[derive(Debug, Clone, Default)]
pub struct LengthBuckets {
    /// Buckets in schedule order (longest first).
    pub buckets: Vec<BucketDesc>,
}

impl LengthBuckets {
    /// Groups a descending-sorted sequence of task length sums into buckets
    /// of at most 2× length spread and at most `MAX_BUCKET_TASKS` tasks.
    pub fn build(sorted_len_sums: &[u32]) -> LengthBuckets {
        let mut buckets = Vec::new();
        let mut first = 0u32;
        while (first as usize) < sorted_len_sums.len() {
            let head = sorted_len_sums[first as usize];
            let mut count = 0u32;
            while (first + count) as usize != sorted_len_sums.len() && count < MAX_BUCKET_TASKS {
                let len = sorted_len_sums[(first + count) as usize];
                debug_assert!(len <= head, "input must be sorted descending");
                if 2 * len < head {
                    break;
                }
                count += 1;
            }
            buckets.push(BucketDesc {
                first,
                count,
                max_len_sum: head,
                min_len_sum: sorted_len_sums[(first + count - 1) as usize],
            });
            first += count;
        }
        LengthBuckets { buckets }
    }
}

/// The full batch descriptor: which candidate runs where, in what order.
/// Plain POD — this is the stable interface an accelerator backend consumes
/// (bucket extents, lane assignment rule, refill order).
///
/// Candidate `order[bucket.first + i]` is the bucket's `i`-th seat/refill;
/// each candidate expands to two extension tasks (right, then left), and a
/// backend with `lane_width` lanes seats tasks round-robin, refilling a
/// freed lane with the bucket's next pending task.
#[derive(Debug, Clone, Default)]
pub struct BatchPlan {
    /// Lanes per SIMD register on the path that will execute the plan.
    pub lane_width: u32,
    /// Candidate indices, longest-first (the refill order).
    pub order: Vec<u32>,
    /// Bucket extents over `order`.
    pub buckets: Vec<BucketDesc>,
}

impl BatchPlan {
    /// Builds the plan for a candidate set: a stable longest-first sort on
    /// `len(a) + len(b)`, cut into length buckets.
    pub fn build(reads: &ReadSet, tasks: &[Candidate], lane_width: usize) -> BatchPlan {
        let len_sum = |c: &Candidate| -> u32 {
            (reads.read_len(c.a as usize) + reads.read_len(c.b as usize)) as u32
        };
        let mut order: Vec<u32> = (0..tasks.len() as u32).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(len_sum(&tasks[t as usize])));
        let sums: Vec<u32> = order.iter().map(|&t| len_sum(&tasks[t as usize])).collect();
        BatchPlan {
            lane_width: lane_width as u32,
            order,
            buckets: LengthBuckets::build(&sums).buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine statistics
// ---------------------------------------------------------------------------

/// Occupancy and routing counters accumulated by a [`BatchedXDropAligner`].
///
/// When several engines share one batch, `tasks` and the fallback counts
/// are exact, but how cohorts are cut — `cohorts`, `diagonals`, the lane
/// steps and `max_parked` — depends on how the threads interleaved.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Extension tasks processed (two per candidate).
    pub tasks: u64,
    /// Tasks routed to the `i32` fallback kernel (failed the `i16`
    /// exactness precheck, or — defensively — tripped the overflow guard).
    pub fallback_tasks: u64,
    /// Cohort stage runs executed.
    pub cohorts: u64,
    /// Antidiagonal steps summed over all cohorts.
    pub diagonals: u64,
    /// `lane_width` × diagonals: total lane-step capacity.
    pub lane_steps: u64,
    /// Lane-steps that advanced a live pair (the rest were idle lanes).
    pub active_lane_steps: u64,
    /// Peak number of parked continuations (paused past stage 0, waiting
    /// for a seat) this engine saw in the refill pools of any one batch —
    /// the DP-row memory beyond the engines' striped scratch.
    pub max_parked: u64,
}

impl BatchStats {
    /// Folds another engine's counters into these: every count adds up,
    /// and `max_parked` keeps the larger peak (the engines of one batch
    /// share its pools, so each saw the same parked set).
    pub fn merge(&mut self, other: &BatchStats) {
        self.tasks += other.tasks;
        self.fallback_tasks += other.fallback_tasks;
        self.cohorts += other.cohorts;
        self.diagonals += other.diagonals;
        self.lane_steps += other.lane_steps;
        self.active_lane_steps += other.active_lane_steps;
        self.max_parked = self.max_parked.max(other.max_parked);
    }

    /// Fraction of lane-steps that carried live work — the occupancy the
    /// staged-refill scheduler exists to keep high.
    pub fn lane_fill(&self) -> f64 {
        if self.lane_steps == 0 {
            0.0
        } else {
            self.active_lane_steps as f64 / self.lane_steps as f64
        }
    }
}

// ---------------------------------------------------------------------------
// i16 eligibility
// ---------------------------------------------------------------------------

/// Whether a pair can run in the `i16` lane arithmetic with provably exact
/// results (see module docs). Ineligible pairs take the `i32` retry path.
pub fn eligible_i16(n: usize, m: usize, sc: &ScoringScheme, x: i32) -> bool {
    n + m <= 32_000
        && sc.match_score <= 1024
        && sc.mismatch >= -1024
        && sc.gap >= -1024
        && x <= 4096
        && (n.min(m) as i64) * sc.match_score as i64 <= 30_000
}

// ---------------------------------------------------------------------------
// Continuations
// ---------------------------------------------------------------------------

/// A paused extension at a stage boundary: everything needed to re-seat the
/// lane in a later cohort. `prev`/`prev2` hold the two rolling antidiagonal
/// arrays over rows `[wlo, wlo + len)`; every row outside that window is
/// exactly `NEG16` wherever a future diagonal may read it.
#[derive(Debug)]
struct Cont {
    task: u32,
    best: i32,
    aext: i32,
    bext: i32,
    cells: u64,
    /// Live row range of diagonal `d` (`lo > hi` = dead).
    l1: (i32, i32),
    /// Live row range of diagonal `d - 1`.
    l2: (i32, i32),
    /// Absolute row of `prev[0]` / `prev2[0]`.
    wlo: i32,
    prev: Vec<i16>,
    prev2: Vec<i16>,
}

impl Cont {
    /// A task that has not started: state "after diagonal 0" — row 0 of
    /// `prev` holds the empty extension's score 0, everything else dead.
    fn fresh(task: u32) -> Cont {
        Cont {
            task,
            best: 0,
            aext: 0,
            bext: 0,
            cells: 0,
            l1: (0, 0),
            l2: (1, 0),
            wlo: 0,
            prev: vec![0],
            prev2: vec![NEG16],
        }
    }
}

/// Outcome of one seated lane after a cohort stage.
enum LaneOutcome {
    Done(u32, Extension),
    Live(Cont),
    /// Defensive overflow-guard trip: rerun the task on the `i32` kernel.
    Retry(u32),
}

/// The refill pools of one batch, shared by every engine working it behind
/// one lock: one FIFO pool of continuations per stage of the grid, and the
/// results finished so far.
struct RefillPools {
    /// Stage boundaries (diagonals): doubling, then `STAGE_CAP` apart.
    grid: Vec<u32>,
    pools: Vec<VecDeque<Cont>>,
    /// Continuations parked past stage 0 and not yet re-seated.
    parked: u64,
    out: Vec<Extension>,
}

/// A cohort's outcomes not yet filed into the pools, with its stage.
type Pending = Option<(usize, Vec<LaneOutcome>)>;

impl RefillPools {
    /// Seeds stage 0 with every pair that passes the `i16` precheck;
    /// `lead` extends the others on its exact `i32` fallback at once.
    fn seed(
        lead: &mut BatchedXDropAligner,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
    ) -> RefillPools {
        assert!(x >= 0, "X-drop threshold must be non-negative");
        assert!(
            x <= MAX_X,
            "X-drop threshold too large for the batched kernel"
        );
        let mut out = vec![Extension::default(); pairs.len()];
        lead.stats.tasks += pairs.len() as u64;

        // Doubling stage grid; d never exceeds n + m ≤ 32 000 for eligible
        // pairs, so the top boundary is unreachable.
        let mut grid: Vec<u32> = vec![0, STAGE0];
        while *grid.last().expect("non-empty") < 65_536 {
            let last = *grid.last().expect("non-empty");
            grid.push(last + last.min(STAGE_CAP));
        }
        let mut pools: Vec<VecDeque<Cont>> = grid.iter().map(|_| VecDeque::new()).collect();

        for (i, (a, b)) in pairs.iter().enumerate() {
            if eligible_i16(a.len(), b.len(), sc, x) {
                pools[0].push_back(Cont::fresh(i as u32));
            } else {
                // Widen-to-i32 retry path: exactness can't be guaranteed in
                // i16, so the pair runs on the packed i32 kernel instead.
                out[i] = lead.fallback.extend(*a, *b, sc, x);
                lead.stats.fallback_tasks += 1;
            }
        }
        RefillPools {
            grid,
            pools,
            parked: 0,
            out,
        }
    }

    /// The scheduling rule: seat the deepest pool that fills a cohort of
    /// `lanes` (highest occupancy; a cohort then carries its survivors on
    /// through the later stages before the next fresh cohort starts, so
    /// parked continuations — two DP rows each — stay bounded by lanes ×
    /// stages instead of growing with the bucket), else flush the
    /// shallowest non-empty pool. `None` once every pool is empty.
    fn pick(&mut self, lanes: usize) -> Option<(usize, Vec<Cont>)> {
        let g = match (0..self.pools.len())
            .rev()
            .find(|&g| self.pools[g].len() >= lanes)
        {
            Some(g) => g,
            None => (0..self.pools.len()).find(|&g| !self.pools[g].is_empty())?,
        };
        let seat_n = self.pools[g].len().min(lanes);
        if g > 0 {
            self.parked -= seat_n as u64;
        }
        Some((g, self.pools[g].drain(..seat_n).collect()))
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Reusable inter-sequence batched X-drop engine. One instance owns the
/// striped scratch arrays and an `i32` fallback aligner; reuse it across
/// batches to keep the hot path allocation-free at steady state.
#[derive(Debug)]
pub struct BatchedXDropAligner {
    path: IsaPath,
    stats: BatchStats,
    /// Rolling antidiagonal arrays, lane-major (`(q - row_base) * lanes + l`).
    prev2: Vec<i16>,
    prev: Vec<i16>,
    cur: Vec<i16>,
    /// Striped augmented base codes for the stage's row / column windows.
    astrip: Vec<i16>,
    bstrip: Vec<i16>,
    fallback: PackedXDropAligner,
}

impl Default for BatchedXDropAligner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchedXDropAligner {
    /// Engine on the best ISA path this host supports.
    pub fn new() -> BatchedXDropAligner {
        Self::with_path(IsaPath::detect())
    }

    /// Engine on an explicit ISA path (tests pin all paths against the
    /// scalar reference with this).
    ///
    /// # Panics
    /// Panics if `path` is not available on this host.
    pub fn with_path(path: IsaPath) -> BatchedXDropAligner {
        assert!(path.is_available(), "ISA path {path:?} not available");
        BatchedXDropAligner {
            path,
            stats: BatchStats::default(),
            prev2: Vec::new(),
            prev: Vec::new(),
            cur: Vec::new(),
            astrip: Vec::new(),
            bstrip: Vec::new(),
            fallback: PackedXDropAligner::new(),
        }
    }

    /// The ISA path this engine dispatches to.
    pub fn path(&self) -> IsaPath {
        self.path
    }

    /// Counters accumulated since construction or [`Self::reset_stats`].
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Clears the accumulated counters.
    pub fn reset_stats(&mut self) {
        self.stats = BatchStats::default();
    }

    /// Extends every pair from `(0, 0)` under X-drop threshold `x`,
    /// returning per-pair [`Extension`]s bit-identical to the scalar kernel
    /// in input order. The caller provides one length bucket per call (the
    /// whole slice is scheduled as a single refill pool). This is the
    /// one-engine case of the shared-pool scheduler: no thread is spawned
    /// and the cohort schedule is deterministic.
    pub fn extend_batch(
        &mut self,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
    ) -> Vec<Extension> {
        extend_shared(std::slice::from_mut(self), pairs, sc, x)
    }

    /// One engine's share of an [`extend_shared`] call: refill steps until
    /// every pool is empty. It never waits for cohorts other engines still
    /// have in flight; their survivors are theirs to carry on.
    fn refill_worker(
        &mut self,
        shared: &Mutex<RefillPools>,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
    ) {
        let mut pending = None;
        while self.refill_step(shared, pairs, sc, x, &mut pending) {}
    }

    /// One turn of a refill worker: under the lock, file the `pending`
    /// outcomes and pick the next cohort; run it outside the lock into
    /// `pending`. Returns `false`, with nothing pending, once every pool
    /// was empty.
    fn refill_step(
        &mut self,
        shared: &Mutex<RefillPools>,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
        pending: &mut Pending,
    ) -> bool {
        let (seats, g, d0, d1) = {
            let mut st = shared
                .lock()
                .expect("a refill worker panicked while holding the pools");
            if let Some((g, outcomes)) = pending.take() {
                for outcome in outcomes {
                    match outcome {
                        LaneOutcome::Done(task, ext) => st.out[task as usize] = ext,
                        LaneOutcome::Live(cont) => {
                            st.pools[g + 1].push_back(cont);
                            st.parked += 1;
                            self.stats.max_parked = self.stats.max_parked.max(st.parked);
                        }
                        LaneOutcome::Retry(task) => {
                            let (a, b) = &pairs[task as usize];
                            st.out[task as usize] = self.fallback.extend(*a, *b, sc, x);
                            self.stats.fallback_tasks += 1;
                        }
                    }
                }
            }
            let Some((g, seats)) = st.pick(self.path.lane_width()) else {
                return false;
            };
            debug_assert!(
                g + 1 < st.grid.len(),
                "eligible pair outlived the stage grid"
            );
            (seats, g, st.grid[g], st.grid[g + 1])
        };
        *pending = Some((g, self.run_cohort(seats, pairs, sc, x, d0, d1)));
        true
    }

    /// Runs one cohort from diagonal `d0` (exclusive) to `d1` (inclusive).
    fn run_cohort(
        &mut self,
        seats: Vec<Cont>,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
        d0: u32,
        d1: u32,
    ) -> Vec<LaneOutcome> {
        let lw = self.path.lane_width();
        let nl = seats.len();
        debug_assert!(0 < nl && nl <= lw);
        self.stats.cohorts += 1;

        // Per-lane geometry and DP state. Band bookkeeping lives in
        // band-relative q-space (`q = row - off`) as flat `i16` lane arrays
        // so the per-diagonal evolution below is branch-free straight-line
        // code over `[i16; MAX_LANES]` — exactly the shape LLVM
        // auto-vectorizes. Empty diagonal ranges use the canonical sentinel
        // `(DEAD_LO, DEAD_HI)`: with saturating adds, the four-case band
        // merge of the scalar kernel collapses to a maskless min/max
        // (an empty range can never win either bound).
        let mut off = [0i32; MAX_LANES];
        let mut l1lo = [DEAD_LO; MAX_LANES];
        let mut l1hi = [DEAD_HI; MAX_LANES];
        let mut l2lo = [DEAD_LO; MAX_LANES];
        let mut l2hi = [DEAD_HI; MAX_LANES];
        // Row-window counters: `vdo = d - off` and `vdm = d - m` advance by
        // one per diagonal; `nq = n - off` and `noq = -off` are stage
        // constants. All stay within i16 while any lane is alive (alive
        // lanes force `d ≤ n + m ≤ 32 000` by the eligibility precheck, and
        // the loop breaks one diagonal after the last death).
        let mut vdo = [0i16; MAX_LANES];
        let mut vdm = [0i16; MAX_LANES];
        let mut nq = [0i16; MAX_LANES];
        let mut noq = [0i16; MAX_LANES];
        // Alive mask (0 = dead, -1 = alive) and per-stage cell tally
        // (`u32` suffices: width ≤ 32 001 over ≤ 32 768 diagonals).
        let mut alivem = [0i16; MAX_LANES];
        let mut widsum = [0u32; MAX_LANES];
        let mut cellsv = [0u64; MAX_LANES];
        // Lane-vector state (i16, loaded into registers by the sweep).
        let mut bestv = [0i16; MAX_LANES];
        let mut aextv = [0i16; MAX_LANES];
        let mut bextv = [0i16; MAX_LANES];
        let mut cutv = [NEG16; MAX_LANES];
        let mut voff = [0i16; MAX_LANES];

        let kk = (d1 - d0) as i32;
        let skew = kk >> 1;
        let mut q_top = 0i32;
        let mut u_top = 0i32;
        for (l, c) in seats.iter().enumerate() {
            let (va, vb) = &pairs[c.task as usize];
            let n = va.len() as i32;
            let m = vb.len() as i32;
            let mut lo = i32::MAX;
            let mut hi = i32::MIN;
            for r in [c.l1, c.l2] {
                if r.0 <= r.1 {
                    lo = lo.min(r.0);
                    hi = hi.max(r.1);
                }
            }
            debug_assert!(lo <= hi, "seated continuation has no live diagonal");
            off[l] = lo;
            if c.l1.0 <= c.l1.1 {
                l1lo[l] = (c.l1.0 - lo) as i16;
                l1hi[l] = (c.l1.1 - lo) as i16;
            }
            if c.l2.0 <= c.l2.1 {
                l2lo[l] = (c.l2.0 - lo) as i16;
                l2hi[l] = (c.l2.1 - lo) as i16;
            }
            vdo[l] = (d0 as i32 - lo) as i16;
            vdm[l] = (d0 as i32 - m) as i16;
            nq[l] = (n - lo) as i16;
            noq[l] = (-lo) as i16;
            alivem[l] = -1;
            cellsv[l] = c.cells;
            bestv[l] = c.best as i16;
            aextv[l] = c.aext as i16;
            bextv[l] = c.bext as i16;
            cutv[l] = c.best as i16 - x as i16;
            voff[l] = lo as i16;
            // Band ceilings: cand_hi ≤ min(start_hi + steps, n); in skewed
            // storage the ceiling tightens to start_hi + ceil(steps / 2)
            // (the band gains at most one row per diagonal while the
            // storage window descends one row every other diagonal).
            q_top = q_top.max((hi + kk).min(n) - lo);
            u_top = u_top.max((hi + ((kk + 1) >> 1)).min(n) - lo);
        }

        // Row window in skewed storage coordinates `u = q - ((d - d0) >> 1)`:
        // writes hit `[-2 - skew, u_top + 2]`, and `prev`/`prev2` reads lag
        // the current shift by at most one row on each side, so rows
        // `[row_base, u_top + 4]` cover every access with margin. The stripe
        // windows below stay in plain q-space (the stripes are per-stage
        // constants the sweep indexes by `q` and `d - q` directly).
        let qhi = q_top + 2;
        let row_base = -skew - 5;
        let rows = (u_top + 4 - row_base + 1) as usize;
        let need = rows * lw;
        for arr in [&mut self.prev2, &mut self.prev, &mut self.cur] {
            arr.clear();
            arr.resize(need, NEG16);
        }
        let idx = |q: i32| -> usize { ((q - row_base) as usize) * lw };

        // Restore continuation rows (fresh tasks restore `prev[0] = 0`).
        for (l, c) in seats.iter().enumerate() {
            for (i, (&pv, &pv2)) in c.prev.iter().zip(&c.prev2).enumerate() {
                let q = c.wlo + i as i32 - off[l];
                self.prev[idx(q) + l] = pv;
                self.prev2[idx(q) + l] = pv2;
            }
        }

        // Striped augmented codes. Cell at band-relative row q of lane l
        // compares a[q + off - 1] against b[(d - q) - off - 1]; the a side
        // is indexed by q directly and the b side by t = d - q, so both
        // stripes are contiguous lane-major loads in the sweep.
        let a_base = -2i32;
        let alen = (qhi - a_base + 1) as usize;
        let b_base = d0 as i32 + 1 - qhi;
        let blen = (d1 as i32 - a_base - b_base + 1) as usize;
        self.astrip.clear();
        self.astrip.resize(alen * lw, A_AMBIG);
        self.bstrip.clear();
        self.bstrip.resize(blen * lw, B_AMBIG);
        for (l, c) in seats.iter().enumerate() {
            let (va, vb) = &pairs[c.task as usize];
            stripe_fill(
                &mut self.astrip,
                lw,
                l,
                va,
                a_base,
                qhi,
                off[l] - 1,
                A_AMBIG,
            );
            let t_hi = d1 as i32 - a_base;
            stripe_fill(
                &mut self.bstrip,
                lw,
                l,
                vb,
                b_base,
                t_hi,
                -off[l] - 1,
                B_AMBIG,
            );
        }

        let mut outcomes: Vec<LaneOutcome> = Vec::with_capacity(nl);
        let ms = sc.match_score as i16;
        let dl = (sc.match_score - sc.mismatch) as i16;
        let gap = sc.gap as i16;
        let x16 = x as i16;

        for d in (d0 as i32 + 1)..=(d1 as i32) {
            // Branch-free band bookkeeping: the scalar kernel's band
            // evolution, evaluated lane-parallel over the canonical-empty
            // q-space ranges. Dead lanes keep evolving — emptiness is
            // sticky under this arithmetic (band_lo never decreases,
            // band_hi grows by at most one, and the row window moves
            // monotonically), so a dead lane can never resurrect and its
            // width contribution stays zero.
            let mut lov = [DEAD_LO; MAX_LANES];
            let mut hiv = [DEAD_HI; MAX_LANES];
            let mut newlov = [DEAD_LO; MAX_LANES];
            let mut newhiv = [DEAD_HI; MAX_LANES];
            let mut diedm = [0i16; MAX_LANES];
            for l in 0..MAX_LANES {
                vdo[l] += 1;
                vdm[l] += 1;
                let band_lo = l1lo[l].min(l2lo[l].saturating_add(1));
                let band_hi = l1hi[l].max(l2hi[l]).saturating_add(1);
                let rlo = vdm[l].max(0) + noq[l];
                let rhi = vdo[l].min(nq[l]);
                let clo = band_lo.max(rlo);
                let chi = band_hi.min(rhi);
                let nowm = -((clo <= chi) as i16);
                let livem = alivem[l] & nowm;
                diedm[l] = alivem[l] & !nowm;
                alivem[l] = livem;
                lov[l] = (clo & livem) | (DEAD_LO & !livem);
                hiv[l] = (chi & livem) | (DEAD_HI & !livem);
                // Width in i32 (chi - clo underflows i16 when dead), masked
                // to zero for dead lanes.
                widsum[l] = widsum[l]
                    .wrapping_add((chi as i32 - clo as i32 + 1) as u32 & livem as i32 as u32);
            }
            let mut ulo = i32::MAX;
            let mut uhi = i32::MIN;
            let mut nact = 0u64;
            let mut anydied = 0i16;
            for l in 0..MAX_LANES {
                ulo = ulo.min(lov[l] as i32);
                uhi = uhi.max(hiv[l] as i32);
                nact += (alivem[l] & 1) as u64;
                anydied |= diedm[l];
            }
            if anydied != 0 {
                // Rare slow path: one Done outcome per newly dead lane
                // (~once per task across the whole batch).
                for l in 0..nl {
                    if diedm[l] != 0 {
                        outcomes.push(LaneOutcome::Done(
                            seats[l].task,
                            lane_extension(
                                bestv[l],
                                aextv[l],
                                bextv[l],
                                cellsv[l] + widsum[l] as u64,
                            ),
                        ));
                    }
                }
            }
            if nact == 0 {
                break;
            }
            self.stats.diagonals += 1;
            self.stats.lane_steps += lw as u64;
            self.stats.active_lane_steps += nact;

            // Cumulative skew shifts of the three rolling diagonals (the
            // first diagonal of the stage reads the restored rows, which
            // were parked unshifted).
            let s = d - d0 as i32;
            let sweep = SweepArgs {
                lanes: lw,
                q0: ulo - 2,
                q1: uhi + 2,
                d,
                cb: row_base + (s >> 1),
                pb: row_base + ((s - 1) >> 1),
                p2b: row_base + ((s - 2).max(0) >> 1),
                a_base,
                b_base,
                ms,
                dl,
                gap,
                x: x16,
            };
            match self.path {
                IsaPath::Portable => sweep_diag_portable(
                    &sweep,
                    &self.prev2,
                    &self.prev,
                    &mut self.cur,
                    &self.astrip,
                    &self.bstrip,
                    &lov,
                    &hiv,
                    &vdo,
                    &voff,
                    &mut bestv,
                    &mut aextv,
                    &mut bextv,
                    &mut cutv,
                    &mut newlov,
                    &mut newhiv,
                ),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `with_path` verified the feature is available on
                // this host; all array windows are sized by `run_cohort` so
                // every lane-major load/store in [q0 - 1, q1] is in bounds.
                IsaPath::Avx2 => unsafe {
                    simd::sweep_diag_avx2(
                        &sweep,
                        &self.prev2,
                        &self.prev,
                        &mut self.cur,
                        &self.astrip,
                        &self.bstrip,
                        &lov,
                        &hiv,
                        &vdo,
                        &voff,
                        &mut bestv,
                        &mut aextv,
                        &mut bextv,
                        &mut cutv,
                        &mut newlov,
                        &mut newhiv,
                    )
                },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above — AVX-512BW was detected, windows sized.
                IsaPath::Avx512 => unsafe {
                    simd::sweep_diag_avx512(
                        &sweep,
                        &self.prev2,
                        &self.prev,
                        &mut self.cur,
                        &self.astrip,
                        &self.bstrip,
                        &lov,
                        &hiv,
                        &vdo,
                        &voff,
                        &mut bestv,
                        &mut aextv,
                        &mut bextv,
                        &mut cutv,
                        &mut newlov,
                        &mut newhiv,
                    )
                },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("vector paths unavailable off x86_64"),
            }

            for l in 0..MAX_LANES {
                l2lo[l] = l1lo[l];
                l2hi[l] = l1hi[l];
                let live = -((newlov[l] <= newhiv[l]) as i16);
                l1lo[l] = (newlov[l] & live) | (DEAD_LO & !live);
                l1hi[l] = (newhiv[l] & live) | (DEAD_HI & !live);
            }
            std::mem::swap(&mut self.prev2, &mut self.prev);
            std::mem::swap(&mut self.prev, &mut self.cur);
        }

        // Stage boundary: park survivors as continuations (q-space bands
        // convert back to absolute rows; empties to the scalar `(1, 0)`).
        for l in 0..nl {
            if alivem[l] == 0 {
                continue;
            }
            let cells = cellsv[l] + widsum[l] as u64;
            if bestv[l] > 30_000 {
                // Defensive only: the eligibility precheck bounds best by
                // min(n, m)·match ≤ 30 000, so this cannot fire — but if
                // the proof is ever wrong, rerun on the exact i32 kernel
                // rather than commit a wrong score.
                outcomes.push(LaneOutcome::Retry(seats[l].task));
                continue;
            }
            let l1 = if l1lo[l] <= l1hi[l] {
                (l1lo[l] as i32 + off[l], l1hi[l] as i32 + off[l])
            } else {
                (1, 0)
            };
            let l2 = if l2lo[l] <= l2hi[l] {
                (l2lo[l] as i32 + off[l], l2hi[l] as i32 + off[l])
            } else {
                (1, 0)
            };
            let mut lo = i32::MAX;
            let mut hi = i32::MIN;
            for r in [l1, l2] {
                if r.0 <= r.1 {
                    lo = lo.min(r.0);
                    hi = hi.max(r.1);
                }
            }
            if lo > hi {
                // Both diagonals died on the last step of the stage: the
                // next bookkeeping step would terminate it — finish now.
                outcomes.push(LaneOutcome::Done(
                    seats[l].task,
                    lane_extension(bestv[l], aextv[l], bextv[l], cells),
                ));
                continue;
            }
            let (wlo, whi) = (lo - 2, hi + 2);
            let mut pv = Vec::with_capacity((whi - wlo + 1) as usize);
            let mut pv2 = Vec::with_capacity((whi - wlo + 1) as usize);
            // An alive lane means the stage ran to `d1`, so `prev` holds
            // diagonal `d1` at shift `kk >> 1` and `prev2` holds `d1 - 1`
            // at shift `(kk - 1) >> 1`. Parked rows are unshifted.
            for r in wlo..=whi {
                let q = r - off[l];
                pv.push(self.prev[idx(q - (kk >> 1)) + l]);
                pv2.push(self.prev2[idx(q - ((kk - 1) >> 1)) + l]);
            }
            outcomes.push(LaneOutcome::Live(Cont {
                task: seats[l].task,
                best: bestv[l] as i32,
                aext: aextv[l] as i32,
                bext: bextv[l] as i32,
                cells,
                l1,
                l2,
                wlo,
                prev: pv,
                prev2: pv2,
            }));
        }
        outcomes
    }
}

/// Extends `pairs` with every engine in `engines` sharing one set of refill
/// pools (see [`RefillPools::pick`]). The first engine runs on the calling
/// thread and routes ineligible pairs to its `i32` fallback; each other
/// engine gets a scoped thread, but only as many engines run as there are
/// full cohorts of eligible pairs, so a batch that fits one cohort spawns
/// nothing. A pair's [`Extension`] does not depend on which cohort it rides
/// in, and results are keyed by task id, so the output is the same for
/// any engine count; only the engines' cohort, lane-fill and `max_parked`
/// counters depend on the schedule.
fn extend_shared(
    engines: &mut [BatchedXDropAligner],
    pairs: &[(PackedView<'_>, PackedView<'_>)],
    sc: &ScoringScheme,
    x: i32,
) -> Vec<Extension> {
    let (lead, rest) = engines
        .split_first_mut()
        .expect("extend_shared needs at least one engine");
    let pools = RefillPools::seed(lead, pairs, sc, x);
    let cohorts = pools.pools[0].len().div_ceil(lead.path.lane_width());
    let helpers = rest.len().min(cohorts.saturating_sub(1));
    let shared = Mutex::new(pools);
    std::thread::scope(|s| {
        for eng in &mut rest[..helpers] {
            let shared = &shared;
            s.spawn(move || eng.refill_worker(shared, pairs, sc, x));
        }
        lead.refill_worker(&shared, pairs, sc, x);
    });
    shared
        .into_inner()
        .expect("a refill worker panicked while holding the pools")
        .out
}

/// Builds the final [`Extension`] from a lane's i16 state.
fn lane_extension(best: i16, aext: i16, bext: i16, cells: u64) -> Extension {
    debug_assert!(best >= 0 && aext >= 0 && bext >= 0);
    Extension {
        score: best as i32,
        a_ext: aext as usize,
        b_ext: bext as usize,
        cells,
    }
}

/// Fills lane `l` of a stripe: position `p` (from `p_base` to `p_hi`) holds
/// the augmented code of `view[p + shift]`, with out-of-range and ambiguous
/// bases as `ambig`.
#[allow(clippy::too_many_arguments)]
fn stripe_fill(
    stripe: &mut [i16],
    lanes: usize,
    l: usize,
    view: &PackedView<'_>,
    p_base: i32,
    p_hi: i32,
    shift: i32,
    ambig: i16,
) {
    let mut p = p_base;
    while p <= p_hi {
        let (codes, nmask) = view.window32((p + shift) as isize);
        let chunk = ((p_hi - p + 1) as usize).min(32);
        for (t, slot) in stripe
            .chunks_exact_mut(lanes)
            .skip((p - p_base) as usize)
            .take(chunk)
            .enumerate()
        {
            let sh = 2 * t;
            slot[l] = if (nmask >> sh) & 3 != 0 {
                ambig
            } else {
                ((codes >> sh) & 3) as i16
            };
        }
        p += 32;
    }
}

/// Shared scalar parameters of one antidiagonal sweep.
///
/// DP rows live in *skewed* storage coordinates `u = q - ((d - d0) >> 1)`:
/// the whole cohort's window shifts down by one row every other diagonal,
/// cancelling the common-mode band drift (a band tracking its pair's main
/// diagonal advances ~0.5 rows per antidiagonal). The shift is uniform
/// across lanes, so it costs nothing in the sweep — each of the three
/// rolling arrays just gets its own base (`cb`/`pb`/`p2b`, the bases of
/// the current, previous, and twice-previous diagonals' storage).
struct SweepArgs {
    lanes: usize,
    /// Band-relative sweep range `[q0, q1]` (the union band ± guard slots).
    q0: i32,
    q1: i32,
    d: i32,
    /// Storage base of `cur`: row `q` of diagonal `d` lives at
    /// `(q - cb) * lanes`.
    cb: i32,
    /// Storage base of `prev` (diagonal `d - 1`).
    pb: i32,
    /// Storage base of `prev2` (diagonal `d - 2`).
    p2b: i32,
    a_base: i32,
    b_base: i32,
    ms: i16,
    dl: i16,
    gap: i16,
    x: i16,
}

/// Portable scalar-per-lane sweep — the reference semantics the vector
/// paths replicate operation-for-operation (saturating adds included).
#[allow(clippy::too_many_arguments)]
fn sweep_diag_portable(
    a: &SweepArgs,
    prev2: &[i16],
    prev: &[i16],
    cur: &mut [i16],
    astrip: &[i16],
    bstrip: &[i16],
    lov: &[i16; MAX_LANES],
    hiv: &[i16; MAX_LANES],
    vdo: &[i16; MAX_LANES],
    voff: &[i16; MAX_LANES],
    bestv: &mut [i16; MAX_LANES],
    aextv: &mut [i16; MAX_LANES],
    bextv: &mut [i16; MAX_LANES],
    cutv: &mut [i16; MAX_LANES],
    newlov: &mut [i16; MAX_LANES],
    newhiv: &mut [i16; MAX_LANES],
) {
    let lw = a.lanes;
    for q in a.q0..=a.q1 {
        let qs = q as i16;
        let ci = ((q - a.cb) as usize) * lw;
        let pi = ((q - a.pb) as usize) * lw;
        let p2i = ((q - a.p2b) as usize) * lw;
        let ai = ((q - a.a_base) as usize) * lw;
        let bi = ((a.d - q - a.b_base) as usize) * lw;
        for l in 0..lw {
            let sub = if astrip[ai + l] == bstrip[bi + l] {
                a.ms
            } else {
                a.ms - a.dl
            };
            let h = prev2[p2i - lw + l]
                .saturating_add(sub)
                .max(prev[pi - lw + l].saturating_add(a.gap))
                .max(prev[pi + l].saturating_add(a.gap));
            let hp = if h < cutv[l] { NEG16 } else { h };
            let inb = qs >= lov[l] && qs <= hiv[l];
            let touch = qs >= lov[l] - 2 && qs <= hiv[l] + 2;
            if inb {
                cur[ci + l] = hp;
                if hp > bestv[l] {
                    bestv[l] = hp;
                    aextv[l] = qs + voff[l];
                    bextv[l] = vdo[l] - qs;
                    cutv[l] = hp.saturating_sub(a.x);
                }
                if hp > NEG16 {
                    newlov[l] = newlov[l].min(qs);
                    newhiv[l] = qs;
                }
            } else if touch {
                cur[ci + l] = NEG16; // guard sentinel
            }
        }
    }
}

/// AVX2 / AVX-512BW sweeps. Each computes exactly the portable sweep's
/// values in the same per-lane order (ascending `q` within the diagonal),
/// so the three paths are bit-identical by construction; the
/// `interseq_equivalence` proptests pin them against each other and
/// against the scalar kernel.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{SweepArgs, MAX_LANES, NEG16};
    use std::arch::x86_64::*;

    /// AVX2 sweep: 16 × i16 lanes.
    ///
    /// # Safety
    /// Requires AVX2. All slices must be lane-major with stride
    /// `args.lanes == 16`, rows covering `[q0 - 1, q1]`, the a-stripe
    /// covering `[q0, q1]`, and the b-stripe covering `[d - q1, d - q0]`
    /// (the windows `run_cohort` sizes).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn sweep_diag_avx2(
        a: &SweepArgs,
        prev2: &[i16],
        prev: &[i16],
        cur: &mut [i16],
        astrip: &[i16],
        bstrip: &[i16],
        lov: &[i16; MAX_LANES],
        hiv: &[i16; MAX_LANES],
        vdo: &[i16; MAX_LANES],
        voff: &[i16; MAX_LANES],
        bestv: &mut [i16; MAX_LANES],
        aextv: &mut [i16; MAX_LANES],
        bextv: &mut [i16; MAX_LANES],
        cutv: &mut [i16; MAX_LANES],
        newlov: &mut [i16; MAX_LANES],
        newhiv: &mut [i16; MAX_LANES],
    ) {
        const LW: usize = 16;
        debug_assert_eq!(a.lanes, LW);
        let ld = |p: *const i16| _mm256_loadu_si256(p as *const __m256i);
        let one = _mm256_set1_epi16(1);
        let three = _mm256_set1_epi16(3);
        let vneg = _mm256_set1_epi16(NEG16);
        let vmm = _mm256_set1_epi16(a.ms - a.dl);
        let vdl = _mm256_set1_epi16(a.dl);
        let vgap = _mm256_set1_epi16(a.gap);
        let vx = _mm256_set1_epi16(a.x);
        let lovv = ld(lov.as_ptr());
        let hivv = ld(hiv.as_ptr());
        let lovm1 = _mm256_sub_epi16(lovv, one);
        let lovm3 = _mm256_sub_epi16(lovv, three);
        let hivp1 = _mm256_add_epi16(hivv, one);
        let hivp3 = _mm256_add_epi16(hivv, three);
        let vdov = ld(vdo.as_ptr());
        let voffv = ld(voff.as_ptr());
        let mut vbest = ld(bestv.as_ptr());
        let mut vaext = ld(aextv.as_ptr());
        let mut vbext = ld(bextv.as_ptr());
        let mut vcut = ld(cutv.as_ptr());
        let mut vnlo = ld(newlov.as_ptr());
        let mut vnhi = ld(newhiv.as_ptr());

        for q in a.q0..=a.q1 {
            let vq = _mm256_set1_epi16(q as i16);
            let ci = ((q - a.cb) as usize) * LW;
            let pi = ((q - a.pb) as usize) * LW;
            let p2i = ((q - a.p2b) as usize) * LW;
            let ai = ((q - a.a_base) as usize) * LW;
            let bi = ((a.d - q - a.b_base) as usize) * LW;
            let eq = _mm256_cmpeq_epi16(ld(astrip.as_ptr().add(ai)), ld(bstrip.as_ptr().add(bi)));
            let sub = _mm256_add_epi16(vmm, _mm256_and_si256(eq, vdl));
            let h = _mm256_max_epi16(
                _mm256_adds_epi16(ld(prev2.as_ptr().add(p2i - LW)), sub),
                _mm256_max_epi16(
                    _mm256_adds_epi16(ld(prev.as_ptr().add(pi - LW)), vgap),
                    _mm256_adds_epi16(ld(prev.as_ptr().add(pi)), vgap),
                ),
            );
            let hp = _mm256_blendv_epi8(h, vneg, _mm256_cmpgt_epi16(vcut, h));
            let inb =
                _mm256_and_si256(_mm256_cmpgt_epi16(vq, lovm1), _mm256_cmpgt_epi16(hivp1, vq));
            let touch =
                _mm256_and_si256(_mm256_cmpgt_epi16(vq, lovm3), _mm256_cmpgt_epi16(hivp3, vq));
            let old = ld(cur.as_ptr().add(ci));
            let st = _mm256_blendv_epi8(_mm256_blendv_epi8(old, vneg, touch), hp, inb);
            _mm256_storeu_si256(cur.as_mut_ptr().add(ci) as *mut __m256i, st);
            let bm = _mm256_and_si256(_mm256_cmpgt_epi16(hp, vbest), inb);
            vbest = _mm256_blendv_epi8(vbest, hp, bm);
            vaext = _mm256_blendv_epi8(vaext, _mm256_add_epi16(vq, voffv), bm);
            vbext = _mm256_blendv_epi8(vbext, _mm256_sub_epi16(vdov, vq), bm);
            vcut = _mm256_blendv_epi8(vcut, _mm256_subs_epi16(hp, vx), bm);
            let lv = _mm256_and_si256(_mm256_cmpgt_epi16(hp, vneg), inb);
            vnlo = _mm256_blendv_epi8(vnlo, _mm256_min_epi16(vnlo, vq), lv);
            vnhi = _mm256_blendv_epi8(vnhi, vq, lv);
        }
        _mm256_storeu_si256(bestv.as_mut_ptr() as *mut __m256i, vbest);
        _mm256_storeu_si256(aextv.as_mut_ptr() as *mut __m256i, vaext);
        _mm256_storeu_si256(bextv.as_mut_ptr() as *mut __m256i, vbext);
        _mm256_storeu_si256(cutv.as_mut_ptr() as *mut __m256i, vcut);
        _mm256_storeu_si256(newlov.as_mut_ptr() as *mut __m256i, vnlo);
        _mm256_storeu_si256(newhiv.as_mut_ptr() as *mut __m256i, vnhi);
    }

    /// AVX-512BW sweep: 32 × i16 lanes with mask-register predication.
    ///
    /// # Safety
    /// Requires AVX-512BW; array-window requirements as in
    /// [`sweep_diag_avx2`], with stride `args.lanes == 32`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512bw")]
    pub unsafe fn sweep_diag_avx512(
        a: &SweepArgs,
        prev2: &[i16],
        prev: &[i16],
        cur: &mut [i16],
        astrip: &[i16],
        bstrip: &[i16],
        lov: &[i16; MAX_LANES],
        hiv: &[i16; MAX_LANES],
        vdo: &[i16; MAX_LANES],
        voff: &[i16; MAX_LANES],
        bestv: &mut [i16; MAX_LANES],
        aextv: &mut [i16; MAX_LANES],
        bextv: &mut [i16; MAX_LANES],
        cutv: &mut [i16; MAX_LANES],
        newlov: &mut [i16; MAX_LANES],
        newhiv: &mut [i16; MAX_LANES],
    ) {
        const LW: usize = 32;
        debug_assert_eq!(a.lanes, LW);
        let ld = |p: *const i16| _mm512_loadu_si512(p as *const __m512i);
        let one = _mm512_set1_epi16(1);
        let three = _mm512_set1_epi16(3);
        let vneg = _mm512_set1_epi16(NEG16);
        let vmm = _mm512_set1_epi16(a.ms - a.dl);
        let vdl = _mm512_set1_epi16(a.dl);
        let vgap = _mm512_set1_epi16(a.gap);
        let vx = _mm512_set1_epi16(a.x);
        let lovv = ld(lov.as_ptr());
        let hivv = ld(hiv.as_ptr());
        let lovm1 = _mm512_sub_epi16(lovv, one);
        let lovm3 = _mm512_sub_epi16(lovv, three);
        let hivp1 = _mm512_add_epi16(hivv, one);
        let hivp3 = _mm512_add_epi16(hivv, three);
        let vdov = ld(vdo.as_ptr());
        let voffv = ld(voff.as_ptr());
        let mut vbest = ld(bestv.as_ptr());
        let mut vaext = ld(aextv.as_ptr());
        let mut vbext = ld(bextv.as_ptr());
        let mut vcut = ld(cutv.as_ptr());
        let mut vnlo = ld(newlov.as_ptr());
        let mut vnhi = ld(newhiv.as_ptr());

        for q in a.q0..=a.q1 {
            let vq = _mm512_set1_epi16(q as i16);
            let ci = ((q - a.cb) as usize) * LW;
            let pi = ((q - a.pb) as usize) * LW;
            let p2i = ((q - a.p2b) as usize) * LW;
            let ai = ((q - a.a_base) as usize) * LW;
            let bi = ((a.d - q - a.b_base) as usize) * LW;
            let eq: __mmask32 =
                _mm512_cmpeq_epi16_mask(ld(astrip.as_ptr().add(ai)), ld(bstrip.as_ptr().add(bi)));
            let sub = _mm512_mask_add_epi16(vmm, eq, vmm, vdl);
            let h = _mm512_max_epi16(
                _mm512_adds_epi16(ld(prev2.as_ptr().add(p2i - LW)), sub),
                _mm512_max_epi16(
                    _mm512_adds_epi16(ld(prev.as_ptr().add(pi - LW)), vgap),
                    _mm512_adds_epi16(ld(prev.as_ptr().add(pi)), vgap),
                ),
            );
            let hp = _mm512_mask_blend_epi16(_mm512_cmpgt_epi16_mask(vcut, h), h, vneg);
            let inb: __mmask32 =
                _mm512_cmpgt_epi16_mask(vq, lovm1) & _mm512_cmpgt_epi16_mask(hivp1, vq);
            let touch: __mmask32 =
                _mm512_cmpgt_epi16_mask(vq, lovm3) & _mm512_cmpgt_epi16_mask(hivp3, vq);
            let old = ld(cur.as_ptr().add(ci));
            let st = _mm512_mask_blend_epi16(inb, _mm512_mask_blend_epi16(touch, old, vneg), hp);
            _mm512_storeu_si512(cur.as_mut_ptr().add(ci) as *mut __m512i, st);
            let bm: __mmask32 = _mm512_cmpgt_epi16_mask(hp, vbest) & inb;
            vbest = _mm512_mask_blend_epi16(bm, vbest, hp);
            vaext = _mm512_mask_blend_epi16(bm, vaext, _mm512_add_epi16(vq, voffv));
            vbext = _mm512_mask_blend_epi16(bm, vbext, _mm512_sub_epi16(vdov, vq));
            vcut = _mm512_mask_blend_epi16(bm, vcut, _mm512_subs_epi16(hp, vx));
            let lv: __mmask32 = _mm512_cmpgt_epi16_mask(hp, vneg) & inb;
            vnlo = _mm512_mask_min_epi16(vnlo, lv, vnlo, vq);
            vnhi = _mm512_mask_blend_epi16(lv, vnhi, vq);
        }
        _mm512_storeu_si512(bestv.as_mut_ptr() as *mut __m512i, vbest);
        _mm512_storeu_si512(aextv.as_mut_ptr() as *mut __m512i, vaext);
        _mm512_storeu_si512(bextv.as_mut_ptr() as *mut __m512i, vbext);
        _mm512_storeu_si512(cutv.as_mut_ptr() as *mut __m512i, vcut);
        _mm512_storeu_si512(newlov.as_mut_ptr() as *mut __m512i, vnlo);
        _mm512_storeu_si512(newhiv.as_mut_ptr() as *mut __m512i, vnhi);
    }
}

// ---------------------------------------------------------------------------
// Candidate-batch driver
// ---------------------------------------------------------------------------

/// Aligns a candidate batch with the batched engine: builds the
/// [`BatchPlan`], then per bucket expands each candidate into its two
/// extension tasks (strand-normalised views: the right extension from the
/// seed end, the left one over reversed prefixes), runs the engines, and
/// assembles records. Records come back in input order; the per-record
/// values are bit-identical to the scalar reference.
///
/// Runs one engine per core ([`std::thread::available_parallelism`]); the
/// engines of a bucket share its refill pools, so every core works on the
/// bucket that holds nearly all the candidates. The returned stats are the
/// engines' merged counters.
pub fn align_candidates_batched(
    reads: &ReadSet,
    tasks: &[Candidate],
    params: &AlignParams,
) -> (Vec<AlignmentRecord>, BatchStats) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut engines: Vec<BatchedXDropAligner> =
        (0..cores).map(|_| BatchedXDropAligner::new()).collect();
    let records = align_candidates_batched_with(&mut engines, reads, tasks, params);
    let mut stats = BatchStats::default();
    for engine in &engines {
        stats.merge(&engine.stats());
    }
    (records, stats)
}

/// [`align_candidates_batched`] with caller-owned engines (reused scratch,
/// explicit ISA paths and engine count, accumulated stats). The plan's
/// cohort width is the first engine's lane width.
///
/// # Panics
/// Panics if `engines` is empty.
pub fn align_candidates_batched_with(
    engines: &mut [BatchedXDropAligner],
    reads: &ReadSet,
    tasks: &[Candidate],
    params: &AlignParams,
) -> Vec<AlignmentRecord> {
    assert!(!engines.is_empty(), "at least one engine is needed");
    let plan = BatchPlan::build(reads, tasks, engines[0].path().lane_width());
    let mut slots: Vec<Option<AlignmentRecord>> = vec![None; tasks.len()];
    for bucket in &plan.buckets {
        let ids = &plan.order[bucket.first as usize..(bucket.first + bucket.count) as usize];
        let geoms: Vec<_> = ids
            .iter()
            .map(|&t| {
                let cand = &tasks[t as usize];
                packed_candidate_geometry(
                    reads.packed_read(cand.a as usize),
                    reads.packed_read(cand.b as usize),
                    cand,
                    params.k,
                    &params.scoring,
                )
            })
            .collect();
        let mut pairs = Vec::with_capacity(2 * geoms.len());
        for g in &geoms {
            pairs.push((
                g.a.suffix(g.a_pos + params.k),
                g.b_norm.suffix(g.b_pos + params.k),
            ));
            pairs.push((g.a.rev_prefix(g.a_pos), g.b_norm.rev_prefix(g.b_pos)));
        }
        let exts = extend_shared(engines, &pairs, &params.scoring, params.x);
        for (i, (&t, g)) in ids.iter().zip(&geoms).enumerate() {
            let (right, left) = (&exts[2 * i], &exts[2 * i + 1]);
            slots[t as usize] = Some(assemble_record(
                &tasks[t as usize],
                g.seed_score,
                left,
                right,
                g.a_pos,
                g.b_pos,
                params.k,
                g.a.len(),
                g.b_norm.len(),
                &params.criteria,
            ));
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every candidate scheduled exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xdrop::xdrop_extend;
    use gnb_genome::PackedSeq;

    const SC: ScoringScheme = ScoringScheme::DEFAULT;

    fn check_batch(pairs_bytes: &[(&[u8], &[u8])], x: i32) {
        let packed: Vec<(PackedSeq, PackedSeq)> = pairs_bytes
            .iter()
            .map(|(a, b)| (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b)))
            .collect();
        let views: Vec<(PackedView<'_>, PackedView<'_>)> = packed
            .iter()
            .map(|(a, b)| {
                (
                    PackedView::full(a.as_slice()),
                    PackedView::full(b.as_slice()),
                )
            })
            .collect();
        let want: Vec<Extension> = pairs_bytes
            .iter()
            .map(|(a, b)| xdrop_extend(a, b, &SC, x))
            .collect();
        for path in [IsaPath::Portable, IsaPath::Avx2, IsaPath::Avx512] {
            if !path.is_available() {
                continue;
            }
            let mut eng = BatchedXDropAligner::with_path(path);
            let got = eng.extend_batch(&views, &SC, x);
            assert_eq!(got, want, "path {path:?} diverges at x={x}");
        }
    }

    #[test]
    fn matches_scalar_on_basics() {
        let pairs: Vec<(&[u8], &[u8])> = vec![
            (b"ACGTACGT", b"ACGTACGT"),
            (b"ACGTACGTAC", b"ACGTTCGTAC"),
            (b"ACGTACGTACGT", b"ACGTACTACGT"),
            (b"ACGGTTTTT", b"ACGGAAAAA"),
            (b"ACGTACGTACGTACGT", b"ACGT"),
            (b"", b""),
            (b"ACGT", b""),
            (b"", b"ACGT"),
            (b"ACGTNACGT", b"ACGTNACGT"),
            (b"NNNN", b"NNNN"),
        ];
        for x in [0, 5, 25, 100] {
            check_batch(&pairs, x);
        }
    }

    #[test]
    fn matches_scalar_on_long_noisy_batch() {
        let mk = |salt: usize, n: usize| -> Vec<u8> {
            (0..n)
                .map(|i| b"ACGT"[(i * 7 + salt * 13 + i / 5) % 4])
                .collect()
        };
        let mut owned: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for s in 0..9 {
            let a = mk(s, 500 + 400 * s);
            let mut b = a.clone();
            for i in (s..b.len()).step_by(17 + s) {
                b[i] = b"ACGT"[(b[i] as usize + 1) % 4];
            }
            owned.push((a, b));
        }
        // A couple of false-positive pairs that die early (refill path).
        owned.push((mk(1, 800), mk(7, 900)));
        owned.push((mk(2, 2000), mk(8, 2000)));
        let pairs: Vec<(&[u8], &[u8])> = owned
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        for x in [1, 25, 400] {
            check_batch(&pairs, x);
        }
    }

    #[test]
    fn ineligible_pairs_take_fallback() {
        // A scheme too hot for i16 routes through the i32 retry path and
        // still matches the scalar kernel.
        let sc = ScoringScheme::new(2000, -2500, -2500);
        let a: Vec<u8> = (0..300).map(|i| b"ACGT"[(i * 7 + 1) % 4]).collect();
        let b = a.clone();
        let pa = PackedSeq::from_bytes(&a);
        let pb = PackedSeq::from_bytes(&b);
        let mut eng = BatchedXDropAligner::new();
        let got = eng.extend_batch(
            &[(
                PackedView::full(pa.as_slice()),
                PackedView::full(pb.as_slice()),
            )],
            &sc,
            50,
        );
        assert_eq!(got[0], xdrop_extend(&a, &b, &sc, 50));
        assert_eq!(eng.stats().fallback_tasks, 1);
    }

    #[test]
    fn length_buckets_bound_spread() {
        let sums = vec![4000, 3900, 2100, 2000, 1999, 800, 10, 10, 9];
        let lb = LengthBuckets::build(&sums);
        let mut covered = 0u32;
        for b in &lb.buckets {
            assert!(2 * b.min_len_sum >= b.max_len_sum, "spread > 2x: {b:?}");
            assert_eq!(b.first, covered);
            covered += b.count;
        }
        assert_eq!(covered as usize, sums.len());
    }

    #[test]
    fn stats_track_occupancy() {
        let a: Vec<u8> = (0..1000).map(|i| b"ACGT"[(i * 3 + 1) % 4]).collect();
        let pa = PackedSeq::from_bytes(&a);
        let v = PackedView::full(pa.as_slice());
        let mut eng = BatchedXDropAligner::new();
        let pairs: Vec<_> = (0..eng.path().lane_width()).map(|_| (v, v)).collect();
        let _ = eng.extend_batch(&pairs, &SC, 25);
        let st = eng.stats();
        assert_eq!(st.tasks, pairs.len() as u64);
        assert!(st.cohorts >= 1);
        assert!(
            st.lane_fill() > 0.9,
            "identical pairs must fill lanes: {st:?}"
        );
    }

    #[test]
    fn parked_continuations_stay_bounded_by_lanes_times_stages() {
        // Near-identical 150-bp pairs extend to diagonal ~300, crossing the
        // stage boundaries 64, 128 and 256: four stages. Seating the
        // deepest full pool first keeps the parked set within
        // lanes × stages whatever the bucket size; seating the shallowest
        // first would park every stage-0 survivor of the bucket at once.
        const STAGES: usize = 4;
        let a: Vec<u8> = (0..150).map(|i| b"ACGT"[(i * 7 + i / 5 + 3) % 4]).collect();
        let mut b = a.clone();
        for i in (0..b.len()).step_by(23) {
            b[i] = b"ACGT"[(b[i] as usize + 1) % 4];
        }
        let (pa, pb) = (PackedSeq::from_bytes(&a), PackedSeq::from_bytes(&b));
        let pair = (
            PackedView::full(pa.as_slice()),
            PackedView::full(pb.as_slice()),
        );
        let want = xdrop_extend(&a, &b, &SC, 25);
        let lanes = BatchedXDropAligner::new().path().lane_width();
        let n = lanes * STAGES;
        for count in [n, 4 * n] {
            let pairs = vec![pair; count];
            // One engine, through the public entry point.
            let mut eng = BatchedXDropAligner::new();
            let got = eng.extend_batch(&pairs, &SC, 25);
            assert!(got.iter().all(|e| *e == want));
            let one = eng.stats();

            // Two engines sharing the pools, stepped in lockstep on this
            // thread: each files its last cohort and takes the next while
            // the other still holds one — the interleaving of two threads
            // that always have a cohort in flight, forced deterministically.
            let mut engines = [BatchedXDropAligner::new(), BatchedXDropAligner::new()];
            let shared = Mutex::new(RefillPools::seed(&mut engines[0], &pairs, &SC, 25));
            let mut pending: [Pending; 2] = [None, None];
            let mut running = [true, true];
            while running.contains(&true) {
                for (w, eng) in engines.iter_mut().enumerate() {
                    if running[w] {
                        running[w] = eng.refill_step(&shared, &pairs, &SC, 25, &mut pending[w]);
                    }
                }
            }
            let got = shared.into_inner().expect("no worker panicked").out;
            assert!(got.iter().all(|e| *e == want));
            assert!(engines.iter().all(|e| e.stats().cohorts > 0));
            let mut two = BatchStats::default();
            for eng in &engines {
                two.merge(&eng.stats());
            }

            for (workers, st) in [(1, one), (2, two)] {
                assert_eq!(st.tasks, count as u64);
                assert!(
                    st.max_parked >= lanes as u64,
                    "every pair outlives stage 0: {st:?}"
                );
                assert!(
                    st.max_parked <= (2 * lanes * STAGES) as u64,
                    "{count} pairs on {workers} engines parked {} continuations on {lanes} lanes",
                    st.max_parked
                );
            }
        }
    }
}
