//! `gnb-bench`: the repository's performance regression harness.
//!
//! Criterion in this workspace is an offline stub, so this binary rolls its
//! own measurement discipline: every benchmark runs `warmup` discarded
//! passes (page-in, frequency settling, branch-predictor training), then
//! `reps` timed samples, and reports the **median** plus the **median
//! absolute deviation** (the host is shared and noisy; medians are robust
//! to a single preempted sample, and the MAD makes a drifting host visible
//! in the committed JSON instead of silently widening regressions). Ratios
//! between kernels are always computed from samples taken in the same
//! process run, which is the stable quantity even when absolute rates
//! drift with host load.
//!
//! Three benchmark groups, two JSON reports at the repository root:
//!
//! * `BENCH_kernels.json` — X-drop DP-cell throughput of the three kernels
//!   (scalar reference, packed `i32` fallback, batched production engine)
//!   on the true-overlap calibration pair and on a false-positive
//!   early-exit workload, plus end-to-end batch throughput on a real
//!   pipeline candidate set: `align_batch` against its scalar reference
//!   `align_batch_serial`.
//! * `BENCH_sim.json` — DES event-queue operation rates (arena queue vs an
//!   in-bench replica of the pre-arena payload-carrying heap, and a
//!   busy-rank deferral convoy through the per-rank deferral runs vs the
//!   plain-heap requeue route), engine
//!   events/sec on a message-heavy ring program, the conservative-parallel
//!   engine's `engine_parallel_{1,2,4,8}t` shard-scaling series on the
//!   same ring, and an end-to-end async coordination run.
//!
//! The JSON is hand-rolled (no serializer dependency) and kept strictly
//! valid: CI's `perf-smoke` job parses it with `python3 -m json.tool` and
//! fails on malformed output. `--quick` shrinks targets and rep counts for
//! smoke use.

use gnb_align::batch::{align_batch, align_batch_serial, AlignParams, BatchOutcome};
use gnb_align::calibrate::calibration_pair;
use gnb_align::interseq::{align_candidates_batched_with, detected_features};
use gnb_align::packed::simd_active;
use gnb_align::seed_extend::AcceptCriteria;
use gnb_align::{BatchedXDropAligner, PackedView, PackedXDropAligner, ScoringScheme, XDropAligner};
use gnb_bench::CliArgs;
use gnb_core::driver::{run_sim, Algorithm, RunConfig};
use gnb_genome::{presets, PackedSeq, ReadSet};
use gnb_kmer::{count_kmers, BellaModel, SeedIndex};
use gnb_overlap::candidates::generate_candidates;
use gnb_sim::engine::{Ctx, Program, TimeCategory};
use gnb_sim::event::{EventPayload, EventQueue, TieBreak};
use gnb_sim::{Engine, NetParams, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------------

/// Measurement configuration (full vs `--quick`).
struct Cfg {
    quick: bool,
    /// Discarded warm-up passes before the timed samples.
    warmup: usize,
    /// Timed samples per benchmark (median reported).
    reps: usize,
    /// DP-cell target per kernel sample on the true-overlap calibration
    /// pair.
    cells_true: u64,
    /// DP-cell target per sample on the false-positive workload.
    cells_fp: u64,
    /// Workload scale divisor for the batch + end-to-end benchmarks.
    scale: usize,
    /// Ring-program hop count.
    ring_hops: u32,
    /// Event-queue micro-benchmark operation count.
    queue_ops: usize,
    /// `--filter <substr>`: only run benchmarks whose name contains the
    /// substring. Filtered runs never overwrite the committed JSON reports
    /// (a partial series would fail CI's completeness checks).
    filter: Option<String>,
}

impl Cfg {
    fn new(quick: bool, filter: Option<String>) -> Cfg {
        if quick {
            Cfg {
                quick,
                warmup: 1,
                reps: 3,
                cells_true: 4_000_000,
                cells_fp: 400_000,
                scale: 2048,
                ring_hops: 500,
                queue_ops: 200_000,
                filter,
            }
        } else {
            Cfg {
                quick,
                warmup: 2,
                reps: 7,
                cells_true: 20_000_000,
                cells_fp: 2_000_000,
                scale: 1024,
                ring_hops: 2_000,
                queue_ops: 1_000_000,
                filter,
            }
        }
    }

    /// Whether `--filter` admits this benchmark name.
    fn wants(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| name.contains(f.as_str()))
    }
}

/// Runs [`sample`] unless the name fails the `--filter` substring test.
fn sample_if<F: FnMut() -> f64>(cfg: &Cfg, name: &str, unit: &'static str, f: F) -> Option<Row> {
    cfg.wants(name)
        .then(|| sample(name, unit, cfg.warmup, cfg.reps, f))
}

/// One benchmark result: named samples in a fixed unit.
struct Row {
    name: String,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Row {
    fn median(&self) -> f64 {
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        s[s.len() / 2]
    }

    /// Median absolute deviation from the median: the robust spread
    /// statistic matching the robust centre. A preempted sample inflates a
    /// standard deviation arbitrarily but moves the MAD by at most one
    /// rank, so a large MAD genuinely means an unstable series.
    fn mad(&self) -> f64 {
        let med = self.median();
        let mut dev: Vec<f64> = self.samples.iter().map(|&s| (s - med).abs()).collect();
        dev.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        dev[dev.len() / 2]
    }
}

/// Runs `reps` timed samples of `f` (which returns a rate) after `warmup`
/// discarded passes, collecting them into a [`Row`].
fn sample<F: FnMut() -> f64>(
    name: &str,
    unit: &'static str,
    warmup: usize,
    reps: usize,
    mut f: F,
) -> Row {
    for _ in 0..warmup.max(1) {
        let _ = f(); // discarded: page in buffers, settle frequency scaling
    }
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    let row = Row {
        name: name.to_string(),
        unit,
        samples,
    };
    println!("  {:<42} {:>12.4e} {}", row.name, row.median(), row.unit);
    row
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6e}")
    } else {
        "null".to_string()
    }
}

/// Renders one report as strictly valid JSON (names are ASCII identifiers;
/// no string escaping needed).
fn render_json(cfg: &Cfg, rows: &[Row], ratios: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"harness\": \"gnb-bench\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg.quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"warmup\": {},\n", cfg.warmup));
    out.push_str(&format!("  \"reps\": {},\n", cfg.reps));
    out.push_str(&format!("  \"avx2\": {},\n", simd_active()));
    out.push_str(&format!(
        "  \"nproc\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let isa: Vec<String> = detected_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    out.push_str(&format!("  \"isa\": [{}],\n", isa.join(", ")));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let samples: Vec<String> = r.samples.iter().map(|&s| json_num(s)).collect();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"median\": {}, \"mad\": {}, \"samples\": [{}]}}{}\n",
            r.name,
            r.unit,
            json_num(r.median()),
            json_num(r.mad()),
            samples.join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"ratios\": {\n");
    for (i, (name, v)) in ratios.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            name,
            json_num(*v),
            if i + 1 < ratios.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

// ---------------------------------------------------------------------------
// Kernel benchmarks
// ---------------------------------------------------------------------------

/// False-positive workload: two decorrelated pseudo-random sequences. The
/// band collapses within a few dozen antidiagonals, so each extension is
/// tiny and per-call overhead matters — the regime the paper's
/// false-positive seeds put the kernel in.
fn fp_pair() -> (Vec<u8>, Vec<u8>) {
    let bases = b"ACGT";
    let a: Vec<u8> = (0..2000).map(|i| bases[(i * 7 + i / 5 + 3) % 4]).collect();
    let b: Vec<u8> = (0..2000).map(|i| bases[(i * 11 + i / 3 + 1) % 4]).collect();
    (a, b)
}

/// X-drop threshold of the true-overlap series (the calibration's).
const X_TRUE: i32 = 50;
/// X-drop threshold of the false-positive series.
const X_FP: i32 = 25;

// The kernel benchmarks take their workload and aligner scratch by
// reference: constructing them inside the sampled closure (as earlier
// versions did) let the allocator hand each warmup/sample pass a different
// placement for the hot arrays, which split the samples into two stable
// cache-alignment modes ~40% apart (the bimodal `xdrop_false_positive/
// packed` series in the committed history). One construction shared by all
// passes measures the kernel, not the allocator's mood.

fn rate_scalar(al: &mut XDropAligner, a: &[u8], b: &[u8], x: i32, target: u64) -> f64 {
    let sc = ScoringScheme::DEFAULT;
    let start = Instant::now();
    let mut cells = 0u64;
    while cells < target {
        cells += al.extend(a, b, &sc, x).cells;
    }
    cells as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn rate_packed(
    al: &mut PackedXDropAligner,
    va: PackedView<'_>,
    vb: PackedView<'_>,
    x: i32,
    target: u64,
) -> f64 {
    let sc = ScoringScheme::DEFAULT;
    let start = Instant::now();
    let mut cells = 0u64;
    while cells < target {
        cells += al.extend(va, vb, &sc, x).cells;
    }
    cells as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// The batched engine runs a full cohort per call (the pair replicated
/// across every lane), the way batches actually run.
fn rate_batched(
    eng: &mut BatchedXDropAligner,
    pairs: &[(PackedView<'_>, PackedView<'_>)],
    x: i32,
    target: u64,
) -> f64 {
    let sc = ScoringScheme::DEFAULT;
    let start = Instant::now();
    let mut cells = 0u64;
    while cells < target {
        for ext in eng.extend_batch(pairs, &sc, x) {
            cells += ext.cells;
        }
    }
    cells as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// One pair's three kernel series (`<group>/{scalar,packed,batched}`),
/// each kernel's state constructed once and shared by every pass.
fn bench_pair(cfg: &Cfg, group: &str, a: &[u8], b: &[u8], x: i32, target: u64) -> Vec<Row> {
    let (pa, pb) = (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b));
    let (va, vb) = (
        PackedView::full(pa.as_slice()),
        PackedView::full(pb.as_slice()),
    );
    let mut scalar = XDropAligner::new();
    let mut packed = PackedXDropAligner::new();
    let mut batched = BatchedXDropAligner::new();
    let cohort: Vec<_> = (0..batched.path().lane_width()).map(|_| (va, vb)).collect();
    let mut rows = Vec::new();
    rows.extend(sample_if(
        cfg,
        &format!("{group}/scalar"),
        "cells/s",
        || rate_scalar(&mut scalar, a, b, x, target),
    ));
    rows.extend(sample_if(
        cfg,
        &format!("{group}/packed"),
        "cells/s",
        || rate_packed(&mut packed, va, vb, x, target),
    ));
    rows.extend(sample_if(
        cfg,
        &format!("{group}/batched"),
        "cells/s",
        || rate_batched(&mut batched, &cohort, x, target),
    ));
    rows
}

/// Real candidate set for the batch benchmark: the pipeline's discovery
/// stages (k-mer count → BELLA filter → seed index → candidates) run once,
/// then both batch drivers align the identical task list.
fn batch_workload(scale: usize) -> (ReadSet, Vec<gnb_align::Candidate>, AlignParams) {
    let preset = presets::ecoli_30x().scaled(scale);
    let reads = preset.generate(31);
    let mut counts = count_kmers(&reads, 17);
    let model = BellaModel::new(preset.coverage, preset.errors.total_rate(), 17);
    let (lo, hi) = model.reliable_interval();
    counts.filter_frequency(lo, hi);
    let index = SeedIndex::build(&reads, &counts);
    let tasks = generate_candidates(&index);
    let params = AlignParams {
        criteria: AcceptCriteria {
            min_score: 100,
            min_overlap: 300,
        },
        ..AlignParams::default()
    };
    (reads, tasks, params)
}

fn bench_kernels(cfg: &Cfg) -> (Vec<Row>, Vec<(String, f64)>) {
    println!("== kernels ==");
    let mut rows = Vec::new();
    let (ta, tb) = calibration_pair();
    rows.extend(bench_pair(
        cfg,
        "xdrop_true_overlap",
        &ta,
        &tb,
        X_TRUE,
        cfg.cells_true,
    ));
    let (fa, fb) = fp_pair();
    rows.extend(bench_pair(
        cfg,
        "xdrop_false_positive",
        &fa,
        &fb,
        X_FP,
        cfg.cells_fp,
    ));

    let batch_names = [
        "align_batch/scalar",
        "align_batch/batched",
        "interseq_bucket_fill",
    ];
    if batch_names.iter().any(|n| cfg.wants(n)) {
        let (reads, tasks, params) = batch_workload(cfg.scale);
        println!(
            "  (batch workload: {} reads, {} candidate tasks)",
            reads.len(),
            tasks.len()
        );
        let rate = |out: BatchOutcome| out.total_cells as f64 / out.elapsed.as_secs_f64().max(1e-9);
        rows.extend(sample_if(cfg, "align_batch/scalar", "cells/s", || {
            rate(align_batch_serial(&reads, &tasks, &params))
        }));
        rows.extend(sample_if(cfg, "align_batch/batched", "cells/s", || {
            rate(align_batch(&reads, &tasks, &params))
        }));
        // Lane occupancy of the batched engine on the real candidate mix —
        // the fraction of SIMD lane-steps carrying live work, which is what
        // the length buckets + staged refill exist to keep high.
        rows.extend(sample_if(cfg, "interseq_bucket_fill", "ratio", || {
            let mut eng = BatchedXDropAligner::new();
            let _ = align_candidates_batched_with(&mut eng, &reads, &tasks, &params);
            eng.stats().lane_fill()
        }));
    }

    let ratio = |num: &str, den: &str| -> f64 {
        let get = |n: &str| {
            rows.iter()
                .find(|r| r.name == n)
                .map(|r| r.median())
                .unwrap_or(f64::NAN)
        };
        get(num) / get(den)
    };
    let ratios = vec![
        (
            "packed_vs_scalar_true_overlap".to_string(),
            ratio("xdrop_true_overlap/packed", "xdrop_true_overlap/scalar"),
        ),
        (
            "packed_vs_scalar_false_positive".to_string(),
            ratio("xdrop_false_positive/packed", "xdrop_false_positive/scalar"),
        ),
        (
            "batched_vs_packed_true_overlap".to_string(),
            ratio("xdrop_true_overlap/batched", "xdrop_true_overlap/packed"),
        ),
        (
            "batched_vs_packed_false_positive".to_string(),
            ratio(
                "xdrop_false_positive/batched",
                "xdrop_false_positive/packed",
            ),
        ),
        (
            "batched_vs_scalar_batch".to_string(),
            ratio("align_batch/batched", "align_batch/scalar"),
        ),
    ];
    (rows, ratios)
}

// ---------------------------------------------------------------------------
// Simulator benchmarks
// ---------------------------------------------------------------------------

/// The queue micro-benchmark payload: big enough (64 B) that moving it
/// through heap sift operations is visible, like real coordination
/// messages.
type QPayload = [u64; 8];

/// In-bench replica of the pre-arena event queue: heap entries carry their
/// payload, so every sift moves it and every busy-rank deferral pops the
/// payload out and pushes it back in. Kept here (not in `gnb-sim`) purely
/// as the honest "before" for the arena queue's numbers.
struct LegacyEntry {
    time: SimTime,
    seq: u64,
    dst: usize,
    payload: EventPayload<QPayload>,
}

impl PartialEq for LegacyEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for LegacyEntry {}
impl PartialOrd for LegacyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LegacyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: min-heap behaviour on (time, seq), as the engine orders.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct LegacyQueue {
    heap: BinaryHeap<LegacyEntry>,
    next_seq: u64,
}

impl LegacyQueue {
    fn new() -> LegacyQueue {
        LegacyQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
    fn push(&mut self, time: SimTime, dst: usize, payload: EventPayload<QPayload>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(LegacyEntry {
            time,
            seq,
            dst,
            payload,
        });
    }
    fn pop(&mut self) -> Option<LegacyEntry> {
        self.heap.pop()
    }
}

/// Steady-state dispatch pattern shared by both queue benchmarks: a
/// preloaded backlog, then for each op pop the earliest event and either
/// defer it (every 4th op — the busy-rank path) or consume it and schedule
/// a successor. Integer-derived virtual times keep the pattern
/// deterministic.
const QUEUE_BACKLOG: usize = 512;

fn queue_rate_arena(ops: usize) -> f64 {
    let mut q: EventQueue<QPayload> = EventQueue::with_capacity(QUEUE_BACKLOG + 4);
    for i in 0..QUEUE_BACKLOG {
        q.push(
            SimTime::from_ns(i as u64),
            i % 64,
            EventPayload::Message {
                src: i % 64,
                msg: [i as u64; 8],
            },
        );
    }
    let start = Instant::now();
    for i in 0..ops {
        let t = (QUEUE_BACKLOG + i) as u64;
        let ev = q.pop_entry().expect("queue never drains");
        if i % 4 == 0 {
            q.requeue(ev, SimTime::from_ns(t));
        } else {
            let payload = q.resolve(ev);
            q.push(SimTime::from_ns(t), ev.dst, payload);
        }
    }
    ops as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn queue_rate_legacy(ops: usize) -> f64 {
    let mut q = LegacyQueue::new();
    for i in 0..QUEUE_BACKLOG {
        q.push(
            SimTime::from_ns(i as u64),
            i % 64,
            EventPayload::Message {
                src: i % 64,
                msg: [i as u64; 8],
            },
        );
    }
    let start = Instant::now();
    for i in 0..ops {
        let t = (QUEUE_BACKLOG + i) as u64;
        let ev = q.pop().expect("queue never drains");
        // Pre-arena, the busy-rank deferral and the consume-and-reschedule
        // paths are mechanically identical: either way the payload rides
        // the heap out and back in. (The arena queue's deferral skips the
        // payload entirely — that asymmetry is what this pair measures.)
        q.push(SimTime::from_ns(t), ev.dst, ev.payload);
    }
    ops as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Deferral convoy: rank 0 is a busy owner with `CONVOY_DEPTH` requests
/// waiting. Each dispatch keeps it busy for `CONVOY_SERVICE_NS` while a
/// fresh request arrives, so every dispatch re-defers all the others — the
/// busy-owner pattern of the asynchronous strategies. `QUEUE_BACKLOG`
/// background ranks, one event each per `CONVOY_BACKGROUND_PERIOD_NS`,
/// keep the heap populated. The loop is the engine's: defer an event, then
/// re-defer the rest of the run through `pop_deferred`. Under
/// [`TieBreak::Lifo`] the queue keeps no runs, so the same loop measures
/// the plain-heap requeue route. Every pop counts as one op.
const CONVOY_DEPTH: usize = 256;
const CONVOY_SERVICE_NS: u64 = 1_000;
const CONVOY_BACKGROUND_PERIOD_NS: u64 = 8 * CONVOY_SERVICE_NS;

fn queue_rate_convoy(ops: usize, tie_break: TieBreak) -> f64 {
    let mut q: EventQueue<QPayload> = EventQueue::with_capacity(CONVOY_DEPTH + QUEUE_BACKLOG + 1);
    q.set_tie_break(tie_break);
    let msg = |i: usize| EventPayload::Message {
        src: i,
        msg: [i as u64; 8],
    };
    for i in 0..CONVOY_DEPTH {
        q.push(SimTime::ZERO, 0, msg(i));
    }
    for i in 0..QUEUE_BACKLOG {
        let phase = CONVOY_BACKGROUND_PERIOD_NS * i as u64 / QUEUE_BACKLOG as u64;
        q.push(SimTime::from_ns(phase), 1 + i, msg(i));
    }
    let service = SimTime::from_ns(CONVOY_SERVICE_NS);
    let period = SimTime::from_ns(CONVOY_BACKGROUND_PERIOD_NS);
    let mut busy = SimTime::ZERO;
    let mut done = 0;
    let start = Instant::now();
    while done < ops {
        let mut ev = q.pop_entry().expect("queue never drains");
        done += 1;
        if ev.dst != 0 {
            let payload = q.resolve(ev);
            q.push(ev.time + period, ev.dst, payload);
        } else if busy > ev.time {
            loop {
                q.requeue(ev, busy);
                match q.pop_deferred(0, busy) {
                    Some(next) => {
                        ev = next;
                        done += 1;
                    }
                    None => break,
                }
            }
        } else {
            let payload = q.resolve(ev);
            busy = ev.time + service;
            q.push(ev.time, 0, payload);
        }
    }
    done as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Message-heavy engine workload (token ring): each delivery costs one
/// event, so `report.events / elapsed` is engine events/sec.
#[derive(Debug, Clone, Copy)]
enum RingMsg {
    Token { hops: u32 },
}

struct Ring {
    start_hops: u32,
}

impl Program<RingMsg> for Ring {
    fn on_start(&mut self, ctx: &mut Ctx<'_, RingMsg>) {
        let next = (ctx.rank() + 1) % ctx.nranks();
        ctx.send(
            next,
            64,
            RingMsg::Token {
                hops: self.start_hops,
            },
        );
    }
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, RingMsg>,
        _src: usize,
        RingMsg::Token { hops }: RingMsg,
    ) {
        ctx.advance(SimTime::from_ns(200), TimeCategory::Compute);
        if hops > 0 {
            let next = (ctx.rank() + 1) % ctx.nranks();
            ctx.send(next, 64, RingMsg::Token { hops: hops - 1 });
        }
    }
    fn on_barrier(&mut self, _ctx: &mut Ctx<'_, RingMsg>, _id: u64) {}
}

fn ring_events_per_sec(ranks: usize, hops: u32, threads: usize) -> f64 {
    let mut progs: Vec<Ring> = (0..ranks).map(|_| Ring { start_hops: hops }).collect();
    let start = Instant::now();
    let report = Engine::new(ranks, NetParams::default())
        .with_event_capacity(4 * ranks)
        .with_threads(threads)
        .run(&mut progs);
    report.events as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn bench_sim(cfg: &Cfg) -> (Vec<Row>, Vec<(String, f64)>) {
    println!("== simulator ==");
    let mut rows = Vec::new();

    rows.extend(sample_if(cfg, "event_queue/arena", "ops/s", || {
        queue_rate_arena(cfg.queue_ops)
    }));
    rows.extend(sample_if(
        cfg,
        "event_queue/legacy_replica",
        "ops/s",
        || queue_rate_legacy(cfg.queue_ops),
    ));
    rows.extend(sample_if(
        cfg,
        "event_queue/deferral_convoy",
        "ops/s",
        || queue_rate_convoy(cfg.queue_ops, TieBreak::Fifo),
    ));
    rows.extend(sample_if(
        cfg,
        "event_queue/deferral_convoy_heap",
        "ops/s",
        || queue_rate_convoy(cfg.queue_ops, TieBreak::Lifo),
    ));
    rows.extend(sample_if(cfg, "engine_ring_64r/events", "events/s", || {
        ring_events_per_sec(64, cfg.ring_hops, 1)
    }));

    // Conservative-parallel engine scaling on the same ring program. Each
    // shard count produces (by construction, and pinned by the
    // `parallel_equivalence` suite) the byte-identical report, so the
    // series isolates pure engine wall-clock: window coordination overhead
    // at 1 shard-equivalent work, and whatever speedup the host's cores
    // can actually deliver above that. On a single-core CI runner the
    // higher thread counts measure overhead, not speedup — the MAD and the
    // committed host core count make that legible.
    for threads in [1usize, 2, 4, 8] {
        let name = format!("engine_parallel_{threads}t/events");
        rows.extend(sample_if(cfg, &name, "events/s", || {
            ring_events_per_sec(64, cfg.ring_hops, threads)
        }));
    }

    // End-to-end: the async coordination strategy on a scaled E. coli 30x
    // task graph — the engine under its real message mix. Workload prep is
    // the expensive part, so skip it entirely when filtered out.
    if cfg.wants("end_to_end_async/events") {
        let args = CliArgs {
            scale: Some(cfg.scale),
            seed: 42,
        };
        let w = gnb_bench::load_workload("ecoli_30x", &args);
        let m = w.machine(2);
        let sw = w.prepare(m.nranks());
        let run_cfg = RunConfig::default();
        rows.extend(sample_if(
            cfg,
            "end_to_end_async/events",
            "events/s",
            || {
                let start = Instant::now();
                let res = run_sim(&sw, &m, Algorithm::Async, &run_cfg);
                res.events as f64 / start.elapsed().as_secs_f64().max(1e-9)
            },
        ));
    }

    let get = |n: &str| {
        rows.iter()
            .find(|r| r.name == n)
            .map(|r| r.median())
            .unwrap_or(f64::NAN)
    };
    let ratios = vec![
        (
            "arena_vs_legacy_queue".to_string(),
            get("event_queue/arena") / get("event_queue/legacy_replica"),
        ),
        (
            "deferral_runs_vs_heap".to_string(),
            get("event_queue/deferral_convoy") / get("event_queue/deferral_convoy_heap"),
        ),
        (
            "parallel_8t_vs_1t".to_string(),
            get("engine_parallel_8t/events") / get("engine_parallel_1t/events"),
        ),
        (
            "parallel_2t_vs_1t".to_string(),
            get("engine_parallel_2t/events") / get("engine_parallel_1t/events"),
        ),
    ];
    (rows, ratios)
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let filter = argv
        .iter()
        .position(|a| a == "--filter")
        .and_then(|i| argv.get(i + 1))
        .cloned();
    let cfg = Cfg::new(quick, filter);
    println!(
        "gnb-bench: mode={}, reps={}, avx2={}, isa={:?}{}",
        if cfg.quick { "quick" } else { "full" },
        cfg.reps,
        simd_active(),
        detected_features(),
        cfg.filter
            .as_deref()
            .map(|f| format!(", filter={f:?}"))
            .unwrap_or_default()
    );

    let (krows, kratios) = bench_kernels(&cfg);
    let (srows, sratios) = bench_sim(&cfg);

    if cfg.filter.is_some() {
        // A filtered run produces a partial series set; overwriting the
        // committed reports with it would fail CI's completeness checks.
        println!("(--filter active: BENCH_*.json not written)");
    } else {
        let root = repo_root();
        let kpath = root.join("BENCH_kernels.json");
        let spath = root.join("BENCH_sim.json");
        std::fs::write(&kpath, render_json(&cfg, &krows, &kratios))
            .expect("write BENCH_kernels.json");
        std::fs::write(&spath, render_json(&cfg, &srows, &sratios)).expect("write BENCH_sim.json");
        println!("wrote {}", kpath.display());
        println!("wrote {}", spath.display());
    }
    for (name, v) in kratios.iter().chain(sratios.iter()) {
        println!("  ratio {name}: {v:.2}");
    }
}
