//! The aggregated-asynchronous coordination code — the middle ground the
//! paper's §5 asks about, between BSP's full-exchange aggregation (§3.1)
//! and plain async's one-RPC-per-read pulls (§3.2).
//!
//! Same pull-based protocol and task plan as [`crate::async_alg`]
//! (identical [`AsyncPlan`]), but requests to the same owner rank are
//! *destination-coalesced*: read ids accumulate in a per-owner batch that
//! ships as one tracked request when it reaches the aggregation threshold
//! ([`RunConfig::agg_batch`]) or when its flush timeout
//! ([`RunConfig::agg_flush_ns`]) expires, and the owner answers with one
//! reply carrying every requested read. A batch of `k` reads pays the
//! per-message cost α once instead of `k` times — exactly where plain
//! async loses to BSP at small node counts (Fig. 7) — while keeping
//! async's window-bounded memory and communication hiding.
//!
//! Flush timers ride the runtime's self-timer path
//! ([`RtCtx::after_app`]), which per the fault-injection contract is
//! never dropped, duplicated or delayed: a lossy network can delay
//! *batches*, but it cannot strand reads in a batch that never flushes.
//! Stale timers are invalidated by a per-owner generation counter.
//!
//! Determinism note: the batch *composition* state (which reads share a
//! batch) is deliberately not race-instrumented. Composition is
//! timeline-variant under equal-time tie-break perturbation — two pump
//! steps at the same virtual instant may batch in either order — but
//! result-invariant: every read is requested exactly once, task
//! checksums are plan constants, and `tasks_done` is total on every
//! completing run. The runtime still race-instruments what must be
//! tie-break-clean: batch keys on the reply/timeout path and owner-side
//! read lookups.

use crate::async_alg::{AsyncPlan, AsyncRankPlan};
use crate::driver::RunConfig;
use crate::machine::MachineConfig;
use crate::runtime::{CoordinationStrategy, RankRuntime, RtCtx, RuntimeConfig, TAKEOVER_KEY_BASE};
use gnb_sim::ckpt::{Checkpointable, CkptReader, CkptStore, CkptWriter};
use gnb_sim::engine::TimeCategory;
use gnb_sim::fault::FaultPlan;
use gnb_sim::SimTime;
use std::collections::{BTreeMap, VecDeque};
// gnb-lint: allow(thread-primitives, reason = "shared checkpoint-store handle predating the parallel engine: the serial engine takes the lock uncontended, and parallel-mode ckpt effects are serialised through the coordinator replay")
use std::sync::{Arc, Mutex};

/// Barrier ids (same split-phase/exit pair as plain async).
const BAR_REG: u64 = 0;
const BAR_EXIT: u64 = 1;

/// Batch keys live above the 32-bit read-id space, so owner-side read
/// race keys and runtime batch race keys can never collide.
const BATCH_KEY_BASE: u64 = 1 << 32;

/// Strategy-internal messages of the aggregated-async algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggApp {
    /// Self-timer: process the next unit of ready work.
    Poll,
    /// Self-timer: flush the pending batch for `owner` unless generation
    /// `gen` is stale (the batch already flushed at threshold).
    Flush {
        /// Owner rank whose pending batch should flush.
        owner: usize,
        /// Generation the timer was armed for.
        gen: u64,
    },
    /// Self-timer: serialize protocol progress to the checkpoint store
    /// and re-arm. Armed only when crashes are scheduled.
    Ckpt,
    /// Self-timer: adopt the shard of crashed rank `.0` (fires
    /// `crash_detect` after its scheduled death; this rank is its
    /// deterministic successor).
    Adopt(usize),
}

/// Deterministic flush-timer jitter: decorrelates flush instants across
/// (rank, owner, generation) so timers do not land on the exact virtual
/// instants replies arrive at (splitmix64 finalizer).
fn flush_jitter(rank: usize, owner: usize, gen: u64) -> u64 {
    let mut z = (rank as u64)
        .wrapping_shl(32)
        .wrapping_add(owner as u64)
        .wrapping_add(gen.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The strategy-facing context of the aggregated-async code.
type GCtx<'c, 'e> = RtCtx<'c, 'e, AggApp, Arc<Vec<u32>>, ()>;

/// The aggregated-async protocol state machine, hosted by
/// [`RankRuntime`]. Runs the plain-async plan ([`AsyncPlan`]) with
/// destination-coalesced request/reply batches.
pub struct AggAsyncStrategy {
    plan: Arc<AsyncPlan>,
    rank: usize,
    cfg_window: usize,
    cfg_req_bytes: u64,
    /// Aggregation threshold: a pending batch ships when it holds this
    /// many reads.
    agg_batch: usize,
    /// Flush timeout, ns: no read waits in a pending batch longer than
    /// this (plus jitter).
    agg_flush_ns: u64,

    next_req: usize,
    /// Reads requested but not yet computed-or-abandoned: batched-unsent
    /// plus sent-unreplied (the window bounds this plus `ready`).
    in_flight: usize,
    ready: VecDeque<usize>,
    next_local: usize,
    groups_done: usize,
    poll_scheduled: bool,
    entered_exit: bool,
    tasks_done: u64,

    /// Per-owner pending batch: group indices accumulating toward the
    /// threshold or the flush timeout.
    pending: BTreeMap<usize, Vec<usize>>,
    /// Per-owner flush generation: incremented on every flush, so a
    /// timer armed for an earlier generation no-ops.
    flush_gen: BTreeMap<usize, u64>,
    /// Next batch sequence number (per-rank; batch key =
    /// `BATCH_KEY_BASE + seq`).
    batch_seq: u64,
    /// Sent batches awaiting their reply, by batch key.
    batches: BTreeMap<u64, Vec<usize>>,

    /// Per-group completion bitmap (checkpointed so a successor replays
    /// only unfinished groups).
    done: Vec<bool>,
    /// Adopt timers armed but not yet fired (exit is gated on zero).
    adoptions_left: usize,
    /// Outstanding adopted re-fetches: namespaced key → (dead rank, index
    /// into the dead rank's group list).
    adopted: BTreeMap<u64, (usize, usize)>,
}

impl AggAsyncStrategy {
    /// Creates the protocol state machine for one rank.
    pub fn new(plan: Arc<AsyncPlan>, rank: usize, cfg: &RunConfig) -> AggAsyncStrategy {
        let ngroups = plan.per_rank[rank].groups.len();
        AggAsyncStrategy {
            plan,
            rank,
            cfg_window: cfg.rpc_window,
            cfg_req_bytes: cfg.req_bytes,
            agg_batch: cfg.agg_batch.max(1),
            agg_flush_ns: cfg.agg_flush_ns.max(1),
            next_req: 0,
            in_flight: 0,
            ready: VecDeque::new(),
            next_local: 0,
            groups_done: 0,
            poll_scheduled: false,
            entered_exit: false,
            tasks_done: 0,
            pending: BTreeMap::new(),
            flush_gen: BTreeMap::new(),
            batch_seq: 0,
            batches: BTreeMap::new(),
            done: vec![false; ngroups],
            adoptions_left: 0,
            adopted: BTreeMap::new(),
        }
    }

    /// Creates the full runtime-hosted rank program with the recovery
    /// stack: a fault plan carrying the crash schedule and the shared
    /// checkpoint store. The driver uses this for every run; with no
    /// crashes scheduled (`FaultPlan::default()`, no store) it hosts the
    /// strategy with an inactive fault plan.
    pub fn program_with_recovery(
        plan: Arc<AsyncPlan>,
        rank: usize,
        machine: &MachineConfig,
        cfg: &RunConfig,
        fault: Arc<FaultPlan>,
        // gnb-lint: allow(thread-primitives, reason = "shared checkpoint-store handle predating the parallel engine: the serial engine takes the lock uncontended, and parallel-mode ckpt effects are serialised through the coordinator replay")
        ckpt: Option<Arc<Mutex<CkptStore>>>,
    ) -> RankRuntime<AggAsyncStrategy> {
        RankRuntime::with_recovery(
            AggAsyncStrategy::new(plan, rank, cfg),
            rank,
            RuntimeConfig::from_run(machine, cfg),
            fault,
            ckpt,
        )
    }

    /// Serializes protocol progress (same layout as the plain-async
    /// strategy: local cursor, group bitmap, task counter).
    fn ckpt_bytes(&self) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.usize(self.next_local);
        self.done.checkpoint(&mut w);
        w.u64(self.tasks_done);
        w.finish()
    }

    /// Decodes a checkpoint written by [`Self::ckpt_bytes`] on any rank.
    fn decode_ckpt(bytes: &[u8]) -> (usize, Vec<bool>, u64) {
        let mut r = CkptReader::new(bytes);
        let next_local = r.usize();
        let done = Vec::<bool>::restore(&mut r);
        let tasks = r.u64();
        r.finish();
        (next_local, done, tasks)
    }

    /// Adopts dead rank `dead`'s shard: restore, replay the local tail,
    /// re-fetch unfinished groups as single-read batches under namespaced
    /// keys (the owner-side batch handler serves them unchanged). The
    /// re-fetches bypass both the aggregation layer and the flow-control
    /// window — recovery traffic must not wait behind batching heuristics.
    fn adopt(&mut self, rt: &mut GCtx<'_, '_>, dead: usize) {
        rt.note_takeover(dead);
        // gnb-lint: allow(panic-path, reason = "dead is a rank id from the engine's crash plan; per_rank has exactly nranks entries by construction")
        let dead_groups = self.plan.per_rank[dead].groups.len();
        let (next_local, done, ckpt_tasks) = match rt.ckpt_restore(dead) {
            Some(bytes) => AggAsyncStrategy::decode_ckpt(&bytes),
            None => (0, vec![false; dead_groups], 0),
        };
        rt.note_recovered(ckpt_tasks);
        self.tasks_done += ckpt_tasks;
        let dplan = Arc::clone(&self.plan);
        // gnb-lint: allow(panic-path, reason = "next_local comes from a checkpoint this code wrote; it never exceeds the dead rank's chunk count")
        for &(cp, oh, n) in &dplan.per_rank[dead].local_chunks[next_local..] {
            rt.advance(oh, TimeCategory::Recovery);
            rt.advance(cp, TimeCategory::Recovery);
            self.tasks_done += n;
        }
        // gnb-lint: allow(panic-path, reason = "dead is a rank id from the engine's crash plan; per_rank has exactly nranks entries by construction")
        for (gidx, g) in dplan.per_rank[dead].groups.iter().enumerate() {
            if done.get(gidx).copied().unwrap_or(false) {
                continue;
            }
            let key = TAKEOVER_KEY_BASE + ((dead as u64) << 32) + g.read as u64;
            let dst = rt.effective_owner(g.owner as usize);
            self.adopted.insert(key, (dead, gidx));
            let bytes = self.cfg_req_bytes + 4;
            rt.send_tracked(key, dst, bytes, Arc::new(vec![g.read]));
        }
        self.adoptions_left -= 1;
    }

    fn me(&self) -> &AsyncRankPlan {
        // gnb-lint: allow(panic-path, reason = "self.rank < nranks is established at Engine construction and never changes")
        &self.plan.per_rank[self.rank]
    }

    /// Pulls reads into per-owner pending batches under the same
    /// consumption-bounded window as plain async, flushing any batch that
    /// reaches the threshold. A batch that goes from empty to non-empty
    /// arms a flush timer so sub-threshold tails still ship.
    fn pump(&mut self, rt: &mut GCtx<'_, '_>) {
        while self.in_flight + self.ready.len() < self.cfg_window
            && self.next_req < self.me().groups.len()
        {
            // gnb-lint: allow(panic-path, reason = "the loop condition bounds next_req by the same plan's groups.len()")
            let g = &self.plan.per_rank[self.rank].groups[self.next_req];
            let (owner, gidx) = (g.owner as usize, self.next_req);
            self.in_flight += 1;
            self.next_req += 1;
            let batch = self.pending.entry(owner).or_default();
            batch.push(gidx);
            let len = batch.len();
            if len >= self.agg_batch {
                self.flush(rt, owner);
            } else if len == 1 {
                let gen = *self.flush_gen.entry(owner).or_insert(0);
                let jitter = flush_jitter(self.rank, owner, gen) % (self.agg_flush_ns / 8 + 1);
                rt.after_app(
                    SimTime::from_ns(self.agg_flush_ns + jitter),
                    AggApp::Flush { owner, gen },
                );
            }
        }
    }

    /// Ships the pending batch for `owner` as one tracked request and
    /// invalidates any outstanding flush timer for it.
    fn flush(&mut self, rt: &mut GCtx<'_, '_>, owner: usize) {
        let gidxs = match self.pending.remove(&owner) {
            Some(b) if !b.is_empty() => b,
            _ => return,
        };
        *self.flush_gen.entry(owner).or_insert(0) += 1;
        let reads: Vec<u32> = gidxs
            .iter()
            .map(|&gidx| self.me().groups[gidx].read)
            .collect();
        let key = BATCH_KEY_BASE + self.batch_seq;
        self.batch_seq += 1;
        // One α for the whole batch: the request carries the batched read
        // ids (4 B each) on top of the fixed header.
        let bytes = self.cfg_req_bytes + 4 * reads.len() as u64;
        self.batches.insert(key, gidxs);
        rt.send_tracked(key, owner, bytes, Arc::new(reads));
    }

    fn ensure_poll(&mut self, rt: &mut GCtx<'_, '_>) {
        let has_work = !self.ready.is_empty() || self.next_local < self.me().local_chunks.len();
        if !self.poll_scheduled && has_work {
            // One tick later, not zero — see the plain-async rationale:
            // queued RPCs must be serviced between units of compute.
            rt.after_app(SimTime::from_ns(1), AggApp::Poll);
            self.poll_scheduled = true;
        }
    }

    fn maybe_finish(&mut self, rt: &mut GCtx<'_, '_>) {
        let me_done = self.next_local >= self.me().local_chunks.len()
            && self.groups_done == self.me().groups.len()
            && self.adoptions_left == 0
            && self.adopted.is_empty();
        if me_done && !self.entered_exit {
            self.entered_exit = true;
            rt.barrier_enter(BAR_EXIT);
        }
    }

    /// Idle ended by a foreign event (request, reply, flush timer while
    /// work is outstanding): communication we failed to hide if requests
    /// are in flight, otherwise exit-barrier synchronization.
    fn classify_foreign_idle(&self, rt: &mut GCtx<'_, '_>) {
        if self.in_flight > 0 {
            rt.classify_idle(TimeCategory::Comm);
        } else {
            rt.classify_idle(TimeCategory::Sync);
        }
    }
}

impl CoordinationStrategy for AggAsyncStrategy {
    type App = AggApp;
    type Req = Arc<Vec<u32>>;
    type Rep = ();

    fn on_start(&mut self, rt: &mut GCtx<'_, '_>) {
        rt.mem_alloc(self.me().static_bytes);
        rt.barrier_enter(BAR_REG);
        // Crash-recovery timers, armed only when crashes are scheduled so
        // crash-free runs stay event-for-event identical.
        if rt.ckpt_enabled() {
            rt.after_app(rt.ckpt_interval(), AggApp::Ckpt);
        }
        for (dead, at) in rt.planned_adoptions() {
            self.adoptions_left += 1;
            rt.after_app(at + rt.crash_detect(), AggApp::Adopt(dead));
        }
        self.pump(rt);
        self.ensure_poll(rt);
        self.maybe_finish(rt);
    }

    fn on_app(&mut self, rt: &mut GCtx<'_, '_>, _src: usize, msg: AggApp) {
        match msg {
            AggApp::Poll => {
                self.poll_scheduled = false;
                if let Some(gidx) = self.ready.pop_front() {
                    // gnb-lint: allow(panic-path, reason = "ready only ever holds group indexes minted from this rank's own plan")
                    let g = &self.plan.per_rank[self.rank].groups[gidx];
                    let (oh, cp, n, bytes) = (g.overhead, g.compute, g.tasks, g.bytes);
                    rt.advance(oh, TimeCategory::Overhead);
                    rt.advance(cp, TimeCategory::Compute);
                    rt.mem_free(bytes);
                    self.tasks_done += n;
                    self.groups_done += 1;
                    // gnb-lint: allow(panic-path, reason = "done has one slot per group of this rank's plan; gidx came from that plan")
                    self.done[gidx] = true;
                    // Consumption frees window slots: pull the next reads.
                    self.pump(rt);
                } else if self.next_local < self.me().local_chunks.len() {
                    // gnb-lint: allow(panic-path, reason = "the else-if guard bounds next_local by the same plan's local_chunks.len()")
                    let (cp, oh, n) = self.plan.per_rank[self.rank].local_chunks[self.next_local];
                    rt.advance(oh, TimeCategory::Overhead);
                    rt.advance(cp, TimeCategory::Compute);
                    self.tasks_done += n;
                    self.next_local += 1;
                }
                self.ensure_poll(rt);
                self.maybe_finish(rt);
            }
            AggApp::Flush { owner, gen } => {
                // The timer ended whatever idle preceded it; classify
                // before deciding whether it is stale.
                self.classify_foreign_idle(rt);
                if self.flush_gen.get(&owner).copied().unwrap_or(0) != gen {
                    return; // batch already flushed at threshold
                }
                self.flush(rt, owner);
            }
            AggApp::Ckpt => {
                // Waiting ended by the checkpoint timer is checkpoint
                // overhead, like the write it precedes.
                rt.classify_idle(TimeCategory::Overhead);
                if !self.entered_exit {
                    rt.ckpt_save(self.ckpt_bytes());
                    rt.after_app(rt.ckpt_interval(), AggApp::Ckpt);
                }
            }
            AggApp::Adopt(dead) => {
                rt.classify_idle(TimeCategory::Recovery);
                self.adopt(rt, dead);
                self.ensure_poll(rt);
                self.maybe_finish(rt);
            }
        }
    }

    fn on_request(
        &mut self,
        rt: &mut GCtx<'_, '_>,
        src: usize,
        key: u64,
        attempt: u32,
        reads: Arc<Vec<u32>>,
    ) {
        self.classify_foreign_idle(rt);
        // Owner-side lookup of every batched read (immutable partition
        // entries); one service unit each, one reply for all.
        let mut bytes = 4 * reads.len() as u64;
        for &read in reads.iter() {
            rt.race_read(read as u64);
            // gnb-lint: allow(panic-path, reason = "lengths is indexed by global read id; every batched read id was minted from the same plan")
            bytes += self.plan.lengths[read as usize] as u64;
        }
        rt.serve_reply(src, key, attempt, bytes, reads.len() as u64, ());
    }

    fn on_reply(&mut self, rt: &mut GCtx<'_, '_>, key: u64, _p: ()) {
        if key >= TAKEOVER_KEY_BASE {
            // An adopted shard's re-fetched read — not a batch this rank
            // composed. Run the dead rank's group as recovery work.
            let (dead, gidx) = self
                .adopted
                .remove(&key)
                // gnb-lint: allow(panic-path, reason = "the runtime ledger delivers replies only for keys this rank tracked; a miss is ledger corruption and must abort deterministically")
                .expect("reply for an adoption this rank never started");
            // gnb-lint: allow(panic-path, reason = "dead is a rank id recorded at adoption time; per_rank has exactly nranks entries")
            let g = &self.plan.per_rank[dead].groups[gidx];
            let (oh, cp, n) = (g.overhead, g.compute, g.tasks);
            rt.advance(oh, TimeCategory::Recovery);
            rt.advance(cp, TimeCategory::Recovery);
            self.tasks_done += n;
            self.maybe_finish(rt);
            return;
        }
        let gidxs = self
            .batches
            .remove(&key)
            // gnb-lint: allow(panic-path, reason = "the runtime ledger delivers replies only for keys this rank tracked; a miss is ledger corruption and must abort deterministically")
            .expect("reply for a batch this rank never sent");
        self.in_flight -= gidxs.len();
        for gidx in gidxs {
            // gnb-lint: allow(panic-path, reason = "gidx was taken from this rank's own batch map; it indexes the same plan it was minted from")
            rt.mem_alloc(self.plan.per_rank[self.rank].groups[gidx].bytes);
            self.ready.push_back(gidx);
        }
        self.ensure_poll(rt);
    }

    fn on_give_up(&mut self, rt: &mut GCtx<'_, '_>, key: u64) {
        // Non-batch keys first: a give-up must never reach the batch map
        // for a key this rank's batching layer did not mint, or the
        // unwind panics instead of degrading (adopted re-fetches are the
        // one such key class; `tests/fault_chaos.rs` pins this).
        if key >= TAKEOVER_KEY_BASE {
            self.adopted.remove(&key);
            self.maybe_finish(rt);
            return;
        }
        // The whole batch is abandoned; its tasks stay undone and the
        // driver reports RunError::RetryBudgetExhausted (or coverage loss
        // under graceful degradation). Unwind the window so the rank
        // drains its remaining work.
        let gidxs = self
            .batches
            .remove(&key)
            // gnb-lint: allow(panic-path, reason = "give-ups are raised only for keys this rank tracked; a miss is ledger corruption and must abort deterministically")
            .expect("give-up for a batch this rank never sent");
        self.in_flight -= gidxs.len();
        self.groups_done += gidxs.len();
        for &gidx in &gidxs {
            // gnb-lint: allow(panic-path, reason = "done has one slot per group of this rank's plan; gidx came from this rank's batch map")
            self.done[gidx] = true;
        }
        self.pump(rt);
        self.ensure_poll(rt);
        self.maybe_finish(rt);
    }

    fn on_barrier(&mut self, rt: &mut GCtx<'_, '_>, id: u64) {
        rt.classify_idle(TimeCategory::Sync);
        debug_assert!(id == BAR_REG || id == BAR_EXIT);
    }

    fn tasks_done(&self) -> u64 {
        self.tasks_done
    }

    /// This rank's task checksum (valid any time — a plan constant).
    fn checksum(&self) -> u64 {
        self.plan.per_rank[self.rank].checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_alg::plan_async;
    use crate::workload::SimWorkload;
    use gnb_align::Candidate;
    use gnb_sim::Engine;

    fn cand(a: u32, b: u32) -> Candidate {
        Candidate {
            a,
            b,
            a_pos: 0,
            b_pos: 0,
            same_strand: true,
        }
    }

    fn workload(nranks: usize) -> SimWorkload {
        let lengths: Vec<usize> = (0..16).map(|i| 1000 + 100 * i).collect();
        let tasks: Vec<Candidate> = (0..16u32)
            .flat_map(|a| ((a + 1)..16).map(move |b| cand(a, b)))
            .collect();
        let ov: Vec<u32> = tasks.iter().map(|t| 200 * (t.b - t.a)).collect();
        SimWorkload::prepare(&lengths, &tasks, &ov, nranks)
    }

    fn machine(cores: usize) -> MachineConfig {
        MachineConfig::cori_knl(1).with_cores_per_node(cores)
    }

    fn run(
        nranks: usize,
        cfg: &RunConfig,
    ) -> (
        Vec<RankRuntime<AggAsyncStrategy>>,
        gnb_sim::engine::SimReport,
    ) {
        let w = workload(nranks);
        w.validate();
        let m = machine(nranks);
        let plan = Arc::new(plan_async(&w, &m, cfg));
        let mut progs: Vec<RankRuntime<AggAsyncStrategy>> = (0..nranks)
            .map(|r| {
                AggAsyncStrategy::program_with_recovery(
                    Arc::clone(&plan),
                    r,
                    &m,
                    cfg,
                    Arc::new(FaultPlan::default()),
                    None,
                )
            })
            .collect();
        let report = Engine::new(nranks, m.net).run(&mut progs);
        (progs, report)
    }

    #[test]
    fn all_tasks_complete_exactly_once() {
        for nranks in [1, 2, 4, 8] {
            let (progs, _) = run(nranks, &RunConfig::default());
            let done: u64 = progs.iter().map(|p| p.tasks_done()).sum();
            assert_eq!(
                done as usize,
                workload(nranks).total_tasks,
                "nranks={nranks}"
            );
        }
    }

    #[test]
    fn threshold_one_degenerates_to_plain_async_message_count() {
        // With a threshold of 1 every read ships alone: as many requests
        // as plain async, so aggregation is a strict generalisation.
        let cfg = RunConfig {
            agg_batch: 1,
            ..RunConfig::default()
        };
        let (progs, _) = run(4, &cfg);
        let done: u64 = progs.iter().map(|p| p.tasks_done()).sum();
        assert_eq!(done as usize, workload(4).total_tasks);
        let batches: u64 = progs.iter().map(|p| p.strategy().batch_seq).sum();
        let groups: u64 = {
            let w = workload(4);
            let m = machine(4);
            let plan = plan_async(&w, &m, &cfg);
            plan.per_rank.iter().map(|r| r.groups.len() as u64).sum()
        };
        assert_eq!(batches, groups);
    }

    #[test]
    fn aggregation_reduces_message_count_and_events() {
        let one = RunConfig {
            agg_batch: 1,
            ..RunConfig::default()
        };
        let agg = RunConfig {
            agg_batch: 16,
            ..RunConfig::default()
        };
        let (p1, r1) = run(8, &one);
        let (p16, r16) = run(8, &agg);
        let b1: u64 = p1.iter().map(|p| p.strategy().batch_seq).sum();
        let b16: u64 = p16.iter().map(|p| p.strategy().batch_seq).sum();
        assert!(b16 < b1, "batching must coalesce: {b16} vs {b1}");
        assert!(r16.events < r1.events, "fewer messages, fewer events");
        let d1: u64 = p1.iter().map(|p| p.tasks_done()).sum();
        let d16: u64 = p16.iter().map(|p| p.tasks_done()).sum();
        assert_eq!(d1, d16);
    }

    #[test]
    fn flush_timer_ships_subthreshold_tails() {
        // Threshold far above any per-owner group count: only flush
        // timers can ship batches, and the run must still complete.
        let cfg = RunConfig {
            agg_batch: 100_000,
            ..RunConfig::default()
        };
        let (progs, _) = run(4, &cfg);
        let done: u64 = progs.iter().map(|p| p.tasks_done()).sum();
        assert_eq!(done as usize, workload(4).total_tasks);
        let batches: u64 = progs.iter().map(|p| p.strategy().batch_seq).sum();
        assert!(batches > 0, "timer-driven flushes must have fired");
    }

    #[test]
    fn window_smaller_than_batch_still_completes() {
        let cfg = RunConfig {
            rpc_window: 2,
            agg_batch: 64,
            ..RunConfig::default()
        };
        let (progs, _) = run(4, &cfg);
        let done: u64 = progs.iter().map(|p| p.tasks_done()).sum();
        assert_eq!(done as usize, workload(4).total_tasks);
    }

    #[test]
    fn deterministic() {
        let (p1, r1) = run(4, &RunConfig::default());
        let (p2, r2) = run(4, &RunConfig::default());
        assert_eq!(r1, r2);
        let d1: Vec<u64> = p1.iter().map(|p| p.tasks_done()).collect();
        let d2: Vec<u64> = p2.iter().map(|p| p.tasks_done()).collect();
        assert_eq!(d1, d2);
    }

    #[test]
    fn reply_loss_recovered_by_batch_retry() {
        let cfg = RunConfig {
            rpc_drop_period: 3,
            rpc_timeout_ns: 50_000,
            ..RunConfig::default()
        };
        let (progs, report) = run(4, &cfg);
        let done: u64 = progs.iter().map(|p| p.tasks_done()).sum();
        assert_eq!(
            done as usize,
            workload(4).total_tasks,
            "all tasks despite drops"
        );
        let drops: u64 = progs.iter().map(|p| p.recovery().drops_injected).sum();
        let retries: u64 = progs.iter().map(|p| p.recovery().retries).sum();
        assert!(drops > 0, "injection must actually fire");
        assert!(retries >= drops, "every dropped reply forces a retry");
        let (_, reliable) = run(4, &RunConfig::default());
        assert!(report.end_time > reliable.end_time);
    }

    #[test]
    fn reliable_network_never_retries() {
        let (progs, _) = run(4, &RunConfig::default());
        assert!(progs
            .iter()
            .all(|p| p.recovery().drops_injected == 0 && p.recovery().retries == 0));
    }
}
