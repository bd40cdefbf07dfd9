//! The asynchronous coordination code (paper §3.2).
//!
//! A pull-based SPMD algorithm over RPCs (UPC++ in the original; tracked
//! requests on the [`crate::runtime`] layer here):
//!
//! * tasks are indexed under the remote read they need;
//! * each rank issues one asynchronous request per distinct remote read —
//!   bounded by an outstanding-request window (§4.3 discusses tuning
//!   "limits on outgoing requests") — and attaches a callback: when read
//!   `b` arrives, all alignments involving `b` run as they are dequeued;
//! * a split-phase barrier overlaps local-local task computation with read
//!   registration; a single exit barrier keeps every rank's partition
//!   available (ranks keep servicing lookups after finishing their own
//!   work) until all tasks complete;
//! * at most the windowed replies are buffered, so memory stays flat
//!   (Fig. 11: <256 MB/core at every scale).
//!
//! Accounting: idle time that ends with a reply is *visible communication*
//! (latency the compute failed to hide); idle that ends with the exit
//! barrier or a foreign request while this rank has no outstanding
//! requests is *synchronization*; RPC injection/servicing and
//! pointer-based store traversal are *overhead*.
//!
//! Recovery is runtime-owned: retry timers, exponential backoff,
//! duplicate-reply dedup and give-up bookkeeping all live in
//! [`crate::runtime`] — this module holds only the protocol state machine
//! (what to request, what to do with an arrived read, when to finish).

use crate::cost::CostModel;
use crate::driver::RunConfig;
use crate::machine::MachineConfig;
use crate::runtime::{CoordinationStrategy, RankRuntime, RtCtx, RuntimeConfig, TAKEOVER_KEY_BASE};
use crate::workload::{task_checksum, SimWorkload};
use gnb_sim::ckpt::{Checkpointable, CkptReader, CkptStore, CkptWriter};
use gnb_sim::engine::TimeCategory;
use gnb_sim::fault::FaultPlan;
use gnb_sim::SimTime;
use std::collections::{BTreeMap, VecDeque};
// gnb-lint: allow(thread-primitives, reason = "shared checkpoint-store handle predating the parallel engine: the serial engine takes the lock uncontended, and parallel-mode ckpt effects are serialised through the coordinator replay")
use std::sync::{Arc, Mutex};

/// Barrier ids.
const BAR_REG: u64 = 0;
const BAR_EXIT: u64 = 1;

/// Strategy-internal messages of the asynchronous algorithm. Requests and
/// replies are runtime-tracked ([`crate::runtime::RtMsg`]); only the poll
/// self-timer is the strategy's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncApp {
    /// Self-timer: process the next unit of ready work (the polling the
    /// paper notes UPC++ requires).
    Poll,
    /// Self-timer: serialize protocol progress to the checkpoint store
    /// and re-arm. Armed only when crashes are scheduled.
    Ckpt,
    /// Self-timer: adopt the shard of crashed rank `.0` (fires
    /// `crash_detect` after its scheduled death; this rank is its
    /// deterministic successor).
    Adopt(usize),
}

/// Precomputed per-rank inputs for the async code.
#[derive(Debug, Clone)]
pub struct AsyncPlan {
    /// One entry per rank.
    pub per_rank: Vec<AsyncRankPlan>,
    /// Read lengths (reply payload sizes), shared.
    pub lengths: Arc<Vec<u32>>,
}

/// A remote-read group with modelled costs.
#[derive(Debug, Clone)]
pub struct AsyncGroup {
    /// Remote read id.
    pub read: u32,
    /// Owner rank of the read.
    pub owner: u32,
    /// Read bytes (the reply size).
    pub bytes: u64,
    /// Alignment compute for the group's tasks.
    pub compute: SimTime,
    /// Traversal/invocation overhead for the group's tasks.
    pub overhead: SimTime,
    /// Task count.
    pub tasks: u64,
}

/// One rank's precomputed async inputs.
#[derive(Debug, Clone, Default)]
pub struct AsyncRankPlan {
    /// Partition + pointer-store bytes held for the whole run.
    pub static_bytes: u64,
    /// Local-local work, chunked for polling granularity:
    /// `(compute, overhead, tasks)`.
    pub local_chunks: Vec<(SimTime, SimTime, u64)>,
    /// Remote groups in read order.
    pub groups: Vec<AsyncGroup>,
    /// Order-independent checksum of this rank's tasks.
    pub checksum: u64,
}

/// Approximate bytes per task node in the pointer-based store (boxed node
/// plus map/vec overhead, cf. [`gnb_overlap::store::PointerTaskStore`]).
const TASK_NODE_BYTES: u64 = 48;

/// Local tasks per poll chunk (polling granularity).
const LOCAL_CHUNK: usize = 32;

/// Builds the async plan from the shared fixed workload.
pub fn plan_async(w: &SimWorkload, machine: &MachineConfig, cfg: &RunConfig) -> AsyncPlan {
    let cost: &CostModel = &cfg.cost;
    let per_rank = w
        .per_rank
        .iter()
        .enumerate()
        .map(|(p, rd)| {
            let noise = crate::driver::os_noise_factor(p, cfg.os_noise);
            let mut ids: Vec<(u32, u32)> = Vec::with_capacity(rd.total_tasks());
            let mut local_chunks = Vec::new();
            for chunk in rd.local.chunks(LOCAL_CHUNK) {
                let mut compute = SimTime::ZERO;
                for (t, ov) in chunk {
                    compute +=
                        SimTime::from_secs_f64(machine.compute_secs(cost.cells(t, *ov)) * noise);
                    ids.push((t.a, t.b));
                }
                let overhead =
                    SimTime::from_ns(cfg.overhead_ns_per_task_async * chunk.len() as u64);
                local_chunks.push((compute, overhead, chunk.len() as u64));
            }
            let groups = rd
                .groups
                .iter()
                .map(|g| {
                    let mut compute = SimTime::ZERO;
                    for (t, ov) in &g.tasks {
                        compute += SimTime::from_secs_f64(
                            machine.compute_secs(cost.cells(t, *ov)) * noise,
                        );
                        ids.push((t.a, t.b));
                    }
                    AsyncGroup {
                        read: g.read,
                        owner: g.owner,
                        bytes: g.bytes,
                        compute,
                        overhead: SimTime::from_ns(
                            cfg.overhead_ns_per_task_async * g.tasks.len() as u64,
                        ),
                        tasks: g.tasks.len() as u64,
                    }
                })
                .collect();
            AsyncRankPlan {
                static_bytes: rd.partition_bytes + rd.total_tasks() as u64 * TASK_NODE_BYTES,
                local_chunks,
                groups,
                checksum: task_checksum(ids),
            }
        })
        .collect();
    AsyncPlan {
        per_rank,
        lengths: Arc::new(w.lengths.clone()),
    }
}

/// The strategy-facing context of the async code.
type ACtx<'c, 'e> = RtCtx<'c, 'e, AsyncApp, (), ()>;

/// The asynchronous protocol state machine, hosted by [`RankRuntime`].
pub struct AsyncStrategy {
    plan: Arc<AsyncPlan>,
    rank: usize,
    cfg_window: usize,
    cfg_req_bytes: u64,

    next_req: usize,
    in_flight: usize,
    ready: VecDeque<usize>,
    next_local: usize,
    groups_done: usize,
    poll_scheduled: bool,
    entered_exit: bool,
    tasks_done: u64,

    /// Per-group completion bitmap (checkpointed so a successor replays
    /// only unfinished groups).
    done: Vec<bool>,
    /// Adopt timers armed but not yet fired (exit is gated on zero).
    adoptions_left: usize,
    /// Outstanding adopted re-fetches: namespaced key → (dead rank, index
    /// into the dead rank's group list).
    adopted: BTreeMap<u64, (usize, usize)>,
}

impl AsyncStrategy {
    /// Creates the protocol state machine for one rank.
    pub fn new(plan: Arc<AsyncPlan>, rank: usize, cfg: &RunConfig) -> AsyncStrategy {
        let ngroups = plan.per_rank[rank].groups.len();
        AsyncStrategy {
            plan,
            rank,
            cfg_window: cfg.rpc_window,
            cfg_req_bytes: cfg.req_bytes,
            next_req: 0,
            in_flight: 0,
            ready: VecDeque::new(),
            next_local: 0,
            groups_done: 0,
            poll_scheduled: false,
            entered_exit: false,
            tasks_done: 0,
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
    ) -> RankRuntime<AsyncStrategy> {
        RankRuntime::with_recovery(
            AsyncStrategy::new(plan, rank, cfg),
            rank,
            RuntimeConfig::from_run(machine, cfg),
            fault,
            ckpt,
        )
    }

    /// Serializes protocol progress: the local-chunk cursor, the group
    /// completion bitmap and the task counter. A successor restoring this
    /// replays only what the checkpoint does not cover.
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

    fn me(&self) -> &AsyncRankPlan {
        // gnb-lint: allow(panic-path, reason = "self.rank < nranks is established at Engine construction and never changes")
        &self.plan.per_rank[self.rank]
    }

    fn issue_requests(&mut self, rt: &mut ACtx<'_, '_>) {
        // Flow control by consumption: the window bounds requests in
        // flight *plus* replies buffered but not yet computed, so per-rank
        // memory stays window-bounded (the paper's "no more than 1 remote
        // read in-memory at any given time in order to make progress",
        // generalised to a tunable window).
        while self.in_flight + self.ready.len() < self.cfg_window
            && self.next_req < self.me().groups.len()
        {
            // gnb-lint: allow(panic-path, reason = "the loop condition bounds next_req by the same plan's groups.len()")
            let g = &self.plan.per_rank[self.rank].groups[self.next_req];
            let (owner, read) = (g.owner as usize, g.read);
            rt.send_tracked(read as u64, owner, self.cfg_req_bytes, ());
            self.in_flight += 1;
            self.next_req += 1;
        }
    }

    fn ensure_poll(&mut self, rt: &mut ACtx<'_, '_>) {
        let has_work = !self.ready.is_empty() || self.next_local < self.me().local_chunks.len();
        if !self.poll_scheduled && has_work {
            // One tick later, not zero: requests and replies that queued up
            // while this rank was computing must be serviced *before* the
            // next unit of compute — this is the "application-level
            // polling" between tasks that UPC++ requires (§3.2). A zero
            // delay would let the poll chain starve queued RPCs.
            rt.after_app(SimTime::from_ns(1), AsyncApp::Poll);
            self.poll_scheduled = true;
        }
    }

    fn maybe_finish(&mut self, rt: &mut ACtx<'_, '_>) {
        let me_done = self.next_local >= self.me().local_chunks.len()
            && self.groups_done == self.me().groups.len()
            && self.adoptions_left == 0
            && self.adopted.is_empty();
        if me_done && !self.entered_exit {
            self.entered_exit = true;
            rt.barrier_enter(BAR_EXIT);
        }
    }

    /// Adopts dead rank `dead`'s shard: restore its last checkpoint,
    /// replay the local-task tail, and re-fetch its unfinished remote
    /// groups under namespaced keys. All replay work is booked as
    /// [`TimeCategory::Recovery`]; the re-fetches deliberately bypass the
    /// flow-control window (recovery traffic must not starve behind the
    /// successor's own backlog).
    fn adopt(&mut self, rt: &mut ACtx<'_, '_>, dead: usize) {
        rt.note_takeover(dead);
        // gnb-lint: allow(panic-path, reason = "dead is a rank id from the engine's crash plan; per_rank has exactly nranks entries by construction")
        let dead_groups = self.plan.per_rank[dead].groups.len();
        let (next_local, done, ckpt_tasks) = match rt.ckpt_restore(dead) {
            Some(bytes) => AsyncStrategy::decode_ckpt(&bytes),
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
            rt.send_tracked(key, dst, self.cfg_req_bytes, ());
        }
        self.adoptions_left -= 1;
    }

    fn group_index(&self, read: u32) -> usize {
        self.me()
            .groups
            .binary_search_by_key(&read, |g| g.read)
            // gnb-lint: allow(panic-path, reason = "the runtime ledger only routes replies for keys this rank tracked; every tracked key is a read of this rank's plan, so the search hit is a protocol invariant")
            .expect("reply for a read this rank never requested")
    }

    /// Classify an idle gap that was ended by a *foreign* event: if we
    /// still have requests in flight we were hiding (failing to hide)
    /// communication; otherwise we are done and waiting at the exit
    /// barrier — synchronization.
    fn classify_foreign_idle(&self, rt: &mut ACtx<'_, '_>) {
        if self.in_flight > 0 {
            rt.classify_idle(TimeCategory::Comm);
        } else {
            rt.classify_idle(TimeCategory::Sync);
        }
    }
}

impl CoordinationStrategy for AsyncStrategy {
    type App = AsyncApp;
    type Req = ();
    type Rep = ();

    fn on_start(&mut self, rt: &mut ACtx<'_, '_>) {
        rt.mem_alloc(self.me().static_bytes);
        // Split-phase barrier: enter the registration phase, then overlap
        // local work and request issue while others register.
        rt.barrier_enter(BAR_REG);
        // Crash-recovery timers, armed only when crashes are scheduled so
        // crash-free runs stay event-for-event identical.
        if rt.ckpt_enabled() {
            rt.after_app(rt.ckpt_interval(), AsyncApp::Ckpt);
        }
        for (dead, at) in rt.planned_adoptions() {
            self.adoptions_left += 1;
            rt.after_app(at + rt.crash_detect(), AsyncApp::Adopt(dead));
        }
        self.issue_requests(rt);
        self.ensure_poll(rt);
        self.maybe_finish(rt);
    }

    fn on_app(&mut self, rt: &mut ACtx<'_, '_>, _src: usize, msg: AsyncApp) {
        match msg {
            AsyncApp::Poll => {
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
                    // Consumption frees a window slot: pull the next read.
                    self.issue_requests(rt);
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
            AsyncApp::Ckpt => {
                // Waiting ended by the checkpoint timer is checkpoint
                // overhead, like the write it precedes.
                rt.classify_idle(TimeCategory::Overhead);
                if !self.entered_exit {
                    rt.ckpt_save(self.ckpt_bytes());
                    rt.after_app(rt.ckpt_interval(), AsyncApp::Ckpt);
                }
            }
            AsyncApp::Adopt(dead) => {
                rt.classify_idle(TimeCategory::Recovery);
                self.adopt(rt, dead);
                self.ensure_poll(rt);
                self.maybe_finish(rt);
            }
        }
    }

    fn on_request(&mut self, rt: &mut ACtx<'_, '_>, src: usize, key: u64, attempt: u32, _p: ()) {
        self.classify_foreign_idle(rt);
        // Adopted re-fetches namespace the read id into the takeover key
        // range; masking recovers it (a no-op for plain read-id keys).
        let read = (key & 0xFFFF_FFFF) as usize;
        // Owner-side lookup of the (immutable) partition entry.
        rt.race_read(read as u64);
        // One lookup unit; the reply ships the read itself.
        // gnb-lint: allow(panic-path, reason = "lengths is indexed by global read id; the requested read id was minted from the same plan")
        let bytes = self.plan.lengths[read] as u64;
        rt.serve_reply(src, key, attempt, bytes, 1, ());
    }

    fn on_reply(&mut self, rt: &mut ACtx<'_, '_>, key: u64, _p: ()) {
        if key >= TAKEOVER_KEY_BASE {
            // An adopted shard's re-fetched read: run the dead rank's
            // group as recovery work.
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
        let gidx = self.group_index(key as u32);
        // gnb-lint: allow(panic-path, reason = "gidx came from group_index over this rank's own plan")
        rt.mem_alloc(self.plan.per_rank[self.rank].groups[gidx].bytes);
        self.in_flight -= 1;
        self.ready.push_back(gidx);
        self.ensure_poll(rt);
    }

    fn on_give_up(&mut self, rt: &mut ACtx<'_, '_>, key: u64) {
        if key >= TAKEOVER_KEY_BASE {
            // An adopted re-fetch was abandoned (only possible when
            // message faults exhaust a budget against a live peer — the
            // runtime has recorded the failure). Unwind so the rank still
            // exits.
            self.adopted.remove(&key);
            self.maybe_finish(rt);
            return;
        }
        // The group is abandoned; its tasks stay undone, which the driver
        // turns into RunError::RetryBudgetExhausted (or reports as
        // coverage loss under graceful degradation). Unwind the window so
        // the rank still drains its remaining work and reaches the exit
        // barrier.
        let gidx = self.group_index(key as u32);
        // gnb-lint: allow(panic-path, reason = "done has one slot per group of this rank's plan; gidx came from group_index over that plan")
        self.done[gidx] = true;
        self.in_flight -= 1;
        self.groups_done += 1;
        self.issue_requests(rt);
        self.ensure_poll(rt);
        self.maybe_finish(rt);
    }

    fn on_barrier(&mut self, rt: &mut ACtx<'_, '_>, id: u64) {
        // Waiting that ends at a barrier is synchronization time (split
        // phase or exit).
        rt.classify_idle(TimeCategory::Sync);
        debug_assert!(id == BAR_REG || id == BAR_EXIT);
    }

    fn tasks_done(&self) -> u64 {
        self.tasks_done
    }

    /// This rank's task checksum (valid any time).
    fn checksum(&self) -> u64 {
        self.plan.per_rank[self.rank].checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    ) -> (Vec<RankRuntime<AsyncStrategy>>, gnb_sim::engine::SimReport) {
        let w = workload(nranks);
        w.validate();
        let m = machine(nranks);
        let plan = Arc::new(plan_async(&w, &m, cfg));
        let mut progs: Vec<RankRuntime<AsyncStrategy>> = (0..nranks)
            .map(|r| {
                AsyncStrategy::program_with_recovery(
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
    fn single_rank_never_communicates() {
        let (progs, report) = run(1, &RunConfig::default());
        assert_eq!(progs[0].tasks_done() as usize, workload(1).total_tasks);
        assert_eq!(
            report.ranks[0].ledger[TimeCategory::Comm as usize],
            SimTime::ZERO
        );
    }

    #[test]
    fn window_of_one_still_completes() {
        let cfg = RunConfig {
            rpc_window: 1,
            ..RunConfig::default()
        };
        let (progs, _) = run(4, &cfg);
        let done: u64 = progs.iter().map(|p| p.tasks_done()).sum();
        assert_eq!(done as usize, workload(4).total_tasks);
    }

    #[test]
    fn memory_stays_bounded_by_window() {
        let cfg = RunConfig {
            rpc_window: 2,
            ..RunConfig::default()
        };
        let (_, report) = run(4, &cfg);
        let w = workload(4);
        for (r, rank) in report.ranks.iter().enumerate() {
            let static_bytes = plan_async(&w, &machine(4), &cfg).per_rank[r].static_bytes;
            // Peak = static + at most (window + queued) replies; with
            // window 2 the dynamic excess is tiny.
            assert!(
                rank.mem_peak <= static_bytes + 3 * 2600,
                "rank {r} peak {} static {static_bytes}",
                rank.mem_peak
            );
        }
    }

    #[test]
    fn comm_only_run_has_visible_latency_but_no_compute() {
        // Zero compute AND zero per-task overhead: nothing can hide the
        // round trips, so the wait becomes visible communication. (With
        // the default 45 µs/task overhead, sub-µs intra-node RTTs are
        // fully hidden — which is itself correct behaviour.)
        let cfg = RunConfig {
            cost: CostModel::comm_only(),
            overhead_ns_per_task_async: 0,
            rpc_window: 1, // serialise round trips
            ..RunConfig::default()
        };
        let (_, report) = run(4, &cfg);
        let compute: f64 = report.category_mean(TimeCategory::Compute);
        assert_eq!(compute, 0.0);
        let comm: f64 = report.category_mean(TimeCategory::Comm);
        assert!(comm > 0.0, "with zero compute nothing hides the latency");
    }

    #[test]
    fn compute_hides_communication() {
        // With compute present the same workload exposes a smaller comm
        // *fraction* than the latency-only run.
        let heavy = RunConfig {
            cost: CostModel {
                cells_per_overlap_bp: 500.0,
                fp_cells: 1e6,
                ..CostModel::default()
            },
            ..RunConfig::default()
        };
        let (_, rep_heavy) = run(4, &heavy);
        let only = RunConfig {
            cost: CostModel::comm_only(),
            overhead_ns_per_task_async: 0,
            rpc_window: 1,
            ..RunConfig::default()
        };
        let (_, rep_only) = run(4, &only);
        let frac_heavy =
            rep_heavy.category_mean(TimeCategory::Comm) / rep_heavy.end_time.as_secs_f64();
        let frac_only =
            rep_only.category_mean(TimeCategory::Comm) / rep_only.end_time.as_secs_f64();
        assert!(
            frac_heavy < frac_only * 0.5,
            "visible comm fraction {frac_heavy} vs comm-only {frac_only}"
        );
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
    fn reply_loss_recovered_by_retry() {
        let cfg = RunConfig {
            rpc_drop_period: 3, // drop every third reply
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
        // And the lossy run is slower than the reliable one.
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
