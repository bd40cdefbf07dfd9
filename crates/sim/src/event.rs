//! The event queue: a deterministic min-heap over `(time, sequence)`.
//!
//! # Zero-churn layout
//!
//! Payloads live in an **arena** (`slots` + free list); the binary heap
//! orders small `Copy` entries that reference a slot by index. This keeps
//! the hot engine loop allocation-free in the steady state:
//!
//! * a deferred event (busy/stalled rank) is re-queued under a fresh key
//!   for the *same* slot — the payload is never moved, cloned, or
//!   re-allocated;
//! * a dispatched event returns its slot to the free list, so the next
//!   `push` reuses it instead of growing the arena;
//! * heap sift operations move 24-byte `Copy` entries, not payloads.
//!
//! The arena therefore grows to the peak number of *concurrent* pending
//! events and stays there ([`EventQueue::slot_count`]), no matter how many
//! events flow through.
//!
//! # Deferral runs
//!
//! A busy rank defers every event that reaches it to its `busy_until`
//! horizon, and each dispatch moves that horizon again, so the events
//! still waiting behind it come back to the front one after another and
//! are deferred anew. Through a plain heap every such re-deferral is a pop
//! plus a push, O(k²) heap traffic per busy period of k waiting events.
//!
//! Under [`TieBreak::Fifo`] a rank's deferred events need no heap order of
//! their own: their keys are `(busy_until, fresh seq)` and both parts only
//! grow, so in deferral order they are already sorted. [`EventQueue::requeue`]
//! therefore appends each one to its rank's *run*, a FIFO linked through
//! the arena slots (one link per slot, one head/tail pair per rank). Every
//! non-empty run joins the heap through one representative entry, its
//! front — except the *current* run, the one popped from last, which sits
//! outside the heap and pops directly while its front key is below the heap
//! top. Re-deferring a run's front is O(1) link surgery;
//! [`EventQueue::pop_deferred`] hands the engine the rest of the run that
//! would pop next anyway, so it can re-defer it in one pass.
//!
//! Pop order, sequence numbers, [`EventQueue::len`] and
//! [`EventQueue::peek_time`] are exactly those of a plain heap that
//! re-pushes every deferred event. Under [`TieBreak::Lifo`] equal-time keys
//! fall as sequence numbers grow, so a run would not be sorted and
//! `requeue` keeps the plain heap push; so does a requeue whose time lies
//! before the back of its run (never the engine's case: `busy_until` only
//! grows).

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What an event delivers to a rank. Generic over the application message
/// type `M` (each simulation defines its own enum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventPayload<M> {
    /// Program start.
    Start,
    /// A message from `src` (also used for self-timers, with `src == dst`).
    Message {
        /// Sending rank.
        src: usize,
        /// Application payload.
        msg: M,
    },
    /// A barrier this rank entered has completed.
    BarrierDone {
        /// Barrier identifier.
        id: u64,
    },
}

/// A scheduled event targeting one rank, with its payload resolved out of
/// the arena (the by-value interface of [`EventQueue::pop`]).
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Delivery time (the rank may start handling later if busy).
    pub time: SimTime,
    /// Global insertion sequence; the deterministic tie-break.
    pub seq: u64,
    /// Destination rank.
    pub dst: usize,
    /// Payload.
    pub payload: EventPayload<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Tie-break policy among events sharing the same virtual time.
///
/// [`TieBreak::Fifo`] (insertion order) is the engine's documented
/// contract. [`TieBreak::Lifo`] reverses the order of equal-time events —
/// it exists purely as a perturbation mode for determinism testing: any
/// observable that changes between Fifo and Lifo runs depends on the
/// arbitrary tie-break, which is exactly what the race detector hunts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TieBreak {
    /// Earliest-inserted first (the deterministic default).
    #[default]
    Fifo,
    /// Latest-inserted first (perturbation replay mode).
    Lifo,
}

impl TieBreak {
    /// The heap ordering key for a sequence number under this policy:
    /// events sharing a virtual time pop in ascending `order(seq)`. This is
    /// the single definition of the tie-break; the parallel engine's
    /// shard-local merge uses it to reproduce the serial pop order.
    pub fn order(self, seq: u64) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Lifo => u64::MAX - seq,
        }
    }
}

/// Heap entry: `key` is `(time, tie_break.order(seq))`, so the
/// `BinaryHeap` ordering stays a plain lexicographic compare (and, `order`
/// being an involution, `seq` is recovered from it). `Copy` — the payload
/// stays in the arena, referenced by `slot`.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: (SimTime, u64),
    dst: u32,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event.
        other.key.cmp(&self.key)
    }
}

/// End-of-run marker for slot links (never a slot index: the arena holds
/// fewer than `u32::MAX` slots).
const NIL: u32 = u32::MAX;

/// A deferred event's place in its rank's run: its key (runs exist only
/// under [`TieBreak::Fifo`], where the key is `(time, seq)`) and the next
/// slot of the run. Meaningful only while the slot is in a run.
#[derive(Debug, Clone, Copy)]
struct RunLink {
    time: SimTime,
    seq: u64,
    next: u32,
}

impl RunLink {
    const UNLINKED: RunLink = RunLink {
        time: SimTime::ZERO,
        seq: 0,
        next: NIL,
    };
}

/// An arena slot: the payload (`None` when free) and its run link.
#[derive(Debug)]
struct Slot<M> {
    payload: Option<EventPayload<M>>,
    link: RunLink,
}

/// One rank's deferral run: first and last slot, [`NIL`] when empty.
#[derive(Debug, Clone, Copy)]
struct Run {
    head: u32,
    tail: u32,
}

impl Run {
    const EMPTY: Run = Run {
        head: NIL,
        tail: NIL,
    };
}

/// A popped event whose payload still lives in the arena. `Copy`, so the
/// engine can inspect `time`/`dst`, then either [`EventQueue::requeue`] it
/// (busy rank — payload untouched) or [`EventQueue::resolve`] it to take
/// the payload and recycle the slot.
#[derive(Debug, Clone, Copy)]
pub struct QueuedEvent {
    /// Delivery time (the rank may start handling later if busy).
    pub time: SimTime,
    /// Global insertion sequence; the deterministic tie-break.
    pub seq: u64,
    /// Destination rank.
    pub dst: usize,
    slot: u32,
}

/// Deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<M> {
    /// Fresh events plus one representative (the front) per non-current
    /// deferral run.
    heap: BinaryHeap<HeapEntry>,
    /// Payload arena; slots without a payload are listed in `free`.
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    /// Per-rank deferral runs, grown on the first requeue to a rank.
    runs: Vec<Run>,
    /// The run held outside the heap (the one popped from last, or a new
    /// run started while there was none): non-empty, with no
    /// representative in `heap`.
    current: Option<u32>,
    /// Pending events: heap entries that are not run representatives,
    /// plus every run entry.
    len: usize,
    next_seq: u64,
    tie_break: TieBreak,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            runs: Vec::new(),
            current: None,
            len: 0,
            next_seq: 0,
            tie_break: TieBreak::Fifo,
        }
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with room for `cap` concurrent events before
    /// any allocation.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    /// Reserves room for at least `cap` concurrent events.
    pub fn reserve(&mut self, cap: usize) {
        let len = self.heap.len();
        self.heap.reserve(cap.saturating_sub(len));
        self.slots.reserve(cap.saturating_sub(self.slots.len()));
        self.free.reserve(cap.saturating_sub(self.free.len()));
    }

    /// Sets the equal-time ordering policy (before any events are queued).
    pub fn set_tie_break(&mut self, tb: TieBreak) {
        assert!(
            self.is_empty(),
            "tie-break policy must be set before events are queued"
        );
        self.tie_break = tb;
    }

    /// The active equal-time ordering policy.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// Schedules `payload` for `dst` at `time`. Returns the assigned
    /// sequence number (the event's identity for observability edges).
    pub fn push(&mut self, time: SimTime, dst: usize, payload: EventPayload<M>) -> u64 {
        debug_assert!(dst < u32::MAX as usize, "rank id out of range");
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].payload = Some(payload);
                s
            }
            None => {
                assert!(self.slots.len() < NIL as usize, "event arena full");
                self.slots.push(Slot {
                    payload: Some(payload),
                    link: RunLink::UNLINKED,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.alloc_seq();
        self.len += 1;
        self.heap.push(HeapEntry {
            key: (time, self.tie_break.order(seq)),
            dst: dst as u32,
            slot,
        });
        seq
    }

    /// Burns the next sequence number without enqueueing anything. The
    /// parallel engine's merge-replay uses this to account for events that
    /// were pushed *and* consumed inside one lookahead window on a shard:
    /// the serial engine would have assigned them a sequence number at this
    /// exact point, so the counter must advance identically for every later
    /// assignment to line up.
    pub(crate) fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Front link and slot of run `r`, which must be non-empty.
    fn run_front(&self, r: u32) -> (RunLink, u32) {
        // gnb-lint: allow(panic-path, reason = "callers pass the current run or a run whose representative was just popped; both are non-empty entries of runs")
        let head = self.runs[r as usize].head;
        // gnb-lint: allow(panic-path, reason = "a non-empty run's head is a slot index into the never-shrinking arena")
        (self.slots[head as usize].link, head)
    }

    /// Key of the current run's front, if there is a current run.
    fn current_key(&self) -> Option<(SimTime, u64)> {
        let (front, _) = self.run_front(self.current?);
        Some((front.time, front.seq))
    }

    /// Virtual time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|e| e.key);
        self.current_key()
            .into_iter()
            .chain(heap)
            .min()
            .map(|(time, _)| time)
    }

    /// `true` when the current run's front is the earliest pending event.
    fn current_leads(&self) -> bool {
        self.current_key()
            .is_some_and(|k| self.heap.peek().is_none_or(|e| k < e.key))
    }

    /// Pops the earliest event as an arena handle. The payload stays in
    /// its slot until [`EventQueue::resolve`] (or returns to the queue via
    /// [`EventQueue::requeue`]).
    pub fn pop_entry(&mut self) -> Option<QueuedEvent> {
        if let Some(r) = self.current.filter(|_| self.current_leads()) {
            return Some(self.pop_current(r));
        }
        let e = self.heap.pop()?;
        let is_run_front = self
            .runs
            .get(e.dst as usize)
            .is_some_and(|run| run.head == e.slot);
        if is_run_front {
            // A run's representative: that run becomes current, and the
            // previous current run rejoins the heap through its front.
            if let Some(prev) = self.current.replace(e.dst) {
                let (front, slot) = self.run_front(prev);
                self.heap.push(HeapEntry {
                    key: (front.time, front.seq),
                    dst: prev,
                    slot,
                });
            }
            return Some(self.pop_current(e.dst));
        }
        self.len -= 1;
        Some(QueuedEvent {
            time: e.key.0,
            seq: self.tie_break.order(e.key.1),
            dst: e.dst as usize,
            slot: e.slot,
        })
    }

    /// Pops the front of run `r`, which must be the current run.
    fn pop_current(&mut self, r: u32) -> QueuedEvent {
        // gnb-lint: allow(panic-path, reason = "only called for the current run, which is a non-empty entry of runs")
        let run = &mut self.runs[r as usize];
        let slot = run.head;
        // gnb-lint: allow(panic-path, reason = "a non-empty run's head is a slot index into the never-shrinking arena")
        let front = self.slots[slot as usize].link;
        run.head = front.next;
        if front.next == NIL {
            run.tail = NIL;
            self.current = None;
        }
        self.len -= 1;
        QueuedEvent {
            time: front.time,
            seq: front.seq,
            dst: r as usize,
            slot,
        }
    }

    /// Pops the next event only if it is the front of `dst`'s current
    /// deferral run and due before `before` — exactly the event
    /// [`EventQueue::pop_entry`] would return next, restricted to events
    /// that went through [`EventQueue::requeue`] to a rank still busy
    /// until `before`. The engine calls it after deferring an event to
    /// re-defer, in one pass, the rest of the run that would pop next
    /// anyway. `None` means "go through `pop_entry`" (always the case
    /// under [`TieBreak::Lifo`], which keeps no runs).
    pub fn pop_deferred(&mut self, dst: usize, before: SimTime) -> Option<QueuedEvent> {
        let r = self.current.filter(|&r| r as usize == dst)?;
        let (front, _) = self.run_front(r);
        (front.time < before && self.current_leads()).then(|| self.pop_current(r))
    }

    /// Re-schedules a popped event for `time` without touching its
    /// payload. The event gets a fresh sequence number, exactly as if its
    /// payload had been re-pushed — deferred events sort behind events
    /// already queued for the same instant (the engine's documented
    /// busy-rank semantics) — but the payload is neither moved nor cloned.
    /// Returns the fresh sequence number.
    pub fn requeue(&mut self, ev: QueuedEvent, time: SimTime) -> u64 {
        debug_assert!(
            // gnb-lint: allow(panic-path, reason = "a popped entry's slot index was minted by push into the same slots vector and slots never shrinks")
            self.slots[ev.slot as usize].payload.is_some(),
            "requeueing a resolved event"
        );
        let seq = self.alloc_seq();
        self.len += 1;
        if self.tie_break == TieBreak::Fifo && self.append_to_run(ev.dst, ev.slot, time, seq) {
            return seq;
        }
        self.heap.push(HeapEntry {
            key: (time, self.tie_break.order(seq)),
            dst: ev.dst as u32,
            slot: ev.slot,
        });
        seq
    }

    /// Appends `slot` with key `(time, seq)` to `dst`'s run; `false` (and
    /// nothing changed) when the key would sort before the run's back.
    fn append_to_run(&mut self, dst: usize, slot: u32, time: SimTime, seq: u64) -> bool {
        if dst >= self.runs.len() {
            self.runs.resize(dst + 1, Run::EMPTY);
        }
        // gnb-lint: allow(panic-path, reason = "runs was just resized to cover dst")
        let tail = self.runs[dst].tail;
        if tail != NIL {
            // gnb-lint: allow(panic-path, reason = "a non-empty run's tail is a slot index into the never-shrinking arena")
            let back = &mut self.slots[tail as usize].link;
            if time < back.time {
                return false;
            }
            back.next = slot;
        }
        // gnb-lint: allow(panic-path, reason = "a popped entry's slot index was minted by push into the same slots vector and slots never shrinks")
        self.slots[slot as usize].link = RunLink {
            time,
            seq,
            next: NIL,
        };
        // gnb-lint: allow(panic-path, reason = "runs was just resized to cover dst")
        let run = &mut self.runs[dst];
        run.tail = slot;
        if tail == NIL {
            // A new run: current if there is none, else it joins the heap
            // through its front.
            run.head = slot;
            if self.current.is_none() {
                self.current = Some(dst as u32);
            } else {
                self.heap.push(HeapEntry {
                    key: (time, seq),
                    dst: dst as u32,
                    slot,
                });
            }
        }
        true
    }

    /// Takes a popped event's payload and recycles its slot.
    pub fn resolve(&mut self, ev: QueuedEvent) -> EventPayload<M> {
        // gnb-lint: allow(panic-path, reason = "a popped entry's slot index was minted by push into the same slots vector and slots never shrinks")
        let p = self.slots[ev.slot as usize]
            .payload
            .take()
            // gnb-lint: allow(panic-path, reason = "the queue hands each popped entry out exactly once; resolving twice is queue corruption and must abort deterministically")
            .expect("resolving an event twice");
        self.free.push(ev.slot);
        p
    }

    /// Pops the earliest event with its payload (the by-value interface;
    /// equivalent to [`EventQueue::pop_entry`] + [`EventQueue::resolve`]).
    pub fn pop(&mut self) -> Option<Event<M>> {
        let qe = self.pop_entry()?;
        let payload = self.resolve(qe);
        Some(Event {
            time: qe.time,
            seq: qe.seq,
            dst: qe.dst,
            payload,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the payload arena: the peak number of concurrent pending
    /// events seen so far (slots are recycled, never dropped).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// A reference-model entry: `(time, order(seq), seq, dst, id)`, `id`
    /// standing in for the payload.
    type ModelEntry = (SimTime, u64, u64, usize, u64);

    /// The plain-heap requeue the deferral runs replaced: every deferral
    /// re-pushes the event under a fresh key. The reference the queue must
    /// match pop for pop.
    struct HeapModel {
        heap: BinaryHeap<Reverse<ModelEntry>>,
        next_seq: u64,
        tie_break: TieBreak,
    }

    impl HeapModel {
        fn new(tie_break: TieBreak) -> Self {
            HeapModel {
                heap: BinaryHeap::new(),
                next_seq: 0,
                tie_break,
            }
        }

        fn push(&mut self, time: SimTime, dst: usize, id: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            let order = self.tie_break.order(seq);
            self.heap.push(Reverse((time, order, seq, dst, id)));
            seq
        }

        /// Pops `(time, seq, dst, id)`.
        fn pop(&mut self) -> Option<(SimTime, u64, usize, u64)> {
            let Reverse((time, _, seq, dst, id)) = self.heap.pop()?;
            Some((time, seq, dst, id))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse(e)| e.0)
        }
    }

    fn id_of(payload: &EventPayload<u64>) -> u64 {
        match payload {
            EventPayload::Message { msg, .. } => *msg,
            _ => panic!("model events carry messages"),
        }
    }

    /// Checks that `got` is the model's next pop, payload included.
    fn same_pop(
        q: &EventQueue<u64>,
        model: &mut HeapModel,
        got: QueuedEvent,
    ) -> Result<(), TestCaseError> {
        let want = model.pop();
        let id = q.slots[got.slot as usize].payload.as_ref().map(id_of);
        prop_assert_eq!(
            Some((got.time, got.seq, got.dst, id)),
            want.map(|(t, s, d, i)| (t, s, d, Some(i)))
        );
        Ok(())
    }

    fn same_state(q: &EventQueue<u64>, model: &HeapModel) -> Result<(), TestCaseError> {
        prop_assert_eq!(q.len(), model.heap.len());
        prop_assert_eq!(q.is_empty(), model.heap.is_empty());
        prop_assert_eq!(q.peek_time(), model.peek_time());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random push / pop / requeue / resolve traffic — engine-style
        /// deferral to a monotone per-rank `busy`, batch re-deferral
        /// through `pop_deferred`, and arbitrary requeue times — yields
        /// the plain-heap reference's pop sequence, seqs, length and peek
        /// time at every step, under both tie-breaks. Times come from a
        /// narrow range, so equal-time ties are common.
        #[test]
        fn runs_match_plain_heap_requeue(
            lifo in 0u8..2,
            ops in prop::collection::vec((0u8..10, 0usize..4, 0u64..4), 1..300),
        ) {
            let tie_break = if lifo == 1 { TieBreak::Lifo } else { TieBreak::Fifo };
            let mut q: EventQueue<u64> = EventQueue::new();
            q.set_tie_break(tie_break);
            let mut model = HeapModel::new(tie_break);
            let mut busy = [SimTime::ZERO; 4];
            let mut clock = SimTime::ZERO;
            let mut next_id = 0u64;
            for (kind, dst, dt) in ops {
                let dt = SimTime::from_ns(dt);
                match kind {
                    0..=3 => {
                        let id = next_id;
                        next_id += 1;
                        let payload = EventPayload::Message { src: dst, msg: id };
                        let seq = q.push(clock + dt, dst, payload);
                        prop_assert_eq!(seq, model.push(clock + dt, dst, id));
                    }
                    _ => {
                        let Some(ev) = q.pop_entry() else {
                            prop_assert!(model.pop().is_none());
                            continue;
                        };
                        same_pop(&q, &mut model, ev)?;
                        clock = ev.time;
                        let id = q.slots[ev.slot as usize].payload.as_ref().map(id_of).unwrap();
                        match kind {
                            4 | 5 => {
                                prop_assert_eq!(id_of(&q.resolve(ev)), id);
                            }
                            6..=8 => {
                                // Engine-style deferral: `busy` only grows.
                                let b = &mut busy[ev.dst];
                                *b = (*b).max(ev.time) + dt;
                                let until = *b;
                                let mut ev = ev;
                                loop {
                                    let id = q.slots[ev.slot as usize].payload.as_ref().map(id_of).unwrap();
                                    if ev.seq % 7 == 3 {
                                        // A crash-doomed deferral drops the event.
                                        prop_assert_eq!(id_of(&q.resolve(ev)), id);
                                    } else {
                                        let seq = q.requeue(ev, until);
                                        prop_assert_eq!(seq, model.push(until, ev.dst, id));
                                    }
                                    same_state(&q, &model)?;
                                    match q.pop_deferred(ev.dst, until) {
                                        Some(next) => {
                                            prop_assert!(next.dst == ev.dst && next.time < until);
                                            same_pop(&q, &mut model, next)?;
                                            ev = next;
                                        }
                                        None => break,
                                    }
                                }
                            }
                            _ => {
                                // Arbitrary time, possibly before the run's back.
                                let seq = q.requeue(ev, clock + dt);
                                prop_assert_eq!(seq, model.push(clock + dt, ev.dst, id));
                            }
                        }
                    }
                }
                same_state(&q, &model)?;
            }
            while let Some(ev) = q.pop_entry() {
                same_pop(&q, &mut model, ev)?;
                let _ = q.resolve(ev);
                same_state(&q, &model)?;
            }
            prop_assert!(model.pop().is_none());
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::from_ns(30), 0, EventPayload::Start);
        q.push(SimTime::from_ns(10), 1, EventPayload::Start);
        q.push(SimTime::from_ns(20), 2, EventPayload::Start);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.dst)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_ns(5);
        for dst in 0..10 {
            q.push(t, dst, EventPayload::Start);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.dst)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn lifo_reverses_equal_time_order_only() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.set_tie_break(TieBreak::Lifo);
        let t = SimTime::from_ns(5);
        for dst in 0..4 {
            q.push(t, dst, EventPayload::Start);
        }
        // A strictly earlier event still comes first regardless of policy.
        q.push(SimTime::from_ns(1), 9, EventPayload::Start);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.dst)).collect();
        assert_eq!(order, vec![9, 3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "before events are queued")]
    fn tie_break_locked_once_queued() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::ZERO, 0, EventPayload::Start);
        q.set_tie_break(TieBreak::Lifo);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 0, EventPayload::Start);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn payload_carried() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(
            SimTime::ZERO,
            3,
            EventPayload::Message {
                src: 1,
                msg: "hello",
            },
        );
        let e = q.pop().unwrap();
        assert_eq!(e.dst, 3);
        match e.payload {
            EventPayload::Message { src, msg } => {
                assert_eq!(src, 1);
                assert_eq!(msg, "hello");
            }
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn requeue_defers_with_fresh_seq_and_same_payload() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(
            SimTime::from_ns(10),
            0,
            EventPayload::Message {
                src: 0,
                msg: "deferred",
            },
        );
        q.push(
            SimTime::from_ns(20),
            1,
            EventPayload::Message {
                src: 0,
                msg: "other",
            },
        );
        let e = q.pop_entry().unwrap();
        assert_eq!((e.time.as_ns(), e.dst), (10, 0));
        let old_seq = e.seq;
        q.requeue(e, SimTime::from_ns(30));
        // The other event now comes first; the deferred one follows with a
        // fresh (larger) sequence number and its payload intact.
        let mid = q.pop().unwrap();
        assert_eq!(mid.dst, 1);
        let back = q.pop().unwrap();
        assert_eq!(back.time.as_ns(), 30);
        assert!(back.seq > old_seq, "requeue assigns a fresh seq");
        assert_eq!(
            back.payload,
            EventPayload::Message {
                src: 0,
                msg: "deferred"
            }
        );
        assert!(q.is_empty());
    }

    #[test]
    fn arena_recycles_slots_in_steady_state() {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(4);
        for i in 0..10_000u64 {
            q.push(
                SimTime::from_ns(i),
                0,
                EventPayload::Message { src: 0, msg: i },
            );
            q.push(
                SimTime::from_ns(i),
                1,
                EventPayload::Message { src: 0, msg: i },
            );
            let a = q.pop_entry().unwrap();
            let _ = q.resolve(a);
            let b = q.pop_entry().unwrap();
            let _ = q.resolve(b);
        }
        // 20k events flowed through; the arena never outgrew the peak of
        // two concurrent events.
        assert!(q.slot_count() <= 2, "arena grew to {}", q.slot_count());
        assert!(q.is_empty());
    }

    #[test]
    fn push_and_requeue_return_assigned_seq() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let s0 = q.push(SimTime::ZERO, 0, EventPayload::Start);
        let s1 = q.push(SimTime::ZERO, 1, EventPayload::Start);
        assert_eq!((s0, s1), (0, 1));
        let e = q.pop_entry().unwrap();
        assert_eq!(e.seq, s0);
        let s2 = q.requeue(e, SimTime::from_ns(5));
        assert_eq!(s2, 2, "requeue assigns (and reports) a fresh seq");
        let back = q.pop().unwrap();
        assert_eq!(back.seq, s1);
        assert_eq!(q.pop().unwrap().seq, s2);
    }

    #[test]
    #[should_panic(expected = "resolving an event twice")]
    fn double_resolve_panics() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::ZERO, 0, EventPayload::Start);
        let e = q.pop_entry().unwrap();
        let _ = q.resolve(e);
        let _ = q.resolve(e);
    }
}
