//! Batch alignment drivers.
//!
//! This is the shared-memory execution path: a downstream user aligns an
//! entire candidate set with the inter-sequence batched engine
//! ([`crate::interseq`]). It also provides the measured per-task costs used
//! to calibrate the simulator's cost model, and the serial scalar
//! reference every batched result is validated against.

use crate::interseq::align_candidates_batched;
use crate::scoring::ScoringScheme;
use crate::seed_extend::{
    align_candidate_with, AcceptCriteria, AlignmentRecord, Candidate, SeedExtendScratch,
};
use gnb_genome::ReadSet;

/// Outcome of a batch alignment.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One record per input candidate, in input order.
    pub records: Vec<AlignmentRecord>,
    /// Total DP cells across all tasks.
    pub total_cells: u64,
    /// Wall-clock time of the alignment.
    pub elapsed: std::time::Duration,
}

impl BatchOutcome {
    /// The accepted alignments only.
    pub fn accepted(&self) -> impl Iterator<Item = &AlignmentRecord> {
        self.records.iter().filter(|r| r.accepted)
    }

    /// Number of accepted alignments.
    pub fn accepted_count(&self) -> usize {
        self.records.iter().filter(|r| r.accepted).count()
    }
}

/// Alignment parameters shared across a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AlignParams {
    /// Seed length (the k used for candidate discovery).
    pub k: usize,
    /// Scoring scheme.
    pub scoring: ScoringScheme,
    /// X-drop threshold.
    pub x: i32,
    /// Acceptance criteria.
    pub criteria: AcceptCriteria,
}

impl Default for AlignParams {
    fn default() -> Self {
        AlignParams {
            k: 17,
            scoring: ScoringScheme::DEFAULT,
            x: 25,
            criteria: AcceptCriteria::default(),
        }
    }
}

/// Aligns every candidate with the batched engine; records are returned in
/// input order, so results are deterministic and independent of the
/// schedule.
///
/// Internally tasks run **longest-first**, cut into length buckets with
/// lane refill (see [`crate::interseq`]): a task's true cost is unknowable
/// before it runs (§4.2 of the paper), so `len(a) + len(b)` is the cheap
/// upper-bound proxy that keeps co-resident lanes finishing together.
/// Records are bit-identical to [`align_batch_serial`].
pub fn align_batch(reads: &ReadSet, tasks: &[Candidate], params: &AlignParams) -> BatchOutcome {
    // gnb-lint: allow(wall-clock, reason = "measures real alignment wall time; deterministic outputs are the records, not the timing")
    let start = std::time::Instant::now();
    let (records, _) = align_candidates_batched(reads, tasks, params);
    let elapsed = start.elapsed();
    let total_cells = records.iter().map(|r| r.cells).sum();
    BatchOutcome {
        records,
        total_cells,
        elapsed,
    }
}

/// Serial reference driver (validation and single-thread baselines).
///
/// Runs the scalar reference kernel in input order — it *is* the reference
/// the batched path is validated against, so comparing [`align_batch`]
/// (batched engine, bucketed longest-first schedule) to this function
/// cross-checks both the kernel and the schedule.
pub fn align_batch_serial(
    reads: &ReadSet,
    tasks: &[Candidate],
    params: &AlignParams,
) -> BatchOutcome {
    // gnb-lint: allow(wall-clock, reason = "measures real alignment wall time; deterministic outputs are the records, not the timing")
    let start = std::time::Instant::now();
    let mut scratch = SeedExtendScratch::new();
    let records: Vec<AlignmentRecord> = tasks
        .iter()
        .map(|cand| {
            align_candidate_with(
                &mut scratch,
                reads.read(cand.a as usize),
                reads.read(cand.b as usize),
                cand,
                params.k,
                &params.scoring,
                params.x,
                &params.criteria,
            )
        })
        .collect();
    let elapsed = start.elapsed();
    let total_cells = records.iter().map(|r| r.cells).sum();
    BatchOutcome {
        records,
        total_cells,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_genome::reads::{ReadOrigin, Strand};

    fn make_reads() -> (ReadSet, Vec<Candidate>) {
        let bases = b"ACGT";
        let gen = |seed: usize, n: usize| -> Vec<u8> {
            (0..n)
                .map(|i| bases[(i * 7 + seed * 13 + i / 3) % 4])
                .collect()
        };
        let core = gen(5, 600);
        let a: Vec<u8> = gen(1, 200).into_iter().chain(core.clone()).collect();
        let b: Vec<u8> = core.into_iter().chain(gen(2, 200)).collect();
        let mut rs = ReadSet::new();
        let o = ReadOrigin {
            start: 0,
            ref_len: 0,
            strand: Strand::Forward,
        };
        rs.push(&a, o);
        rs.push(&b, o);
        let cands = vec![
            Candidate {
                a: 0,
                b: 1,
                a_pos: 400,
                b_pos: 200,
                same_strand: true,
            },
            Candidate {
                a: 1,
                b: 0,
                a_pos: 100,
                b_pos: 300,
                same_strand: true,
            },
        ];
        (rs, cands)
    }

    fn params() -> AlignParams {
        AlignParams {
            k: 17,
            scoring: ScoringScheme::DEFAULT,
            x: 25,
            criteria: AcceptCriteria {
                min_score: 100,
                min_overlap: 100,
            },
            ..AlignParams::default()
        }
    }

    #[test]
    fn parallel_matches_serial() {
        // The batched path (bucketed longest-first schedule) must agree
        // record-for-record with the scalar in-order reference.
        let (reads, cands) = make_reads();
        let p = params();
        let par = align_batch(&reads, &cands, &p);
        let ser = align_batch_serial(&reads, &cands, &p);
        assert_eq!(par.records, ser.records);
        assert_eq!(par.total_cells, ser.total_cells);
    }

    #[test]
    fn both_candidates_accepted() {
        let (reads, cands) = make_reads();
        let out = align_batch(&reads, &cands, &params());
        assert_eq!(out.accepted_count(), 2);
        for r in out.accepted() {
            assert_eq!(r.score, 600);
        }
    }

    #[test]
    fn empty_batch() {
        let (reads, _) = make_reads();
        let out = align_batch(&reads, &[], &params());
        assert!(out.records.is_empty());
        assert_eq!(out.total_cells, 0);
        assert_eq!(out.accepted_count(), 0);
    }

    #[test]
    fn records_in_input_order() {
        let (reads, mut cands) = make_reads();
        cands.reverse();
        let out = align_batch(&reads, &cands, &params());
        assert_eq!(out.records[0].a, cands[0].a);
        assert_eq!(out.records[1].a, cands[1].a);
    }

    #[test]
    fn mixed_lengths_scatter_back_to_input_order() {
        // A short pair queued before a long pair: the longest-first
        // schedule runs them in the opposite order, but the outputs must
        // land back in input order.
        let (mut reads, _) = make_reads();
        let o = ReadOrigin {
            start: 0,
            ref_len: 0,
            strand: Strand::Forward,
        };
        let short: Vec<u8> = (0..60)
            .map(|i| b"ACGT"[(i * 7 + 5 * 13 + i / 3) % 4])
            .collect();
        let s0 = reads.push(&short, o);
        let s1 = reads.push(&short, o);
        let cands = vec![
            Candidate {
                a: s0,
                b: s1,
                a_pos: 10,
                b_pos: 10,
                same_strand: true,
            },
            Candidate {
                a: 0,
                b: 1,
                a_pos: 400,
                b_pos: 200,
                same_strand: true,
            },
        ];
        let out = align_batch(&reads, &cands, &params());
        let ser = align_batch_serial(&reads, &cands, &params());
        assert_eq!(out.records, ser.records);
        assert_eq!((out.records[0].a, out.records[0].b), (s0, s1));
        assert_eq!((out.records[1].a, out.records[1].b), (0, 1));
    }
}
