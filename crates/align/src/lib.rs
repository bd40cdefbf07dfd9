//! Pairwise alignment kernels for long-read overlap detection.
//!
//! The paper computes seed-and-extend pairwise alignments with "a performant
//! C++ implementation of X-drop [Zhang et al. 2000] from the SeqAn library"
//! (§4). This crate provides a from-scratch Rust implementation of that
//! kernel, plus exact full-DP baselines used to validate it:
//!
//! * [`ScoringScheme`] — linear-gap match/mismatch/gap weights; `N` never
//!   matches anything (low-confidence calls cannot score as identities);
//! * [`nw::global_score`] — Needleman–Wunsch global alignment, O(nm);
//! * [`sw::local_align`] — Smith–Waterman local alignment, O(nm);
//! * [`xdrop::xdrop_extend`] — banded antidiagonal X-drop extension, the
//!   reference kernel: average-case O(n), terminates early on
//!   false-positive seeds (the source of the paper's variable task costs);
//! * [`interseq::BatchedXDropAligner`] — the production kernel: many pairs
//!   per SIMD register (one pair per `i16` lane) over length buckets with
//!   staged lane refill, bit-identical to the scalar kernel;
//! * [`packed::PackedXDropAligner`] — the same algorithm over 2-bit packed
//!   sequences in exact `i32` arithmetic: the batched engine's fallback for
//!   pairs that fail its `i16` exactness precheck;
//! * [`seed_extend::align_candidate`] — the full candidate workflow: strand
//!   normalisation, two-directional extension from the seed, overlap
//!   classification (paper Fig. 2), acceptance criteria;
//! * [`batch::align_batch`] — the batch driver (batched engine, records in
//!   input order); [`batch::align_batch_serial`] is its scalar reference;
//! * [`calibrate::measure_cell_rate`] — measures host DP-cell throughput to
//!   convert cell counts into simulated KNL-core seconds.
//!
//! Every kernel reports the number of DP cells it evaluated; the simulator
//! uses cells as its machine-independent unit of alignment work.

#![warn(missing_docs)]

pub mod affine;
pub mod banded;
pub mod batch;
pub mod calibrate;
pub mod interseq;
pub mod nw;
pub mod packed;
pub mod scoring;
pub mod seed_extend;
pub mod sw;
pub mod xdrop;

pub use batch::{align_batch, BatchOutcome};
pub use interseq::{
    BatchPlan, BatchStats, BatchedXDropAligner, BucketDesc, IsaPath, LengthBuckets,
};
pub use packed::{PackedView, PackedXDropAligner};
pub use scoring::ScoringScheme;
pub use seed_extend::{align_candidate, AcceptCriteria, AlignmentRecord, Candidate, OverlapClass};
pub use xdrop::{xdrop_extend, Extension, XDropAligner};
