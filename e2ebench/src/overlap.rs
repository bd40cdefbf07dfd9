//! `overlap-ecoli30`: a closed loop with one client sending sequential
//! jobs. Each job hands the program a freshly seeded E. coli 30x read set
//! as FASTA bytes; the program parses it, finds and aligns overlap
//! candidates (`run_pipeline`), and models the job's makespan under each
//! coordination strategy on one simulated node.
//!
//! The traced run calls the stages `run_pipeline` runs one at a time,
//! each in a span, and checks that its alignments equal `run_pipeline`'s.

use crate::cells::{remote_metrics, run_cell, sim_metrics, Cell};
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::{Budget, Run, Size};
use gnb_align::batch::align_batch;
use gnb_align::{AlignmentRecord, Candidate};
use gnb_core::driver::Algorithm;
use gnb_core::machine::MachineConfig;
use gnb_core::pipeline::{run_pipeline, PipelineParams};
use gnb_core::workload::{task_checksum, SimWorkload};
use gnb_genome::{fasta, presets, ReadSet};
use gnb_kmer::{count_kmers, BellaModel, SeedIndex};
use gnb_overlap::candidates::generate_candidates;
use gnb_overlap::synth::true_overlaps;
use std::collections::BTreeSet;
use std::time::Instant;

/// Genome scale divisor: the smallest genome the preset allows (10 kbp).
const SCALE: usize = 512;
/// A pair of reads is a true overlap when the reads share this many
/// reference bases (the `examples/ecoli_overlap.rs` definition).
const TRUTH_MIN_OVERLAP: usize = 1000;
/// Floors over the first `MIN_SWEEPS` sweeps of a run.
pub const RECALL_FLOOR: f64 = 0.9;
pub const PRECISION_FLOOR: f64 = 0.9;
/// Floors for any single job.
pub const JOB_RECALL_FLOOR: f64 = 0.75;
pub const JOB_PRECISION_FLOOR: f64 = 0.75;

struct Shape {
    jobs_per_sweep: usize,
    min_sweeps: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            jobs_per_sweep: 4,
            min_sweeps: 2,
        },
        Size::Smoke => Shape {
            jobs_per_sweep: 1,
            min_sweeps: 1,
        },
    }
}

/// The pipeline parameters: `PipelineParams::new` with the acceptance
/// criteria of `examples/ecoli_overlap.rs`.
fn params() -> PipelineParams {
    let preset = presets::ecoli_30x();
    let mut p = PipelineParams::new(preset.coverage, preset.errors.total_rate());
    p.align.criteria.min_score = 150;
    p.align.criteria.min_overlap = 500;
    p
}

/// One job's input: the read set with its ground truth, and the FASTA
/// bytes the program receives.
struct Input {
    truth: ReadSet,
    fasta: Vec<u8>,
}

/// splitmix64 of the run seed and job index: every job gets its own read
/// set, and the same seed gives the same inputs.
fn job_seed(seed: u64, job: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(job.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn make_input(tr: &mut Tracer, seed: u64, job: u64) -> Input {
    tr.span("genome", "generate", job, || {
        let truth = presets::ecoli_30x()
            .scaled(SCALE)
            .generate(job_seed(seed, job));
        let mut fasta = Vec::new();
        fasta::write_fasta(&mut fasta, &truth).expect("writing FASTA to memory");
        Input { truth, fasta }
    })
}

/// What the program returned for one job.
struct Output {
    tasks: Vec<Candidate>,
    records: Vec<AlignmentRecord>,
    cells_aligned: u64,
    distinct: usize,
    retained: usize,
    model: SimWorkload,
    cells: Vec<Cell>,
}

/// Models the job's makespan under each strategy on one 8-core node. The
/// cost model's alignable extent of a task is the extent its alignment
/// actually covered.
fn model(
    tr: &mut Tracer,
    job: u64,
    reads: &ReadSet,
    tasks: &[Candidate],
    records: &[AlignmentRecord],
) -> (SimWorkload, Vec<Cell>) {
    let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
    let extents: Vec<u32> = records
        .iter()
        .map(|r| r.a_end.abs_diff(r.a_begin).max(r.b_end.abs_diff(r.b_begin)))
        .collect();
    let w = tr.span("core", "prepare", job, || {
        SimWorkload::prepare(&reads.lengths(), tasks, &extents, machine.nranks())
    });
    let cells = Algorithm::ALL
        .iter()
        .map(|&alg| run_cell(tr, job, &w, &machine, alg, 1, job as usize))
        .collect();
    (w, cells)
}

/// The user's job, untraced: parse, `run_pipeline`, model.
fn job_untraced(input: &Input, params: &PipelineParams, job: u64) -> Result<Output, String> {
    let reads =
        fasta::read_fasta(&input.fasta[..]).map_err(|e| format!("job {job}: FASTA: {e}"))?;
    let res = run_pipeline(&reads, params);
    let (model, cells) = model(
        &mut Tracer::new(false),
        job,
        &reads,
        &res.tasks,
        &res.outcome.records,
    );
    Ok(Output {
        cells_aligned: res.outcome.total_cells,
        distinct: res.distinct_kmers,
        retained: res.retained_kmers,
        tasks: res.tasks,
        records: res.outcome.records,
        model,
        cells,
    })
}

/// The same job with each stage of `run_pipeline` called on its own,
/// inside a span.
fn job_traced(
    tr: &mut Tracer,
    input: &Input,
    params: &PipelineParams,
    job: u64,
) -> Result<Output, String> {
    let root = tr.begin("bench", "job", job);
    let reads = tr
        .span("genome", "parse", job, || {
            fasta::read_fasta(&input.fasta[..])
        })
        .map_err(|e| format!("job {job}: FASTA: {e}"))?;
    let mut counts = tr.span("kmer", "count", job, || count_kmers(&reads, params.k));
    let (distinct, retained) = tr.span("kmer", "filter", job, || {
        let distinct = counts.distinct();
        let bella = BellaModel::new(params.coverage, params.error_rate, params.k);
        let (lo, hi) = bella.reliable_interval();
        counts.filter_frequency(lo, hi);
        (distinct, counts.distinct())
    });
    let index = tr.span("kmer", "index", job, || SeedIndex::build(&reads, &counts));
    let tasks = tr.span("overlap", "candidates", job, || generate_candidates(&index));
    let outcome = tr.span("align", "align_batch", job, || {
        align_batch(&reads, &tasks, &params.align)
    });
    tr.span("overlap", "true_overlaps", job, || {
        true_overlaps(&reads, &tasks)
    });
    let (model, cells) = model(tr, job, &reads, &tasks, &outcome.records);
    tr.end(root);
    Ok(Output {
        cells_aligned: outcome.total_cells,
        distinct,
        retained,
        tasks,
        records: outcome.records,
        model,
        cells,
    })
}

/// Ground-truth quality of one job's accepted alignments.
#[derive(Default, Clone, Copy)]
struct Quality {
    truth_pairs: u64,
    accepted: u64,
    true_accepted: u64,
    candidates: u64,
    true_candidates: u64,
}

impl Quality {
    fn of(truth: &ReadSet, out: &Output) -> Quality {
        let overlap = |a: u32, b: u32| {
            truth
                .origin(a as usize)
                .overlap_len(&truth.origin(b as usize))
        };
        let n = truth.len() as u32;
        let truth_pairs = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .filter(|&(i, j)| overlap(i, j) >= TRUTH_MIN_OVERLAP)
            .count() as u64;
        let accepted: BTreeSet<(u32, u32)> = out
            .records
            .iter()
            .filter(|r| r.accepted)
            .map(|r| (r.a.min(r.b), r.a.max(r.b)))
            .collect();
        Quality {
            truth_pairs,
            accepted: accepted.len() as u64,
            true_accepted: accepted
                .iter()
                .filter(|&&(a, b)| overlap(a, b) >= TRUTH_MIN_OVERLAP)
                .count() as u64,
            candidates: out.tasks.len() as u64,
            true_candidates: out
                .tasks
                .iter()
                .filter(|t| overlap(t.a, t.b) >= TRUTH_MIN_OVERLAP)
                .count() as u64,
        }
    }

    fn add(&mut self, o: Quality) {
        self.truth_pairs += o.truth_pairs;
        self.accepted += o.accepted;
        self.true_accepted += o.true_accepted;
        self.candidates += o.candidates;
        self.true_candidates += o.true_candidates;
    }

    fn recall(&self) -> f64 {
        ratio(self.true_accepted as f64, self.truth_pairs as f64)
    }

    fn precision(&self) -> f64 {
        ratio(self.true_accepted as f64, self.accepted as f64)
    }
}

/// The gates one job's output must pass.
fn job_problems(job: u64, q: &Quality, out: &Output) -> Vec<String> {
    let mut p = Vec::new();
    if q.recall() < JOB_RECALL_FLOOR || q.precision() < JOB_PRECISION_FLOOR {
        p.push(format!(
            "job {job}: recall {:.3} / precision {:.3} below the job floors",
            q.recall(),
            q.precision()
        ));
    }
    let expected = task_checksum(out.tasks.iter().map(|t| (t.a, t.b)));
    for c in &out.cells {
        if !c.complete(expected) {
            p.push(format!(
                "job {job}: modelled {} run completed {} of {} tasks (checksum {:#x}, expected {expected:#x})",
                c.alg, c.tasks_done, c.total_tasks, c.checksum
            ));
        }
    }
    p
}

pub fn run(run: &mut Run, seed: u64, seconds: f64, size: Size) {
    let shape = shape(size);
    let params = params();
    let mut budget = Budget::new(seconds, shape.min_sweeps);
    let mut fixed = Quality::default();
    let (mut distinct, mut retained, mut cells_aligned) = (0u64, 0u64, 0u64);
    let mut fixed_cells: Vec<Cell> = Vec::new();
    let mut fixed_models: Vec<SimWorkload> = Vec::new();
    while budget.another() {
        let unit = Instant::now();
        let sweep = budget.done() as u64;
        let first_job = sweep * shape.jobs_per_sweep as u64;
        let jobs = first_job..first_job + shape.jobs_per_sweep as u64;

        let t = Instant::now();
        let root = run.tracer.begin("bench", "setup", sweep);
        let inputs: Vec<Input> = jobs
            .clone()
            .map(|j| make_input(&mut run.tracer, seed, j))
            .collect();
        run.tracer.end(root);
        run.setup_s.push(t.elapsed().as_secs_f64());

        let mut outputs = Vec::new();
        let sweep_t = Instant::now();
        for (job, input) in jobs.clone().zip(&inputs) {
            let t = Instant::now();
            let out = job_untraced(input, &params, job);
            run.job_s.push(t.elapsed().as_secs_f64());
            run.job_bases += input.truth.total_bases() as f64;
            outputs.push(out);
        }
        run.sweep_s.push(sweep_t.elapsed().as_secs_f64());

        let mut traced = Vec::new();
        if run.tracer.enabled() {
            let t = Instant::now();
            let root = run.tracer.begin("bench", "sweep", sweep);
            for (job, input) in jobs.clone().zip(&inputs) {
                traced.push(job_traced(&mut run.tracer, input, &params, job));
            }
            run.tracer.end(root);
            run.traced_sweep_s.push(t.elapsed().as_secs_f64());
        }

        for (i, (job, input)) in jobs.zip(&inputs).enumerate() {
            let out = match &outputs[i] {
                Ok(out) => out,
                Err(e) => {
                    run.job(vec![e.clone()]);
                    continue;
                }
            };
            let q = Quality::of(&input.truth, out);
            run.job(job_problems(job, &q, out));
            if let Some(t) = traced.get(i) {
                let mut problems = Vec::new();
                match t {
                    Ok(t) => {
                        let same_model = t
                            .cells
                            .iter()
                            .map(Cell::outcome)
                            .eq(out.cells.iter().map(Cell::outcome));
                        if t.records != out.records || !same_model {
                            problems
                                .push(format!("job {job}: traced stages differ from run_pipeline"));
                        }
                        run.traced_align.0 += t.cells_aligned;
                        run.traced_align.1 += t.tasks.len() as u64;
                        for c in &t.cells {
                            *run.traced_events.entry(c.alg.to_string()).or_insert(0) += c.events;
                        }
                    }
                    Err(e) => problems.push(e.clone()),
                }
                run.job(problems);
            }
            if sweep < shape.min_sweeps as u64 {
                fixed.add(q);
                distinct += out.distinct as u64;
                retained += out.retained as u64;
                cells_aligned += out.cells_aligned;
                fixed_cells.extend(out.cells.iter().cloned());
            }
        }
        if sweep < shape.min_sweeps as u64 {
            fixed_models.extend(outputs.into_iter().flatten().map(|o| o.model));
        }
        budget.record(unit.elapsed().as_secs_f64());
    }

    let v = &mut run.values;
    v.set("recall", fixed.recall());
    v.set("precision", fixed.precision());
    v.set("kmer.distinct", distinct as f64);
    v.set("kmer.retained", retained as f64);
    v.set("overlap.candidates", fixed.candidates as f64);
    v.set(
        "overlap.true_candidate_ratio",
        ratio(fixed.true_candidates as f64, fixed.candidates as f64),
    );
    v.set("align.cells", cells_aligned as f64);
    v.set(
        "align.accepted_ratio",
        ratio(fixed.accepted as f64, fixed.candidates as f64),
    );
    sim_metrics(v, &fixed_cells);
    remote_metrics(v, &fixed_models.iter().collect::<Vec<_>>());
    let (r, p) = (fixed.recall(), fixed.precision());
    run.gate(r >= RECALL_FLOOR && p >= PRECISION_FLOOR, || {
        format!(
            "recall {r:.4} / precision {p:.4} below the floors {RECALL_FLOOR} / {PRECISION_FLOOR}"
        )
    });
}
