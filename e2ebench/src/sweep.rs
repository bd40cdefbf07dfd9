//! The simulation workloads: a synthesized task graph, prepared for each
//! node count, run under each coordination strategy. One sweep runs every
//! cell once; every cell is one job.
//!
//! * `scaling-ecoli100` — the Fig. 8 strong-scaling sweep on the serial
//!   engine;
//! * `memlimited-human` — Human CCS where BSP's memory budget forces
//!   several supersteps;
//!
//! The traced run of `scaling-ecoli100` also runs the asynchronous
//! strategies of its first node count on the parallel engine and checks
//! them against their serial cells.

use crate::cells::{remote_metrics, run_cell, sim_metrics, Cell};
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::{Budget, Run, Size};
use gnb_core::driver::Algorithm;
use gnb_core::machine::MachineConfig;
use gnb_core::workload::{task_checksum, SimWorkload};
use gnb_genome::presets::{self, WorkloadPreset};
use gnb_overlap::synth::{synthesize, SynthParams};
use std::time::Instant;

pub struct Spec {
    preset: fn() -> WorkloadPreset,
    /// Genome scale divisor; per-core memory shrinks by the same factor.
    scale: usize,
    cores_per_node: usize,
    nodes: &'static [usize],
    /// Node-count index the traced run also runs on the parallel engine.
    par_config: Option<usize>,
    setup_reps: usize,
}

/// Worker threads of the parallel-engine cells (within the 2-core hosts
/// the benchmark was tuned on; the header records `nproc`).
pub const PAR_THREADS: usize = 2;

pub fn spec(name: &str, size: Size) -> Option<Spec> {
    let full = size == Size::Full;
    let setup_reps = if full { 3 } else { 1 };
    Some(match name {
        // 8-core nodes keep reads per rank (~350 at 1 node, ~22 at 16)
        // in the range of the paper's 1-128 node sweep of the full input.
        "scaling-ecoli100" => Spec {
            preset: presets::ecoli_100x,
            scale: if full { 32 } else { 2048 },
            cores_per_node: 8,
            nodes: if full { &[1, 4, 16] } else { &[1, 2] },
            par_config: Some(0),
            setup_reps,
        },
        "memlimited-human" => Spec {
            preset: presets::human_ccs,
            scale: if full { 1024 } else { 16384 },
            cores_per_node: 64,
            nodes: if full { &[8, 32] } else { &[1, 2] },
            par_config: None,
            setup_reps,
        },
        _ => return None,
    })
}

/// The workload's inputs: one prepared workload per node count.
struct Input {
    bases: f64,
    expected_checksum: u64,
    configs: Vec<(MachineConfig, SimWorkload)>,
}

/// A Cori-KNL machine with per-core memory scaled by the workload's
/// divisor, as the experiment binaries do.
fn machine(nodes: usize, cores_per_node: usize, scale: usize) -> MachineConfig {
    let mut m = MachineConfig::cori_knl(nodes).with_cores_per_node(cores_per_node);
    m.mem_per_core = (m.mem_per_core / scale as u64).max(1 << 20);
    m.volume_scale = scale as f64;
    m
}

fn setup(tr: &mut Tracer, spec: &Spec, seed: u64, rep: u64) -> Input {
    let root = tr.begin("bench", "setup", rep);
    let preset = (spec.preset)().scaled(spec.scale);
    let synth = tr.span("overlap", "synthesize", rep, || {
        synthesize(&SynthParams::from_preset(&preset), seed)
    });
    let configs = spec
        .nodes
        .iter()
        .map(|&n| {
            let m = machine(n, spec.cores_per_node, spec.scale);
            let w = tr.span("core", "prepare", rep, || {
                SimWorkload::prepare(&synth.lengths, &synth.tasks, &synth.overlap_len, m.nranks())
            });
            (m, w)
        })
        .collect();
    tr.end(root);
    Input {
        bases: synth.lengths.iter().sum::<usize>() as f64,
        expected_checksum: task_checksum(synth.tasks.iter().map(|t| (t.a, t.b))),
        configs,
    }
}

/// One sweep: every strategy at every node count on the serial engine.
fn sweep(tr: &mut Tracer, input: &Input, first_job: u64) -> Vec<Cell> {
    let cells = (0..input.configs.len()).flat_map(|c| Algorithm::ALL.map(|a| (c, a)));
    cells
        .zip(first_job..)
        .map(|((c, alg), job)| {
            let (m, w) = &input.configs[c];
            run_cell(tr, job, w, m, alg, 1, c)
        })
        .collect()
}

/// The gates of one sweep's cells: each completes its input's task set
/// and repeats the first sweep exactly.
fn problems(cells: &[Cell], first: &[Cell], expected: u64) -> Vec<Vec<String>> {
    cells
        .iter()
        .zip(first)
        .map(|(c, f)| {
            let name = format!("{} config={}", c.alg, c.config);
            let mut p = Vec::new();
            if !c.complete(expected) {
                p.push(format!(
                    "{name}: completed {} of {} tasks (checksum {:#x}, expected {expected:#x})",
                    c.tasks_done, c.total_tasks, c.checksum
                ));
            }
            if c.outcome() != f.outcome() {
                p.push(format!("{name}: differs from the first sweep"));
            }
            p
        })
        .collect()
}

/// Runs the asynchronous strategies of node-count `config` on the parallel
/// engine and checks each against its serial cell from `serial`.
fn par_check(run: &mut Run, input: &Input, config: usize, serial: &[Cell], job: u64) {
    let root = run.tracer.begin("bench", "par_check", job);
    let (m, w) = &input.configs[config];
    for (alg, job) in [Algorithm::Async, Algorithm::AggAsync]
        .into_iter()
        .zip(job..)
    {
        let par = run_cell(&mut run.tracer, job, w, m, alg, PAR_THREADS, config);
        let reference = serial
            .iter()
            .find(|c| c.alg == alg && c.config == config)
            .expect("a sweep runs every strategy at every node count");
        let entry = run.par_pairs.entry(alg.to_string()).or_insert((0.0, 0.0));
        entry.0 += reference.host_s;
        entry.1 += par.host_s;
        let same = par.outcome() == reference.outcome();
        run.job(if same {
            Vec::new()
        } else {
            vec![format!(
                "{alg} on {PAR_THREADS} threads differs from the serial engine"
            )]
        });
    }
    run.tracer.end(root);
}

pub fn run(run: &mut Run, spec: &Spec, seed: u64, seconds: f64) {
    let mut input = None;
    for rep in 0..spec.setup_reps as u64 {
        let t = Instant::now();
        input = Some(setup(&mut run.tracer, spec, seed, rep));
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    let per_sweep = (3 * input.configs.len() + 2) as u64;
    let mut budget = Budget::new(seconds, 1);
    let mut first: Option<Vec<Cell>> = None;
    // Tasks completed and expected; runs with the input's checksum, and runs.
    let (mut done, mut expected, mut exact, mut runs) = (0u64, 0u64, 0u64, 0u64);
    while budget.another() {
        let unit = Instant::now();
        let first_job = budget.done() as u64 * 2 * per_sweep;
        let t = Instant::now();
        let cells = sweep(&mut Tracer::new(false), &input, first_job);
        let sweep_s = t.elapsed().as_secs_f64();
        run.sweep_s.push(sweep_s);
        // A job of a simulation workload is one whole sweep: regenerating
        // the figure.
        run.job_s.push(sweep_s);
        run.job_bases += input.bases;
        let mut sweeps = vec![cells];
        if run.tracer.enabled() {
            let t = Instant::now();
            let root = run.tracer.begin("bench", "sweep", budget.done() as u64);
            let cells = sweep(&mut run.tracer, &input, first_job + per_sweep);
            run.tracer.end(root);
            run.traced_sweep_s.push(t.elapsed().as_secs_f64());
            for c in &cells {
                *run.traced_events.entry(c.alg.to_string()).or_insert(0) += c.events;
            }
            if let Some(config) = spec.par_config {
                par_check(run, &input, config, &cells, first_job + 2 * per_sweep - 2);
            }
            sweeps.push(cells);
        }
        for cells in sweeps {
            let reference = first.get_or_insert_with(|| cells.clone());
            for c in &cells {
                done += c.tasks_done;
                expected += c.total_tasks;
                exact += u64::from(c.checksum == input.expected_checksum);
                runs += 1;
            }
            for p in problems(&cells, reference, input.expected_checksum) {
                run.job(p);
            }
        }
        budget.record(unit.elapsed().as_secs_f64());
    }

    let first = first.expect("at least one sweep");
    let v = &mut run.values;
    // Task-level quality of a simulated run: the share of the input's
    // tasks completed, and the share of runs whose completed set is
    // exactly the input's.
    v.set("recall", ratio(done as f64, expected as f64));
    v.set("precision", ratio(exact as f64, runs as f64));
    sim_metrics(v, &first);
    remote_metrics(v, &input.configs.iter().map(|(_, w)| w).collect::<Vec<_>>());
}
