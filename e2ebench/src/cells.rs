//! One simulated run ("cell") of a coordination strategy, and the
//! aggregation of cells into the simulation metrics.

use crate::stats::{geomean, mean};
use crate::trace::Tracer;
use crate::Values;
use gnb_core::driver::{run_sim, Algorithm, RunConfig};
use gnb_core::machine::MachineConfig;
use gnb_core::workload::SimWorkload;
use gnb_sim::TimeCategory;
use std::time::Instant;

/// What a cell produced. Everything but `host_s` is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub alg: Algorithm,
    pub threads: usize,
    /// Index of the configuration (node count, or job) the cell ran.
    pub config: usize,
    pub host_s: f64,
    pub makespan_s: f64,
    pub events: u64,
    pub tasks_done: u64,
    pub total_tasks: u64,
    pub checksum: u64,
    pub rounds: usize,
    pub compute_s: f64,
    pub overhead_s: f64,
    pub comm_s: f64,
    pub sync_s: f64,
    pub compute_imbalance: f64,
    pub mem_peak_bytes: u64,
}

impl Cell {
    /// The deterministic part, for comparing repeats and engines.
    pub fn outcome(&self) -> (u64, u64, u64, u64, usize, u64) {
        (
            self.makespan_s.to_bits(),
            self.events,
            self.tasks_done,
            self.checksum,
            self.rounds,
            self.mem_peak_bytes,
        )
    }

    /// The cell completed every task of its input, and only those.
    pub fn complete(&self, expected_checksum: u64) -> bool {
        self.tasks_done == self.total_tasks && self.checksum == expected_checksum
    }
}

/// Span name of a `run_sim` call for `alg`.
pub fn run_span(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::Bsp => "run.BSP",
        Algorithm::Async => "run.Async",
        Algorithm::AggAsync => "run.AggAsync",
    }
}

/// Runs one cell. Calls into the serial engine are `core` spans; runs on
/// the parallel engine (`threads > 1`) are `par` spans.
pub fn run_cell(
    tr: &mut Tracer,
    job: u64,
    workload: &SimWorkload,
    machine: &MachineConfig,
    alg: Algorithm,
    threads: usize,
    config: usize,
) -> Cell {
    let cfg = RunConfig {
        threads,
        ..RunConfig::default()
    };
    let layer = if threads > 1 { "par" } else { "core" };
    let t0 = Instant::now();
    let r = tr.span(layer, run_span(alg), job, || {
        run_sim(std::hint::black_box(workload), machine, alg, &cfg)
    });
    let host_s = t0.elapsed().as_secs_f64();
    tr.span("sim", "report", job, || {
        let rep = &r.report;
        let compute = rep.category_summary(TimeCategory::Compute);
        Cell {
            alg,
            threads,
            config,
            host_s,
            makespan_s: rep.end_time.as_secs_f64(),
            events: rep.events,
            tasks_done: r.tasks_done,
            total_tasks: workload.total_tasks as u64,
            checksum: r.task_checksum,
            rounds: r.rounds,
            compute_s: compute.mean,
            overhead_s: rep.category_mean(TimeCategory::Overhead),
            comm_s: rep.category_mean(TimeCategory::Comm),
            sync_s: rep.category_mean(TimeCategory::Sync),
            compute_imbalance: if compute.mean > 0.0 {
                compute.max / compute.mean
            } else {
                1.0
            },
            mem_peak_bytes: rep.max_mem_peak(),
        }
    })
}

/// Received-byte totals of prepared workloads: the sum over all of them,
/// and the geometric mean of their max ÷ mean per-rank received bytes.
pub fn remote_metrics(v: &mut Values, workloads: &[&SimWorkload]) {
    let mut total = 0u64;
    let mut imbalance = Vec::new();
    for w in workloads {
        let recv = w.recv_bytes();
        let sum: u64 = recv.iter().sum();
        total += sum;
        if sum > 0 {
            let max = *recv.iter().max().unwrap_or(&0) as f64;
            imbalance.push(max / (sum as f64 / recv.len() as f64));
        }
    }
    v.set("core.remote_bytes", total as f64);
    v.set("core.recv_imbalance", geomean(&imbalance));
}

/// The virtual-time metrics of one set of serial cells (one per strategy
/// and configuration): makespans as geometric means over configurations,
/// breakdown terms as arithmetic means, events and supersteps as totals,
/// memory as the maximum.
pub fn sim_metrics(v: &mut Values, cells: &[Cell]) {
    for alg in Algorithm::ALL {
        let of: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.alg == alg && c.threads == 1)
            .collect();
        let pick = |f: fn(&Cell) -> f64| of.iter().map(|c| f(c)).collect::<Vec<f64>>();
        let s = alg.to_string();
        v.set(format!("makespan_s.{s}"), geomean(&pick(|c| c.makespan_s)));
        v.set(format!("sim.compute_s.{s}"), mean(&pick(|c| c.compute_s)));
        v.set(format!("sim.overhead_s.{s}"), mean(&pick(|c| c.overhead_s)));
        v.set(format!("sim.comm_s.{s}"), mean(&pick(|c| c.comm_s)));
        v.set(format!("sim.sync_s.{s}"), mean(&pick(|c| c.sync_s)));
        v.set(
            format!("sim.compute_imbalance.{s}"),
            mean(&pick(|c| c.compute_imbalance)),
        );
        v.set(
            format!("sim.events.{s}"),
            of.iter().map(|c| c.events).sum::<u64>() as f64,
        );
        v.set(
            format!("sim.mem_peak_bytes.{s}"),
            of.iter().map(|c| c.mem_peak_bytes).max().unwrap_or(0) as f64,
        );
        if alg == Algorithm::Bsp {
            v.set(
                "sim.rounds.BSP",
                of.iter().map(|c| c.rounds).sum::<usize>() as f64,
            );
        }
    }
}
