//! Every workload and metric the benchmark defines, with units, directions
//! and, for per-layer metrics, the end-to-end metric each should move and
//! on which workload. `BENCHMARK.json` at the repository root is rendered
//! from this table (`--benchmark-json`) and a test keeps the two equal.

/// A workload: name and why it was chosen.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "overlap-ecoli30",
        why: "closed loop of user jobs: FASTA of a fresh E. coli 30x read set through run_pipeline; align-bound, sim near idle",
    },
    WorkloadDef {
        name: "scaling-ecoli100",
        why: "Fig. 8 strong-scaling sweep, E. coli 100x at 1/4/16 nodes x 3 strategies on the serial DES; compute-bound makespan",
    },
    WorkloadDef {
        name: "memlimited-human",
        why: "Human CCS at 512 and 2048 ranks, BSP memory-limited to several supersteps; collectives, memory tracker, wide barriers",
    },
];

/// Seconds one run measures (`run_seconds`, and the `--seconds` default).
pub const RUN_SECONDS: u64 = 30;

/// Seed the benchmark uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for re-checking a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 104729;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

// Host-time bounds are wide because each seed is a different input: over
// ten seeds the quartile spread of sweep and job times reached 0.06-0.09
// on a shared 2-core x86-64 host, and that of the BSP makespan (a whole number
// of supersteps) 0.075 on memlimited-human.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_bytes", "bytes", Lower, 0.15),
    e2e("success_ratio", "ratio", Higher, 0.01),
    e2e("bases_per_s", "bases/s", Higher, 0.25),
    e2e("job_s.p50", "s", Lower, 0.25),
    e2e("job_s.tail", "s", Lower, 0.25),
    e2e("recall", "ratio", Higher, 0.02),
    e2e("precision", "ratio", Higher, 0.02),
    e2e("sweep_s", "s", Lower, 0.25),
    e2e("makespan_s.BSP", "s", Lower, 0.25),
    e2e("makespan_s.Async", "s", Lower, 0.25),
    e2e("makespan_s.AggAsync", "s", Lower, 0.25),
];

/// A per-layer metric and the end-to-end metric it should move, where.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP: &str = "setup_s on every workload";
const USER_PATH: &str =
    "bases_per_s and job_s.* on overlap-ecoli30; no change on the simulation workloads";
const QUALITY: &str = "recall/precision and, through align work, bases_per_s on overlap-ecoli30";
const ALIGN: &str =
    "bases_per_s and job_s.* on overlap-ecoli30; no change on any simulation workload";
const SWEEP: &str = "sweep_s on scaling-ecoli100 and memlimited-human";
const COMM: &str = "makespan_s.*, mainly on memlimited-human";
const VIRTUAL: &str =
    "makespan_s.<Strategy>: memory terms on memlimited-human, compute terms on scaling-ecoli100";
const PAR: &str = "no end-to-end metric yet: traced scaling-ecoli100 only, base is the same cells on the serial engine";
const SELF: &str = "the end-to-end metrics of the layer's workloads, read against its time metrics";

pub const PER_LAYER: [Layer; 62] = [
    layer("genome.generate_s", "s", Lower, SETUP),
    layer("overlap.synthesize_s", "s", Lower, SETUP),
    layer("core.prepare_s", "s", Lower, SETUP),
    layer("genome.parse_s", "s", Lower, USER_PATH),
    layer("kmer.count_s", "s", Lower, USER_PATH),
    layer("kmer.filter_s", "s", Lower, USER_PATH),
    layer("kmer.index_s", "s", Lower, USER_PATH),
    layer("overlap.candidates_s", "s", Lower, USER_PATH),
    layer("kmer.distinct", "count", Lower, QUALITY),
    layer("kmer.retained", "count", Lower, QUALITY),
    layer("overlap.candidates", "count", Lower, QUALITY),
    layer("overlap.true_candidate_ratio", "ratio", Higher, QUALITY),
    layer("align.s", "s", Lower, ALIGN),
    layer("align.cells", "count", Lower, ALIGN),
    layer("align.cells_per_s", "cells/s", Higher, ALIGN),
    layer("align.pairs_per_s", "pairs/s", Higher, ALIGN),
    layer("align.accepted_ratio", "ratio", Higher, ALIGN),
    layer("core.run_s.BSP", "s", Lower, SWEEP),
    layer("core.run_s.Async", "s", Lower, SWEEP),
    layer("core.run_s.AggAsync", "s", Lower, SWEEP),
    layer("core.ns_per_event.BSP", "ns", Lower, SWEEP),
    layer("core.ns_per_event.Async", "ns", Lower, SWEEP),
    layer("core.ns_per_event.AggAsync", "ns", Lower, SWEEP),
    layer("sim.events.BSP", "count", Lower, SWEEP),
    layer("sim.events.Async", "count", Lower, SWEEP),
    layer("sim.events.AggAsync", "count", Lower, SWEEP),
    layer("core.remote_bytes", "bytes", Lower, COMM),
    layer("core.recv_imbalance", "ratio", Lower, COMM),
    layer("sim.compute_s.BSP", "s", Lower, VIRTUAL),
    layer("sim.compute_s.Async", "s", Lower, VIRTUAL),
    layer("sim.compute_s.AggAsync", "s", Lower, VIRTUAL),
    layer("sim.overhead_s.BSP", "s", Lower, VIRTUAL),
    layer("sim.overhead_s.Async", "s", Lower, VIRTUAL),
    layer("sim.overhead_s.AggAsync", "s", Lower, VIRTUAL),
    layer("sim.comm_s.BSP", "s", Lower, VIRTUAL),
    layer("sim.comm_s.Async", "s", Lower, VIRTUAL),
    layer("sim.comm_s.AggAsync", "s", Lower, VIRTUAL),
    layer("sim.sync_s.BSP", "s", Lower, VIRTUAL),
    layer("sim.sync_s.Async", "s", Lower, VIRTUAL),
    layer("sim.sync_s.AggAsync", "s", Lower, VIRTUAL),
    layer("sim.compute_imbalance.BSP", "ratio", Lower, VIRTUAL),
    layer("sim.compute_imbalance.Async", "ratio", Lower, VIRTUAL),
    layer("sim.compute_imbalance.AggAsync", "ratio", Lower, VIRTUAL),
    layer("sim.rounds.BSP", "count", Lower, VIRTUAL),
    layer("sim.mem_peak_bytes.BSP", "bytes", Lower, VIRTUAL),
    layer("sim.mem_peak_bytes.Async", "bytes", Lower, VIRTUAL),
    layer("sim.mem_peak_bytes.AggAsync", "bytes", Lower, VIRTUAL),
    layer("par.run_s.Async", "s", Lower, PAR),
    layer("par.run_s.AggAsync", "s", Lower, PAR),
    layer("par.speedup_vs_serial.Async", "ratio", Higher, PAR),
    layer("par.speedup_vs_serial.AggAsync", "ratio", Higher, PAR),
    layer("bench.self_s", "s", Lower, SELF),
    layer("genome.self_s", "s", Lower, SELF),
    layer("kmer.self_s", "s", Lower, SELF),
    layer("overlap.self_s", "s", Lower, SELF),
    layer("align.self_s", "s", Lower, SELF),
    layer("core.self_s", "s", Lower, SELF),
    layer("sim.self_s", "s", Lower, SELF),
    layer("par.self_s", "s", Lower, SELF),
    layer(
        "trace_overhead_ratio",
        "ratio",
        Lower,
        "none: traced / untraced host time of the same sweeps",
    ),
    layer(
        "job_s.tail_percentile",
        "%",
        Higher,
        "none: the percentile job_s.tail reports",
    ),
    layer(
        "job_s.samples",
        "count",
        Higher,
        "none: the job count behind job_s.p50 and job_s.tail",
    ),
];

/// Layers whose self time the traced run reports, in output order.
pub const LAYERS: [&str; 8] = [
    "bench", "genome", "kmer", "overlap", "align", "core", "sim", "par",
];

/// Whether `name` uses only `[A-Za-z0-9_.-]`, starts with a letter or
/// digit, and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"e2ebench/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"e2ebench\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let w: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &w.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s += &e.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let l: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s += &l.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name));
        let mut seen = BTreeSet::new();
        for n in names {
            assert!(valid_name(n), "bad name {n:?}");
            assert!(seen.insert(n), "duplicate name {n:?}");
        }
        assert!(!valid_name("job s"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("a/b"));
        assert!(valid_name("makespan_s.AggAsync"));
    }

    #[test]
    fn units_and_bounds_fit_the_schema() {
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn every_layer_reports_self_time() {
        for l in LAYERS {
            let name = format!("{l}.self_s");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
    }
}
