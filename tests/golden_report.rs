//! Golden-report regression tests for the engine and the coordination
//! runtime.
//!
//! Pins every integer observable of one fault-free seed (E. coli 30x,
//! scale 128, synth seed 11, 2 KNL nodes x 4 cores) for all three
//! coordination codes. The BSP and Async constants were captured from the
//! pre-refactor rank programs; the refactored `RankRuntime`-hosted
//! strategies must reproduce them bit-for-bit — virtual end time,
//! per-category ledger sums, event counts, task checksums, memory peaks.
//! Any drift means a change moved the timeline, not just the code layout.
//!
//! A second, deferral-heavy configuration (E. coli 100x, scale 512, 16
//! nodes x 8 cores) pins both asynchronous codes where busy owners defer
//! 24-27 events per dispatched event, so the event queue's busy-rank
//! deferral order is exercised hard: any change in how deferred events
//! are re-sequenced shows up here as a different timeline.

use gnb::core::driver::{run_sim, Algorithm, RunConfig};
use gnb::core::machine::MachineConfig;
use gnb::core::workload::SimWorkload;
use gnb::genome::presets;
use gnb::overlap::synth::{synthesize, SynthParams};

/// One algorithm's pinned observables (all integers: bit-exact).
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    end_time_ns: u64,
    /// Ledger sums across ranks, ns: compute, overhead, comm, sync, recovery.
    ledger_ns: [u64; 5],
    unclassified_ns: u64,
    events: u64,
    tasks_done: u64,
    task_checksum: u64,
    rounds: usize,
    max_mem_peak: u64,
    mem_peak_sum: u64,
}

fn observe(algo: Algorithm) -> Golden {
    observe_on(presets::ecoli_30x().scaled(128), 2, 4, algo)
}

fn observe_on(
    preset: presets::WorkloadPreset,
    nodes: usize,
    cores_per_node: usize,
    algo: Algorithm,
) -> Golden {
    let machine = MachineConfig::cori_knl(nodes).with_cores_per_node(cores_per_node);
    let w = synthesize(&SynthParams::from_preset(&preset), 11);
    let sim = SimWorkload::prepare(&w.lengths, &w.tasks, &w.overlap_len, machine.nranks());
    let res = run_sim(&sim, &machine, algo, &RunConfig::default());
    let mut ledger_ns = [0u64; 5];
    let mut unclassified_ns = 0u64;
    for r in &res.report.ranks {
        for (c, t) in r.ledger.iter().enumerate() {
            ledger_ns[c] += t.as_ns();
        }
        unclassified_ns += r.unclassified_idle.as_ns();
    }
    Golden {
        end_time_ns: res.report.end_time.as_ns(),
        ledger_ns,
        unclassified_ns,
        events: res.events,
        tasks_done: res.tasks_done,
        task_checksum: res.task_checksum,
        rounds: res.rounds,
        max_mem_peak: res.max_mem_peak,
        mem_peak_sum: res.mem_peaks.iter().sum(),
    }
}

#[test]
fn bsp_report_matches_pre_refactor_golden() {
    let got = observe(Algorithm::Bsp);
    println!("BSP {got:?}");
    let want = Golden {
        end_time_ns: 5_826_180_889,
        ledger_ns: [33_051_535_668, 165_020_000, 7_751_736, 13_385_139_708, 0],
        unclassified_ns: 0,
        events: 24,
        tasks_done: 8251,
        task_checksum: 4_127_439_519_545_553_733,
        rounds: 1,
        max_mem_peak: 2_071_390,
        mem_peak_sum: 16_498_147,
    };
    assert_eq!(got, want);
}

#[test]
fn async_report_matches_pre_refactor_golden() {
    let got = observe(Algorithm::Async);
    println!("Async {got:?}");
    let want = Golden {
        end_time_ns: 5_851_261_748,
        ledger_ns: [33_051_535_668, 373_900_500, 0, 13_384_656_833, 0],
        unclassified_ns: 983,
        events: 2953,
        tasks_done: 8251,
        task_checksum: 4_127_439_519_545_553_733,
        rounds: 1,
        max_mem_peak: 1_139_777,
        mem_peak_sum: 8_987_960,
    };
    assert_eq!(got, want);
}

#[test]
fn agg_async_report_matches_golden() {
    let got = observe(Algorithm::AggAsync);
    println!("AggAsync {got:?}");
    let want = Golden {
        end_time_ns: 5_851_182_649,
        ledger_ns: [33_051_535_668, 373_293_600, 0, 13_384_630_956, 0],
        unclassified_ns: 968,
        events: 1317,
        tasks_done: 8251,
        task_checksum: 4_127_439_519_545_553_733,
        rounds: 1,
        max_mem_peak: 1_125_474,
        mem_peak_sum: 8_802_770,
    };
    assert_eq!(got, want);
}

#[test]
fn deferral_heavy_reports_match_golden() {
    let preset = presets::ecoli_100x().scaled(512);
    let got = observe_on(preset.clone(), 16, 8, Algorithm::Async);
    println!("Async {got:?}");
    let want = Golden {
        end_time_ns: 1_330_078_403,
        ledger_ns: [99_829_523_401, 962_652_600, 157_714_943, 69_300_127_702, 0],
        unclassified_ns: 16_938,
        events: 52_767,
        tasks_done: 20_346,
        task_checksum: 9_961_370_042_875_246_451,
        rounds: 1,
        max_mem_peak: 643_960,
        mem_peak_sum: 72_057_555,
    };
    assert_eq!(got, want);
    let got = observe_on(preset, 16, 8, Algorithm::AggAsync);
    println!("AggAsync {got:?}");
    let want = Golden {
        end_time_ns: 1_330_059_286,
        ledger_ns: [99_829_523_401, 958_139_000, 5_212_889, 69_454_697_532, 0],
        unclassified_ns: 15_786,
        events: 50_861,
        tasks_done: 20_346,
        task_checksum: 9_961_370_042_875_246_451,
        rounds: 1,
        max_mem_peak: 633_135,
        mem_peak_sum: 72_237_503,
    };
    assert_eq!(got, want);
}
