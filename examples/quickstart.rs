//! Quickstart: generate a small long-read dataset, find candidate overlap
//! pairs through filtered k-mer matching, and compute the alignments with
//! the batched SIMD X-drop engine.
//!
//! Run with: `cargo run --release --example quickstart`

use gnb::core::pipeline::{run_pipeline, PipelineParams};
use gnb::genome::presets;
use gnb::genome::stats::read_set_stats;

fn main() {
    // A scaled-down E. coli 30x workload: a ~36 kbp genome slice at 30x
    // coverage with PacBio-CLR-style 15% errors.
    let preset = presets::ecoli_30x().scaled(128);
    println!(
        "workload: {} (genome {} bp, coverage {}x, ~{} reads expected)",
        preset.name,
        preset.genome_len,
        preset.coverage,
        preset.expected_reads()
    );

    let reads = preset.generate(42);
    let stats = read_set_stats(&reads);
    println!(
        "generated {} reads, {:.1} Mbp total, mean length {:.0} bp, N50 {} bp",
        stats.reads,
        stats.total_bases as f64 / 1e6,
        stats.mean_len,
        stats.n50
    );

    // DiBELLA stages: k-mer histogram -> BELLA reliable-k-mer filter ->
    // seed index -> candidate pairs -> seed-and-extend alignment.
    let params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
    let result = run_pipeline(&reads, &params);

    println!(
        "k-mers: {} distinct, {} retained by the BELLA filter {:?}",
        result.distinct_kmers, result.retained_kmers, result.reliable_interval
    );
    println!(
        "candidates: {} pairs ({:.1} per read)",
        result.tasks.len(),
        result.tasks_per_read(reads.len())
    );
    println!(
        "alignment: {} accepted overlaps, {:.1}M DP cells, {:?} wall",
        result.accepted(),
        result.outcome.total_cells as f64 / 1e6,
        result.timings.align
    );

    // Show a few accepted overlaps.
    println!("\nfirst accepted overlaps (a, b, score, class):");
    for rec in result.outcome.accepted().take(8) {
        println!(
            "  read{:<5} read{:<5} score {:>6}  a[{}..{}] b[{}..{}]  {:?}",
            rec.a, rec.b, rec.score, rec.a_begin, rec.a_end, rec.b_begin, rec.b_end, rec.class
        );
    }
}
