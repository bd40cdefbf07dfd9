//! `gnb-overlap-cli` — end-to-end many-to-many long-read overlap detection
//! on real FASTA input, using the shared-memory backend: k-mer stages on
//! one thread, alignment on every core.
//!
//! ```text
//! USAGE:
//!   gnb-overlap-cli <reads.fasta> [--coverage X] [--error-rate E] [--k K]
//!                   [--min-score S] [--min-overlap L] [--out overlaps.paf]
//!   gnb-overlap-cli --demo          # run on a generated demo dataset
//! ```
//!
//! `--help` lists the accepted range of each option; a value that does not
//! parse or is out of range exits with status 2.
//!
//! Output is PAF-like TSV: qname qlen qstart qend strand tname tlen tstart
//! tend score class.

use gnb::core::pipeline::{run_pipeline, PipelineParams};
use gnb::genome::fasta::read_fasta_file;
use gnb::genome::presets;
use gnb::genome::ReadSet;
use gnb::kmer::kmer::MAX_K;
use std::io::Write;

struct Opts {
    input: Option<String>,
    demo: bool,
    coverage: f64,
    error_rate: f64,
    k: usize,
    min_score: i32,
    min_overlap: usize,
    out: Option<String>,
}

/// Usage text, including the accepted range of every numeric option.
const USAGE: &str = "\
gnb-overlap-cli <reads.fasta> [--coverage X] [--error-rate E] [--k K]
                [--min-score S] [--min-overlap L] [--out file]
gnb-overlap-cli --demo

  --coverage X     sequencing depth, finite and > 0 (default 30)
  --error-rate E   per-base error rate, finite and in [0, 1) (default 0.15)
  --k K            k-mer length, 1..=32 (default 17)
  --min-score S    smallest accepted alignment score, an integer (default 200)
  --min-overlap L  shortest accepted overlap in bases, >= 0 (default 500)";

/// Prints `msg` and exits with status 2 (a usage error).
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg} (see --help)");
    std::process::exit(2);
}

/// Parses the value of `flag`, exiting with a usage error when it does not
/// parse or fails `ok`; `range` says what `ok` accepts.
fn parse_value<T: std::str::FromStr>(
    flag: &str,
    raw: &str,
    range: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    match raw.parse::<T>() {
        Ok(v) if ok(&v) => v,
        _ => usage_error(&format!(
            "invalid value {raw:?} for {flag}: expected {range}"
        )),
    }
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        input: None,
        demo: false,
        coverage: 30.0,
        error_rate: 0.15,
        k: 17,
        min_score: 200,
        min_overlap: 500,
        out: None,
    };
    // gnb-lint: allow(ambient-env, reason = "CLI argument parsing is this binary's input")
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> &str {
            args.get(i + 1)
                .unwrap_or_else(|| usage_error(&format!("missing value for {flag}")))
        };
        match flag {
            "--demo" => {
                o.demo = true;
                i += 1;
                continue;
            }
            "--coverage" => {
                o.coverage = parse_value(flag, value(), "a finite number > 0", |c: &f64| {
                    c.is_finite() && *c > 0.0
                });
            }
            "--error-rate" => {
                o.error_rate =
                    parse_value(flag, value(), "a finite number in [0, 1)", |e: &f64| {
                        (0.0..1.0).contains(e)
                    });
            }
            "--k" => {
                o.k = parse_value(flag, value(), &format!("an integer in 1..={MAX_K}"), |k| {
                    (1..=MAX_K).contains(k)
                });
            }
            "--min-score" => {
                o.min_score = parse_value(flag, value(), "an integer", |_| true);
            }
            "--min-overlap" => {
                o.min_overlap = parse_value(flag, value(), "an integer >= 0", |_| true);
            }
            "--out" => {
                o.out = Some(value().to_string());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => {
                o.input = Some(other.to_string());
                i += 1;
                continue;
            }
            other => usage_error(&format!("unknown option {other}")),
        }
        i += 2;
    }
    o
}

fn main() {
    let opts = parse_opts();
    let reads: ReadSet = if opts.demo {
        eprintln!("[demo] generating a scaled E. coli 30x dataset");
        presets::ecoli_30x().scaled(256).generate(42)
    } else {
        let path = opts.input.clone().unwrap_or_else(|| {
            eprintln!("no input file (try --demo or --help)");
            std::process::exit(2);
        });
        read_fasta_file(&path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        })
    };
    eprintln!(
        "[input] {} reads, {:.2} Mbp",
        reads.len(),
        reads.total_bases() as f64 / 1e6
    );

    let mut params = PipelineParams::new(opts.coverage, opts.error_rate);
    params.k = opts.k;
    params.align.k = opts.k;
    params.align.criteria.min_score = opts.min_score;
    params.align.criteria.min_overlap = opts.min_overlap;
    let res = run_pipeline(&reads, &params);
    eprintln!(
        "[kmers] {} distinct, {} retained {:?}",
        res.distinct_kmers, res.retained_kmers, res.reliable_interval
    );
    eprintln!(
        "[tasks] {} candidates, {} accepted ({:.1}M cells, align {:?})",
        res.tasks.len(),
        res.accepted(),
        res.outcome.total_cells as f64 / 1e6,
        res.timings.align
    );

    let mut out: Box<dyn Write> = match &opts.out {
        Some(p) => Box::new(std::fs::File::create(p).expect("create output")),
        None => Box::new(std::io::stdout().lock()),
    };
    for rec in res.outcome.accepted() {
        let line = writeln!(
            out,
            "read{}\t{}\t{}\t{}\t{}\tread{}\t{}\t{}\t{}\t{}\t{:?}",
            rec.a,
            reads.read_len(rec.a as usize),
            rec.a_begin,
            rec.a_end,
            if rec.same_strand { '+' } else { '-' },
            rec.b,
            reads.read_len(rec.b as usize),
            rec.b_begin,
            rec.b_end,
            rec.score,
            rec.class
        );
        match line {
            Ok(()) => {}
            // Downstream consumer (e.g. `| head`) closed the pipe: normal.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return,
            Err(e) => {
                eprintln!("write failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
