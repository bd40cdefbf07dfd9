//! End-to-end benchmark of the gnb overlap pipeline and its simulated
//! scaling study.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the
//! traced run (`--trace 1`) prints every per-layer metric and writes its
//! spans to `e2ebench/out/`. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any correctness gate failed. See `e2ebench/README.md`.

mod catalog;
mod cells;
mod overlap;
mod stats;
mod sweep;
mod trace;

use catalog::{Better, END_TO_END, LAYERS, PER_LAYER};
use stats::{median, ratio};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Metric values by name; every name must be in the catalog.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            catalog::valid_name(&name)
                && (END_TO_END.iter().any(|m| m.name == name)
                    || PER_LAYER.iter().any(|m| m.name == name)),
            "metric {name} is not in the catalog"
        );
        self.0.insert(name, value);
    }

    /// The value, or 0 when the workload does not exercise that layer.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Input sizes: `Full` for measurement, `Smoke` for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Closed-loop time budget: another unit (one sweep, or one untraced plus
/// one traced sweep) starts while the median unit still fits, and always
/// until `min_units` have run.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_units: usize,
    units: Vec<f64>,
}

impl Budget {
    pub fn new(seconds: f64, min_units: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            min_units,
            units: Vec::new(),
        }
    }

    pub fn another(&self) -> bool {
        self.units.len() < self.min_units
            || self.start.elapsed().as_secs_f64() + median(&self.units) <= self.seconds
    }

    pub fn record(&mut self, unit_s: f64) {
        self.units.push(unit_s);
    }

    pub fn done(&self) -> usize {
        self.units.len()
    }
}

/// Everything one run measured.
pub struct Run {
    /// Records spans only in the traced run.
    pub tracer: Tracer,
    /// Seconds per set-up (building one sweep's inputs).
    pub setup_s: Vec<f64>,
    /// Seconds per job of the untraced sweeps.
    pub job_s: Vec<f64>,
    /// Input bases of those jobs.
    pub job_bases: f64,
    /// Seconds per untraced sweep.
    pub sweep_s: Vec<f64>,
    /// Seconds per traced sweep (traced run only).
    pub traced_sweep_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Workload-computed metrics.
    pub values: Values,
    /// DES events of the serial cells in traced sweeps, per strategy.
    pub traced_events: BTreeMap<String, u64>,
    /// DP cells and pairs aligned in traced sweeps.
    pub traced_align: (u64, u64),
    /// Host seconds of serial and parallel-engine runs of the same cells,
    /// per strategy.
    pub par_pairs: BTreeMap<String, (f64, f64)>,
}

impl Run {
    fn new(trace: bool) -> Run {
        Run {
            tracer: Tracer::new(trace),
            setup_s: Vec::new(),
            job_s: Vec::new(),
            job_bases: 0.0,
            sweep_s: Vec::new(),
            traced_sweep_s: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            values: Values::default(),
            traced_events: BTreeMap::new(),
            traced_align: (0, 0),
            par_pairs: BTreeMap::new(),
        }
    }

    /// Counts one attempted job, failed unless every gate in `problems`
    /// is empty.
    pub fn job(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors.extend(problems);
        }
    }

    /// A run-level correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }
}

/// Runs a named workload and returns what it measured, or an error for an
/// unknown name.
pub fn execute(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<Run, String> {
    let mut run = Run::new(trace);
    match workload {
        "overlap-ecoli30" => overlap::run(&mut run, seed, seconds, size),
        other => match sweep::spec(other, size) {
            Some(spec) => sweep::run(&mut run, &spec, seed, seconds),
            None => return Err(format!("unknown workload {other:?}")),
        },
    }
    Ok(run)
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run) -> Values {
    let mut v = Values::default();
    v.set("setup_s", median(&run.setup_s));
    v.set("peak_rss_bytes", peak_rss_bytes());
    v.set(
        "success_ratio",
        1.0 - run.failed as f64 / run.attempted.max(1) as f64,
    );
    let job_total: f64 = run.job_s.iter().sum();
    v.set("bases_per_s", ratio(run.job_bases, job_total));
    v.set("job_s.p50", median(&run.job_s));
    v.set("job_s.tail", stats::tail(&run.job_s).value);
    v.set("sweep_s", median(&run.sweep_s));
    for m in [
        "recall",
        "precision",
        "makespan_s.BSP",
        "makespan_s.Async",
        "makespan_s.AggAsync",
    ] {
        assert!(run.values.has(m), "workload did not report {m}");
        v.set(m, run.values.get(m));
    }
    v
}

/// The per-layer metrics of a traced run. Span times are seconds per
/// sweep: spans under a set-up count per set-up (one per sweep's inputs),
/// all others per traced sweep.
pub fn per_layer(run: &Run) -> Values {
    let spans = run.tracer.spans();
    let setups = run.setup_s.len().max(1) as f64;
    let sweeps = run.traced_sweep_s.len().max(1) as f64;
    let per: Vec<f64> = (0..spans.len())
        .map(|mut i| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            if spans[i].name == "setup" {
                1.0 / setups
            } else {
                1.0 / sweeps
            }
        })
        .collect();
    // Seconds in the spans `layer`/`name`: per sweep, or in total.
    let time = |layer: &str, name: &str, per_sweep: bool| -> f64 {
        spans
            .iter()
            .zip(&per)
            .filter(|(s, _)| s.layer == layer && s.name == name)
            .map(|(s, w)| {
                if per_sweep {
                    s.duration() * w
                } else {
                    s.duration()
                }
            })
            .sum()
    };

    let mut v = run.values.clone();
    v.0.retain(|k, _| PER_LAYER.iter().any(|m| m.name == k));
    for (metric, layer, name) in [
        ("genome.generate_s", "genome", "generate"),
        ("overlap.synthesize_s", "overlap", "synthesize"),
        ("core.prepare_s", "core", "prepare"),
        ("genome.parse_s", "genome", "parse"),
        ("kmer.count_s", "kmer", "count"),
        ("kmer.filter_s", "kmer", "filter"),
        ("kmer.index_s", "kmer", "index"),
        ("overlap.candidates_s", "overlap", "candidates"),
        ("align.s", "align", "align_batch"),
    ] {
        v.set(metric, time(layer, name, true));
    }
    let align_total = time("align", "align_batch", false);
    let (cells, pairs) = run.traced_align;
    v.set("align.cells_per_s", ratio(cells as f64, align_total));
    v.set("align.pairs_per_s", ratio(pairs as f64, align_total));
    for alg in ["BSP", "Async", "AggAsync"] {
        let span = format!("run.{alg}");
        v.set(format!("core.run_s.{alg}"), time("core", &span, true));
        let events = run.traced_events.get(alg).copied().unwrap_or(0) as f64;
        v.set(
            format!("core.ns_per_event.{alg}"),
            ratio(time("core", &span, false) * 1e9, events),
        );
        if alg != "BSP" {
            v.set(format!("par.run_s.{alg}"), time("par", &span, true));
            let (serial, par) = run.par_pairs.get(alg).copied().unwrap_or((0.0, 0.0));
            v.set(format!("par.speedup_vs_serial.{alg}"), ratio(serial, par));
        }
    }
    let selfs = trace::self_times(spans);
    for layer in LAYERS {
        let t: f64 = spans
            .iter()
            .zip(&selfs)
            .zip(&per)
            .filter(|((s, _), _)| s.layer == layer)
            .map(|((_, t), w)| t * w)
            .sum();
        v.set(format!("{layer}.self_s"), t);
    }
    let untraced: f64 = run.sweep_s.iter().take(run.traced_sweep_s.len()).sum();
    let traced: f64 = run.traced_sweep_s.iter().sum();
    v.set("trace_overhead_ratio", ratio(traced, untraced));
    let tail = stats::tail(&run.job_s);
    v.set("job_s.tail_percentile", tail.percentile as f64);
    v.set("job_s.samples", tail.samples as f64);
    v
}

/// One reported metric.
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    /// For a per-layer metric: the end-to-end metric it should move.
    pub moves: Option<&'static str>,
}

/// The metrics a run reports, in catalog order.
pub fn report(run: &Run) -> Vec<Reported> {
    if run.tracer.enabled() {
        let v = per_layer(run);
        PER_LAYER
            .iter()
            .map(|m| Reported {
                name: m.name,
                value: v.get(m.name),
                unit: m.unit,
                better: m.better,
                moves: Some(m.moves),
            })
            .collect()
    } else {
        let v = end_to_end(run);
        END_TO_END
            .iter()
            .map(|m| Reported {
                name: m.name,
                value: v.get(m.name),
                unit: m.unit,
                better: m.better,
                moves: None,
            })
            .collect()
    }
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = match std::fs::read_to_string(format!("{git}/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!("{git}/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(format!("{git}/packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn header(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let isa = gnb_align::interseq::detected_features();
    let isa = if isa.is_empty() {
        "portable".to_string()
    } else {
        isa.join(",")
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"nproc\":{nproc},\"isa\":\"{isa}\",\"commit\":\"{}\",\"profile\":\"{profile}\"}}",
        u8::from(trace),
        commit()
    )
}

/// A finite value with all its digits (`-0` and non-finite values as 0).
fn json_number(x: f64) -> String {
    if x.is_finite() && x != 0.0 {
        format!("{x}")
    } else {
        "0".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: catalog::DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--benchmark-json" => {
                print!("{}", catalog::benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "error: {e}\nusage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
                 default seed {}, held-out seed {}",
                names.join("|"),
                catalog::DEFAULT_SEED,
                catalog::HELD_OUT_SEED
            );
            std::process::exit(2);
        }
    };
    let head = header(&args.workload, args.seed, args.seconds, args.trace);
    println!("header {head}");
    let run = match execute(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    for e in &run.errors {
        eprintln!("FAILED: {e}");
    }
    let metrics = report(&run);
    for m in &metrics {
        let moves = m.moves.map_or(String::new(), |t| format!("; moves {t}"));
        println!(
            "metric {} {} {} ({} is better{moves})",
            m.name,
            json_number(m.value),
            m.unit,
            m.better.as_str()
        );
    }
    let tail = stats::tail(&run.job_s);
    println!(
        "note job_s.tail is p{} of {} jobs",
        tail.percentile, tail.samples
    );
    if run.tracer.enabled() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                use std::io::Write;
                writeln!(w, "{head}")?;
                run.tracer.write_jsonl(&mut w)?;
                w.flush()
            });
        match written {
            Ok(()) => println!("spans {} written to {path}", run.tracer.spans().len()),
            Err(e) => eprintln!("warning: could not write spans to {path}: {e}"),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct(),
        run.attempted,
        run.failed,
        body.join(", ")
    );
    if !run.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-size run of every workload, untraced and traced, emits every
    /// named metric with its unit and passes its correctness gates.
    #[test]
    fn smoke_run_of_every_workload_emits_every_metric() {
        for w in catalog::WORKLOADS {
            for trace in [false, true] {
                let run = execute(w.name, 3, 0.0, trace, Size::Smoke).expect("known workload");
                assert!(run.correct(), "{} trace={trace}: {:?}", w.name, run.errors);
                let metrics = report(&run);
                let expected: Vec<(&str, &str)> = if trace {
                    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
                } else {
                    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
                };
                let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
                assert_eq!(got, expected, "{} trace={trace}", w.name);
                for m in &metrics {
                    assert!(
                        m.value.is_finite() && m.value >= 0.0,
                        "{} {}={}",
                        w.name,
                        m.name,
                        m.value
                    );
                    assert!(
                        trace || m.value > 0.0,
                        "{} end-to-end {} is 0",
                        w.name,
                        m.name
                    );
                }
                if trace {
                    let v = per_layer(&run);
                    assert!(v.get("trace_overhead_ratio") > 0.0, "{}", w.name);
                    assert!(v.get("bench.self_s") > 0.0, "{}", w.name);
                }
            }
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(execute("nope", 1, 0.0, false, Size::Smoke).is_err());
    }

    #[test]
    fn args_parse_the_command_line_flags() {
        let a = parse_args(
            [
                "--workload",
                "overlap-ecoli30",
                "--seed",
                "5",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("overlap-ecoli30", 5, 3.0, true)
        );
        assert!(parse_args(
            ["--trace", "2", "--workload", "x"]
                .into_iter()
                .map(String::from)
        )
        .is_err());
        assert!(parse_args(std::iter::empty()).is_err());
    }
}
