//! The canonical Doppler benchmark: three seeded workloads driven through
//! the public serving APIs, each checked against a single-threaded
//! reference, with a separate traced run for the per-layer numbers.
//!
//! ```text
//! perfbench --workload <dma_open|fleet_stream|lifecycle> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! With `--trace 0` the metrics are the end-to-end set; with `--trace 1`
//! the per-layer set, and the spans go to `<target dir>/perfbench/`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod check;
mod dma_open;
mod fleet_stream;
mod host;
mod layers;
mod lifecycle;
mod stats;
mod trace;

use std::fmt::Write as _;

/// Seed a run uses when none is given. Seed 1729 is held out from tuning;
/// every workload must pass its correctness check on both.
pub const DEFAULT_SEED: u64 = 42;

/// Worker threads per service. The benchmark's own threads (at most two)
/// never outnumber the cores either.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One named, unit-tagged measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Set up `n` times (at least once), dropping each result before the next
/// set-up starts, and return the last one with the median set-up time.
/// `setup` returns what it built and how long that took, in seconds.
pub fn median_setup<T>(n: usize, mut setup: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut times = Vec::with_capacity(n.max(1));
    let mut built = None;
    for _ in 0..n.max(1) {
        // Dropping the previous service joins its workers.
        drop(built.take());
        let (value, secs) = setup();
        times.push(secs);
        built = Some(value);
    }
    let median = stats::median(&mut times).expect("at least one set-up");
    (built.expect("at least one set-up"), median)
}

/// Peak resident set (`VmHWM`) in MiB, from the kernel's own accounting.
pub fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the traced run writes its spans: under the build directory, which
/// the repository ignores.
pub fn span_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    std::path::Path::new(&target).join("perfbench").join(format!("spans-{workload}-{seed}.jsonl"))
}

fn render(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        write!(metrics, "{sep}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}", m.name, m.unit)
            .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

fn main() {
    trace::run_epoch();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "dma_open" => dma_open::run(&args),
        "fleet_stream" => fleet_stream::run(&args),
        "lifecycle" => lifecycle::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (dma_open, fleet_stream, lifecycle)");
            std::process::exit(2);
        }
    };
    println!("{}", render(&outcome));
}
