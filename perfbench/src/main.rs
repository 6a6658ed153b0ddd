//! The repository benchmark: four seeded workloads over the Typilus
//! system, driven from one process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-edit|serve-adapt|annotate|train> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` the per-layer ones, from spans the
//! benchmark records around calls into each layer. See `README.md`.

mod annotate;
mod heap;
mod inputs;
mod load;
mod replay;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;
mod train;

use report::{result_line, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// A run that has not finished by then is killed by its own watchdog.
const WATCHDOG_S: u64 = 170;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1) as f64,
        trace,
    })
}

fn run(args: &Args, tracer: &Tracer, work: &std::path::Path) -> Result<Report, String> {
    match args.workload.as_str() {
        "serve-edit" => serve::run(serve::Kind::Edit, args.seed, args.seconds, tracer, work),
        "serve-adapt" => serve::run(serve::Kind::Adapt, args.seed, args.seconds, tracer, work),
        "annotate" => annotate::run(args.seed, args.seconds, tracer, work),
        "train" => train::run(args.seed, args.seconds, tracer, work),
        other => Err(format!("unknown workload {other}")),
    }
}

// lint: allow(D6) — the watchdog's sleep bounds the run's wall time; it never touches a result
fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(WATCHDOG_S));
        eprintln!("perfbench: still running after {WATCHDOG_S} s; giving up");
        std::process::exit(3);
    });
    // Work files live under the benchmark's own directory, by a short
    // relative path so a Unix socket path fits its length limit.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("perfbench: cannot enter {}: {e}", root.display());
        std::process::exit(1);
    }
    let work = PathBuf::from("work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let tracer = Tracer::new(args.trace);
    let result = run(&args, &tracer, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir("work");
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    report.set("peak_heap_mb", heap::peak_mb());
    let set: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in set {
        if let Some(v) = report.metrics.get(name) {
            println!("{name} = {v:.6} {unit}");
        }
    }
    println!("VmHWM = {:.1} MiB", report::peak_rss_mb());
    if !args.trace {
        println!(
            "error_rate = {:.6} ({} failed of {} attempted)",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.failed,
            report.attempted
        );
    }
    println!("{}", result_line(&report, set));
}
