//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fwd_chain|backbone|netwide|table3> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics of one
//! workload; with `--trace 1` it measures the per-layer metrics instead.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. README.md lists the
//! workloads, the metrics and which end-to-end metric each layer moves.

mod layers;
mod micro;
#[cfg(test)]
mod selftest;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use util::{peak_rss_mb, quantile, Tally};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Metric values of one run, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Clear every `FANCY_*` variable the environment brought, then set the
/// ones the called code reads to this workload's fixed values: no result
/// cache, no compiled-trace directory unless set-up makes one, at most
/// two threads. Returns the pinned values for the report.
fn pin_env(workload: &str) -> Vec<(String, String)> {
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("FANCY_") {
            std::env::remove_var(&k);
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if workload == "table3" { cpus.min(2) } else { 1 };
    let pinned = [
        ("FANCY_THREADS", threads.to_string()),
        ("FANCY_SHARDS", "1".to_string()),
    ];
    for (k, v) in &pinned {
        std::env::set_var(k, v);
    }
    let mut out: Vec<(String, String)> = pinned
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    for k in [
        "FANCY_FULL",
        "FANCY_REPS",
        "FANCY_CELL_TIMEOUT",
        "FANCY_CACHE_DIR",
        "FANCY_TRACE_DIR",
        "FANCY_SCRAPE_MS",
    ] {
        out.push((k.to_string(), "<unset>".to_string()));
    }
    out
}

/// Scratch space for compiled traces, inside the checkout and removed
/// when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if empty
        }
    }
}

fn json_line(correct: bool, tally: &Tally, metrics: &Metrics, units: &[(&str, &str)]) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = metrics[name];
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let env = pin_env(&args.workload);
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "env {}",
        env.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut tally = Tally::default();
    let (metrics, units): (Metrics, Vec<(&str, &str)>) = if args.trace {
        let m = layers::run(&args.workload, args.seed, args.seconds, &work.0, &mut tally);
        (m, layers::PER_LAYER.to_vec())
    } else {
        let e = workloads::run_e2e(&args.workload, args.seed, args.seconds, &work.0, &mut tally);
        for n in &e.notes {
            println!("{n}");
        }
        let samples: Vec<String> = e.run_s.iter().map(|s| format!("{s:.6}")).collect();
        println!("run_s samples {}", samples.join(" "));
        println!(
            "digest {} {}",
            args.workload,
            e.digest
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let mut m = Metrics::new();
        let nan = f64::NAN;
        let stat = |v: &[f64], q: f64| if v.is_empty() { nan } else { quantile(v, q) };
        m.insert("run_s", stat(&e.run_s, 0.5));
        m.insert("setup_s", stat(&e.setup_s, 0.5));
        m.insert("peak_rss_mb", peak_rss_mb().unwrap_or(nan));
        (m, END_TO_END.to_vec())
    };
    for r in &tally.reasons {
        println!("FAILED {r}");
    }
    let missing: Vec<&str> = units
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !metrics.get(n).is_some_and(|v| v.is_finite()))
        .collect();
    if !missing.is_empty() {
        tally.fail("report", format!("no value for {missing:?}"));
        println!("FAILED report: no value for {missing:?}");
    }
    for (name, unit) in &units {
        println!(
            "metric {name} {} {unit}",
            metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    println!(
        "metric fail_frac {} ratio ({} of {} operations failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let filled: Metrics = units
        .iter()
        .map(|(n, _)| {
            (
                *n,
                metrics
                    .get(n)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0),
            )
        })
        .collect();
    println!("{}", json_line(tally.failed == 0, &tally, &filled, &units));
    drop(work);
    ExitCode::SUCCESS
}
