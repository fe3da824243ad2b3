//! The repository benchmark: three workloads, every output checked.
//! `BENCHMARK.json` gates two of them; `mine_adult` runs the same way.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --sqlnf <path to the sqlnf binary> --work <scratch dir>
//!           [--e2e-ref-ms <primary_ms of an untraced run>]
//! ```
//!
//! `perfbench/run.py` builds this binary (twice: without and with the
//! `obs` feature) and the `sqlnf` binary, then runs one of them. The
//! last stdout line is the result object; the lines before it name every
//! metric with its unit and sample count. See `perfbench/BENCHMARK.md`.

mod disc;
mod input;
mod layers;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sqlnf: PathBuf,
    pub work: PathBuf,
    pub e2e_ref_ms: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_owned(), value);
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse().map_err(|_| format!("--{k} wants a number"))
    };
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed wants an integer")?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        },
        sqlnf: PathBuf::from(get("sqlnf")?),
        work: PathBuf::from(get("work")?),
        e2e_ref_ms: kv
            .get("e2e-ref-ms")
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| "--e2e-ref-ms wants a number".to_owned())?,
    })
}

/// One reported value: its unit and how many samples it summarises.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// The metrics `BENCHMARK.json` lists: end-to-end ones untraced,
    /// per-layer ones traced.
    pub metrics: BTreeMap<String, Metric>,
    /// The workload's own named metrics (e.g. `report_ms`,
    /// `mine_p50_ms`), printed and recorded beside them.
    pub detail: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure counted, for the human-readable lines.
    pub failures: Vec<String>,
    /// Free-form facts about the run (flush policy, rates, …).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.detail.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    proc_status_kb(pid, "VmHWM:") / 1024.0
}

/// Restarts this process's peak-RSS count, so that `VmHWM` covers the
/// timed ops and not the set-up's transient copies.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current resident set (`VmRSS`) of a process, in MiB.
pub fn rss_mb(pid: &str) -> f64 {
    proc_status_kb(pid, "VmRSS:") / 1024.0
}

fn proc_status_kb(pid: &str, field: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(m: &BTreeMap<String, Metric>) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(v.value),
                v.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Discovery ops are single-threaded whatever the caller's
    // environment says: the report path reads this variable.
    std::env::set_var("SQLNF_MINE_THREADS", "1");
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "mine_adult" | "mine_million" => disc::run(&args),
        "serve_mixed" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        // A layer field that reads 0 where the layer did work is a bug
        // in the bench. Only counts whose layer the workload's input
        // gives nothing to do may read 0: the certain probe index where
        // no LHS holds a null (million's nulls sit in `flag` alone, which
        // no minimal LHS needs), and cache evictions where every
        // partition fits the budget (serve_mixed's 10^5 rows).
        let may_be_zero: &[&str] = match args.workload.as_str() {
            "mine_million" => &[
                "discovery.check.probe_index.builds",
                "discovery.check.probe_index.hits",
            ],
            "serve_mixed" => &[
                "discovery.check.probe_index.builds",
                "discovery.check.probe_index.hits",
                "discovery.partition.cache.evictions",
            ],
            _ => &[],
        };
        let zero: Vec<String> = report
            .metrics
            .iter()
            .filter(|(name, m)| m.value == 0.0 && !may_be_zero.contains(&name.as_str()))
            .map(|(name, _)| name.clone())
            .collect();
        report.check(zero.is_empty(), || format!("layer fields read 0: {zero:?}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} trace {} nproc {nproc} obs_compiled {} wall_s {:.3}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        sqlnf_obs::ENABLED,
        started.elapsed().as_secs_f64()
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# attempted {} failed {} fail_ratio {fail_ratio}",
        report.attempted, report.failed
    );
    for (kind, map) in [("metric", &report.metrics), ("detail", &report.detail)] {
        for (name, m) in map {
            println!("{kind} {name} = {} {} (n={})", m.value, m.unit, m.samples);
        }
    }
    println!("DETAIL {}", metrics_json(&report.detail));
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
}
