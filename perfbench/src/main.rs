//! The busnet benchmark: three workloads driven in-process through the
//! public library APIs, with an optional traced run that derives
//! per-layer metrics from spans recorded around the calls into each
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_sweep|model_sweep|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! print the same figures for a reader. The process exits with code 1
//! when a correctness check fails. See `perfbench/README.md`.

mod alloc;
mod report;
mod rng;
mod serve;
mod sweeps;
mod trace;

use std::process::ExitCode;

use report::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("batch_s", "s"), ("peak_heap_mb", "MiB")];

/// The analytic evaluators of `model_sweep`.
pub const ANALYTIC: [&str; 8] =
    ["pfqn", "pfqn-buzen", "approx", "approx-depth", "reduced", "fluid", "exact", "multibus"];

/// Per-layer metrics, printed by every traced run (0 where the layer
/// does no work on that workload).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("sim.cycle.ns_per_cycle", "ns"),
        ("sim.event.ns_per_event.uniform", "ns"),
        ("sim.event.ns_per_event.hot_spot", "ns"),
        ("sim.event.events_per_cycle", "count"),
        ("sim.unit_ms.p50", "ms"),
        ("sim.unit_ms.max", "ms"),
        ("sim.allocs_per_unit", "count"),
        ("exec.busy_fraction", "ratio"),
        ("scenario.plan_ms", "ms"),
        ("scenario.self_ms", "ms"),
        ("scenario.combine_ms", "ms"),
        ("scenario.evaluator_calls", "count"),
        ("scenario.groups", "count"),
        ("scenario.grouped_points", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    out.extend(ANALYTIC.iter().map(|a| (format!("analytic.{a}.us_per_point"), "us")));
    out.extend(
        [
            ("queueing.solver_iterations", "count"),
            ("serve.parse_us.p50", "us"),
            ("serve.parse_us.p99", "us"),
            ("serve.submit_us.p50", "us"),
            ("serve.submit_us.p99", "us"),
            ("serve.reply_ms.cached_inline.p99", "ms"),
            ("serve.reply_ms.coalesced.p99", "ms"),
            ("serve.reply_ms.fresh_analytic.p99", "ms"),
            ("serve.reply_ms.fresh_sim.p99", "ms"),
            ("serve.latency_p50_ms", "ms"),
            ("serve.latency_p99_ms", "ms"),
            ("serve.sustained_rps", "1/s"),
            ("serve.allocs_per_request", "count"),
            ("serve.coalesced", "count"),
            ("serve.cache_replies", "count"),
            ("serve.overloaded", "count"),
            ("serve.evaluated", "count"),
            ("serve.evaluator_calls", "count"),
            ("serve.dedup_ratio", "ratio"),
            ("serve.repeat_share", "ratio"),
            ("cache.load_ms", "ms"),
            ("cache.load_records", "count"),
            ("cache.hits", "count"),
            ("cache.misses", "count"),
            ("cache.appended", "count"),
            ("cache.lookups_per_request", "count"),
            ("bench.send_lag_ms.p99", "ms"),
            ("bench.trace_overhead", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_owned(), u)),
    );
    out
}

/// Named values measured by one run.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets (or replaces) a value.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_owned(), value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let measured = match args.workload.as_str() {
        "sim_sweep" | "model_sweep" => {
            sweeps::run(&args.workload, args.seed, args.seconds, args.trace, &mut report)
        }
        "serve_mixed" => match serve::run(args.seed, args.seconds, args.trace, &mut report) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: serve_mixed: {e}");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("perfbench: unknown workload `{other}` (sim_sweep|model_sweep|serve_mixed)");
            return ExitCode::from(2);
        }
    };
    // Out-of-domain pairs and refusals the workload provokes on purpose
    // are not attempts; anything else not answered ok fails the run.
    report.check(
        "none_failed",
        report.failed == 0,
        format!("{} of {} not answered ok", report.failed, report.attempted),
    );
    let names: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect()
    };
    for (name, unit) in names {
        report.metric(&name, measured.get(&name).unwrap_or(0.0), unit);
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
