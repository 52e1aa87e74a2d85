//! Golden result rows: the exact bytes `busnet sweep` streams in CSV
//! and JSON, and the row payload `busnet serve` replies with.
//!
//! Each case runs the real binary over a small seeded grid and compares
//! its whole stdout with a file under `tests/golden/rows/`. The grid
//! covers every rendering rule of the row schema:
//!
//! * a depth-buffered simulation row (occupancy columns) next to an
//!   analytic row (fairness and occupancy empty / `null`);
//! * hot-spot rows (the hot-module columns);
//! * a bursty row (`windows`, and `window_ebw` in JSON only);
//! * degraded and failed rows under an armed fault plan (a failed row
//!   keeps empty metric cells in CSV and omits them from JSON, with
//!   `error` last).
//!
//! The serve half pins the reply line for a fresh evaluation and for
//! its cached replay.

use std::io::Write;
use std::process::Command;
use std::sync::{Arc, Mutex};

use busnet::core::cache::EvalCache;
use busnet::core::serve::{parse_request, Broker, BrokerConfig, ReplySink, Request};
use busnet::sim::sink::LineSink;

/// Runs `busnet sweep ARGS --format FORMAT` and returns its stdout,
/// whatever the exit code (a sweep with failed rows exits nonzero).
fn sweep(args: &str, format: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_busnet"))
        .arg("sweep")
        .args(args.split_whitespace())
        .args(["--format", format])
        .output()
        .expect("runs busnet sweep");
    String::from_utf8(output.stdout).expect("utf-8 rows")
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/rows/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Asserts both encodings of one sweep against their golden files.
fn check(case: &str, args: &str) {
    for format in ["csv", "json"] {
        let got = sweep(args, format);
        let want = golden(&format!("{case}.{format}"));
        assert_eq!(got, want, "{case}.{format}: `busnet sweep {args}` rows changed");
    }
}

const BUDGET: &str = "--cycles 2000 --warmup 200 --replications 2 --seed 7 --serial";

#[test]
fn buffered_and_analytic_rows() {
    check(
        "depth",
        &format!(
            "--n 4 --m 4 --r 2 --p 0.5 --buffer-depth 2,inf --evaluator sim,approx-depth {BUDGET}"
        ),
    );
}

#[test]
fn hot_spot_rows() {
    check(
        "hot_spot",
        &format!(
            "--n 4 --m 4 --r 2 --p 0.5 --buffering buffered --hot-spot 0,0.3@1 \
             --evaluator sim,pfqn {BUDGET}"
        ),
    );
}

#[test]
fn bursty_rows() {
    check(
        "burst",
        &format!("--n 4 --m 4 --r 2 --burst 0.9:0.05:0.9:500:0.5@0 --evaluator sim {BUDGET}"),
    );
}

#[test]
fn degraded_and_failed_rows() {
    let chaos = format!(
        "--n 2..5 --m 4 --r 2 --evaluator sim {BUDGET} --fault-plan seed=5:rate=0.45 \
         --max-retries 0"
    );
    check("degrade", &format!("{chaos} --on-failure degrade"));
    check("skip", &format!("{chaos} --on-failure skip"));
}

/// A `Write` into a shared buffer, so the test can read replies back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn lines(&self) -> Vec<String> {
        let text = String::from_utf8(self.0.lock().unwrap().clone()).expect("utf-8 replies");
        text.lines().map(str::to_owned).collect()
    }
}

/// Submits `line` and waits for its reply.
fn ask(broker: &Broker, sink: &Arc<ReplySink>, buf: &SharedBuf, line: &str) -> String {
    let before = buf.lines().len();
    match parse_request(line) {
        Ok(Request::Eval(req)) => broker.submit(req, sink),
        other => panic!("expected an eval request, got {other:?}"),
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Some(reply) = buf.lines().get(before) {
            return reply.clone();
        }
        assert!(std::time::Instant::now() < deadline, "no reply to {line}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// `(request fields, pinned row)`: an analytic point and a small
/// simulation, each asked twice.
const SERVE_CASES: [(&str, &str); 2] = [
    (
        r#""scenario":{"n":8,"m":16,"r":8,"p":0.5,"buffering":"depth2"},"evaluator":"pfqn""#,
        r#"{"n":8,"m":16,"r":8,"p":0.5,"policy":"proc","buffering":"depth2","arbitration":"random","workload":"uniform","buses":1,"evaluator":"pfqn","ebw":3.372909,"half_width_95":0.000000,"bus_utilization":0.674582,"memory_utilization":0.168645,"processor_efficiency":0.843227,"replications":1}"#,
    ),
    (
        r#""scenario":{"n":4,"m":4,"r":2,"policy":"mem","arbitration":"lru"},"evaluator":"sim","budget":{"replications":2,"cycles":2000,"warmup":200,"seed":7}"#,
        r#"{"n":4,"m":4,"r":2,"p":1,"policy":"mem","buffering":"unbuffered","arbitration":"lru","workload":"uniform","buses":1,"evaluator":"sim","ebw":1.828000,"half_width_95":0.381180,"bus_utilization":0.914000,"memory_utilization":0.228500,"processor_efficiency":0.457000,"replications":2}"#,
    ),
];

#[test]
fn serve_rows_fresh_and_cached() {
    let broker = Broker::new(Arc::new(EvalCache::new()), BrokerConfig::default());
    let buf = SharedBuf::default();
    let sink: Arc<ReplySink> =
        Arc::new(LineSink::new(Box::new(buf.clone()) as Box<dyn Write + Send>));
    for (fields, row) in SERVE_CASES {
        for (id, status) in [(1, "fresh"), (2, "cached")] {
            let reply = ask(&broker, &sink, &buf, &format!("{{\"id\":{id},{fields}}}"));
            let want = format!("{{\"id\":{id},\"status\":\"{status}\",\"row\":{row}}}");
            assert_eq!(reply, want, "{status} reply to {fields}");
        }
    }
    broker.drain();
}
