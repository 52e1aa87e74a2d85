//! Integration suite for `busnet serve`: the always-on batch
//! evaluation service. Each test spawns the real binary on a private
//! Unix socket and speaks the JSON-line protocol over real
//! connections, covering the serving contract end to end:
//!
//! * concurrent identical requests from different clients produce
//!   byte-identical rows backed by exactly one evaluator call;
//! * malformed JSON, unknown evaluators, and out-of-domain scenarios
//!   earn structured error replies without panicking the server or
//!   dropping the connection;
//! * SIGTERM drains in-flight work — owed replies are written before
//!   the process exits cleanly;
//! * a workload spec is parsed by the same code, with the same error
//!   text, whether it arrives as a `busnet sim` flag or in a request;
//! * truncated and mutated request lines never panic the parser.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use busnet::core::serve::{parse_request, Request};
use proptest::prelude::*;

/// A serve process bound to a private Unix socket; killed (and its
/// socket removed) on drop so a failing test never leaks a server.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    fn spawn(tag: &str, extra: &[&str]) -> Server {
        let socket =
            std::env::temp_dir().join(format!("busnet-serve-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_busnet"))
            .arg("serve")
            .arg("--unix")
            .arg(&socket)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawns the server");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "server never bound {}", socket.display());
            std::thread::sleep(Duration::from_millis(10));
        }
        Server { child, socket }
    }

    fn connect(&self) -> Client {
        let stream = UnixStream::connect(&self.socket).expect("connects");
        let reader = BufReader::new(stream.try_clone().expect("clones the stream"));
        Client { stream, reader }
    }

    /// SIGTERM the server and return its exit status.
    fn terminate(mut self) -> std::process::ExitStatus {
        signal_term(&self.child);
        let status = self.child.wait().expect("server exits");
        let _ = std::fs::remove_file(&self.socket);
        std::mem::forget(self);
        status
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn signal_term(child: &Child) {
    let status =
        Command::new("kill").arg("-TERM").arg(child.id().to_string()).status().expect("kill runs");
    assert!(status.success(), "SIGTERM delivered");
}

/// One protocol connection: send request lines, read reply lines.
struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("request written");
        self.stream.write_all(b"\n").expect("request terminated");
        self.stream.flush().expect("request flushed");
    }

    fn reply(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reply readable");
        assert!(n > 0, "connection closed before a reply arrived");
        line.trim_end().to_owned()
    }
}

/// The `row` payload of a result reply — the bytes that must be
/// identical across duplicate requests.
fn row_of(reply: &str) -> &str {
    reply.split_once(",\"row\":").unwrap_or_else(|| panic!("no row in `{reply}`")).1
}

fn status_of(reply: &str) -> &str {
    reply
        .split_once("\"status\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .unwrap_or_else(|| panic!("no status in `{reply}`"))
        .0
}

const POINT: &str = r#""scenario":{"n":8,"m":16,"r":8,"buffering":"buffered"},"evaluator":"pfqn""#;

/// Concurrent identical requests from separate connections: every
/// reply carries byte-identical row bytes, exactly one request is
/// `fresh`, and the server's evaluator-call meter reads one.
#[test]
fn duplicate_requests_are_bit_identical_with_one_evaluator_call() {
    let server = Server::spawn("dedup", &[]);
    let clients = 4;
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut client = server.connect();
                scope.spawn(move || {
                    client.send(&format!(r#"{{"id":{c},{POINT}}}"#));
                    client.reply()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let rows: Vec<&str> = replies.iter().map(|r| row_of(r)).collect();
    assert!(rows.iter().all(|r| *r == rows[0]), "duplicate rows diverged: {replies:?}");
    let fresh = replies.iter().filter(|r| status_of(r) == "fresh").count();
    let cached = replies.iter().filter(|r| status_of(r) == "cached").count();
    assert_eq!(fresh, 1, "exactly one request evaluates: {replies:?}");
    assert_eq!(cached, clients - 1, "every duplicate replays it: {replies:?}");

    let mut stats = server.connect();
    stats.send(r#"{"id":"s","op":"stats"}"#);
    let reply = stats.reply();
    assert!(
        reply.contains("\"evaluator_calls\":1"),
        "duplicates cost zero extra evaluator calls: {reply}"
    );
    assert!(server.terminate().success(), "clean shutdown");
}

/// A connection that sends garbage keeps working: malformed JSON,
/// unknown evaluators, bad parameters, and out-of-domain points each
/// earn one structured reply, and a well-formed request afterwards
/// still evaluates.
#[test]
fn bad_requests_earn_structured_errors_and_the_connection_survives() {
    let server = Server::spawn("errors", &[]);
    let mut client = server.connect();
    let cases = [
        ("{definitely not json", "error", "malformed"),
        (
            r#"{"id":10,"scenario":{"n":8,"m":16,"r":8},"evaluator":"frobnicator"}"#,
            "error",
            "unknown evaluator",
        ),
        (
            r#"{"id":11,"scenario":{"n":0,"m":16,"r":8},"evaluator":"pfqn"}"#,
            "error",
            "invalid parameter",
        ),
        (
            r#"{"id":12,"scenario":{"n":8,"m":16,"r":8},"frobnicate":true}"#,
            "error",
            "unknown request field",
        ),
        (r#"{"id":13,"op":"reboot"}"#, "error", "unknown op"),
        // In-domain parse, out-of-domain evaluation: the exact chain
        // needs memory priority, so the default point fails cleanly.
        (
            r#"{"id":14,"scenario":{"n":4,"m":4,"r":4},"evaluator":"exact"}"#,
            "failed",
            "does not support",
        ),
    ];
    for (request, status, needle) in cases {
        client.send(request);
        let reply = client.reply();
        assert_eq!(status_of(&reply), status, "for `{request}`: {reply}");
        assert!(reply.contains(needle), "for `{request}`: {reply}");
    }
    client.send(&format!(r#"{{"id":99,{POINT}}}"#));
    let reply = client.reply();
    assert_eq!(status_of(&reply), "fresh", "connection survives the abuse: {reply}");
    assert!(server.terminate().success(), "no panic under protocol abuse");
}

/// SIGTERM with a request in flight: the reply still arrives, the
/// connection then closes, and the server exits successfully.
#[test]
fn sigterm_drains_in_flight_requests() {
    let server = Server::spawn("drain", &[]);
    let mut client = server.connect();
    // A simulation chunky enough to still be running when the signal
    // lands (4 replications x 200k cycles, debug build).
    client.send(
        r#"{"id":"inflight","scenario":{"n":8,"m":16,"r":8},"evaluator":"sim","budget":{"replications":4,"cycles":200000}}"#,
    );
    std::thread::sleep(Duration::from_millis(150));
    signal_term(&server.child);
    let reply = client.reply();
    assert_eq!(status_of(&reply), "fresh", "in-flight work drained: {reply}");
    assert!(reply.contains("\"id\":\"inflight\""), "{reply}");
    // Nothing further is owed: the server closes the connection.
    let mut rest = String::new();
    let n = client.reader.read_line(&mut rest).expect("EOF readable");
    assert_eq!(n, 0, "no stray output after the drain: {rest}");
    let mut server = server;
    let status = server.child.wait().expect("server exits");
    assert!(status.success(), "graceful exit after drain");
    assert!(!Path::new(&server.socket).exists(), "socket file removed on shutdown");
}

/// Requests answered from a shared `--cache-dir` journal replay
/// byte-identically across server restarts: a second server process
/// serves the first process's rows as `cached` with zero evaluator
/// calls.
#[test]
fn cache_dir_replays_across_server_restarts() {
    let dir = std::env::temp_dir().join(format!("busnet-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache dir");
    let cache = dir.to_str().expect("utf-8 temp dir");

    let server = Server::spawn("warmup", &["--cache-dir", cache]);
    let mut client = server.connect();
    client.send(&format!(r#"{{"id":1,{POINT}}}"#));
    let first = client.reply();
    assert_eq!(status_of(&first), "fresh");
    assert!(server.terminate().success());

    let server = Server::spawn("replay", &["--cache-dir", cache]);
    let mut client = server.connect();
    client.send(&format!(r#"{{"id":2,{POINT}}}"#));
    let second = client.reply();
    assert_eq!(status_of(&second), "cached", "journal replay: {second}");
    assert_eq!(row_of(&first), row_of(&second), "replayed rows are byte-identical");
    let mut stats = server.connect();
    stats.send(r#"{"id":"s","op":"stats"}"#);
    let reply = stats.reply();
    assert!(reply.contains("\"evaluator_calls\":0"), "warm start evaluates nothing: {reply}");
    assert!(server.terminate().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An invalid workload spec earns the same message from `busnet sim`
/// (first stderr line) and from the serve protocol (the `error` field),
/// for every workload flag.
#[test]
fn invalid_workloads_fail_alike_on_the_cli_and_in_serve() {
    let server = Server::spawn("workloads", &[]);
    let mut client = server.connect();
    let cases = [
        ("hot-spot", "1.5"),
        ("hot-spot", "0.2@x"),
        ("module-weights", "1,a"),
        ("think-probs", "1,2"),
        ("burst", "0.9:0.05"),
    ];
    for (flag, value) in cases {
        let cli = Command::new(env!("CARGO_BIN_EXE_busnet"))
            .args(["sim", "--n", "4", "--m", "4", "--r", "2", &format!("--{flag}"), value])
            .output()
            .expect("runs busnet sim");
        assert!(!cli.status.success(), "--{flag} {value} is rejected");
        let stderr = String::from_utf8(cli.stderr).expect("utf-8 stderr");
        let message = stderr.lines().next().expect("an error line");
        client.send(&format!(
            r#"{{"id":7,"scenario":{{"n":4,"m":4,"r":2,"workload":"{flag}:{value}"}}}}"#
        ));
        let reply = client.reply();
        assert_eq!(status_of(&reply), "error", "{reply}");
        assert!(reply.ends_with(&format!(r#""error":"{message}"}}"#)), "{message} vs {reply}");
    }
    assert!(server.terminate().success());
}

/// Valid request lines the robustness property mutates, covering every
/// request field and each workload form.
const VALID_LINES: [&str; 6] = [
    r#"{"id":"c1-7","scenario":{"n":8,"m":16,"r":8,"p":0.5,"policy":"mem","buffering":"buffered","arbitration":"lru","buses":1},"evaluator":"pfqn","budget":{"replications":2,"cycles":10000,"seed":7,"engine":"event","ci_width":0.05,"max_reps":4},"max_retries":1,"on_failure":"degrade","unit_budget":{"events":100000,"millis":50}}"#,
    r#"{"id":1,"scenario":{"n":8,"m":16,"r":8,"workload":"hot-spot:0.2@0"},"evaluator":"sim"}"#,
    r#"{"id":2,"scenario":{"n":4,"m":4,"r":2,"workload":"module-weights:4,2,1,1"}}"#,
    r#"{"id":3,"scenario":{"n":4,"m":4,"r":2,"workload":"think-probs:1,0.5,0.5,0.25"}}"#,
    r#"{"id":4,"scenario":{"n":4,"m":4,"r":2,"workload":"burst:0.9:0.05:0.9:500:0.5@0"}}"#,
    r#"{"id":5,"op":"stats"}"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Truncated and byte-mutated request lines never panic the parser:
    /// each yields a request or a structured error reply.
    #[test]
    fn parse_request_survives_truncation_and_mutation(
        which in 0usize..VALID_LINES.len(),
        keep in 0usize..400,
        mutations in 0usize..4,
        at in 0usize..400,
        byte in 0u32..256,
        stride in 1usize..64,
    ) {
        let mut bytes = VALID_LINES[which].as_bytes().to_vec();
        for k in 0..mutations {
            let pos = (at + k * stride) % bytes.len();
            bytes[pos] = (byte as usize + k * 37) as u8;
        }
        bytes.truncate(keep);
        let line = String::from_utf8_lossy(&bytes);
        let parsed = std::panic::catch_unwind(|| parse_request(&line));
        match parsed {
            Ok(Ok(Request::Eval(_) | Request::Stats { .. })) => {}
            Ok(Err(err)) => {
                let reply = err.line();
                prop_assert!(
                    reply.starts_with(&format!("{{\"id\":{},\"status\":\"error\",\"error\":\"", err.id))
                        && reply.ends_with("\"}"),
                    "unstructured error reply `{reply}` for `{line}`"
                );
            }
            Err(_) => panic!("parse_request panicked on `{line}`"),
        }
    }
}
