//! The result-row schema: one table of named columns, each defined
//! once by how it renders from a sweep record.
//!
//! Every row the system prints is a projection of this table:
//! [`SWEEP`] is the `busnet sweep` row (CSV header, CSV rows and JSON
//! objects) and `SERVE` the `row` payload of a `busnet serve` reply.
//! The renderers append to one caller-owned `String` and allocate no
//! per-cell strings.
//!
//! Rendering rules:
//!
//! * absent telemetry (an analytic row's fairness, occupancy, hot-module
//!   or window columns) is an empty CSV cell and JSON `null`;
//! * a failed row keeps empty CSV cells for every measure but omits the
//!   measures from JSON entirely, and carries a JSON-only `error` last;
//! * `window_ebw` (the per-window EBW trajectory) is JSON-only;
//! * measures print with six decimals, except `p`, which prints as the
//!   shortest round-tripping decimal; text columns (including
//!   `buffer_depth`) are JSON strings.

use std::fmt::{Display, Write};

use crate::json;
use crate::params::Buffering;
use crate::scenario::{Evaluation, Scenario, SweepRecord, UnitStatus};
use crate::CoreError;

/// One row's inputs: the scenario, who evaluated it, and the outcome.
pub struct Row<'a> {
    scenario: &'a Scenario,
    evaluator: &'a str,
    result: Result<&'a Evaluation, &'a CoreError>,
    screened: bool,
    /// [`UnitStatus::Failed`] for every failure.
    status: UnitStatus,
    attempts: u32,
}

impl<'a> Row<'a> {
    /// The row of one sweep record.
    pub fn of_record(record: &'a SweepRecord) -> Self {
        Row {
            scenario: &record.scenario,
            evaluator: record.evaluator,
            result: record.result.as_ref(),
            screened: record.screened,
            status: if record.result.is_ok() { record.status } else { UnitStatus::Failed },
            attempts: record.attempts,
        }
    }

    /// The row of a bare evaluation (unscreened, first try).
    pub(crate) fn of_evaluation(evaluation: &'a Evaluation) -> Self {
        Row {
            scenario: &evaluation.scenario,
            evaluator: evaluation.evaluator,
            result: Ok(evaluation),
            screened: false,
            status: UnitStatus::Ok,
            attempts: 1,
        }
    }
}

/// A value being written into a row, in the row's encoding.
struct Cell<'a> {
    out: &'a mut String,
    json: bool,
}

// Writing into a `String` cannot fail, so the `fmt::Result`s below are
// discarded.
impl Cell<'_> {
    fn num(&mut self, v: impl Display) {
        let _ = write!(self.out, "{v}");
    }

    fn fixed(&mut self, v: f64) {
        let _ = write!(self.out, "{v:.6}");
    }

    /// Text: bare in CSV, quoted in JSON.
    fn text(&mut self, v: impl Display) {
        self.quote();
        self.num(v);
        self.quote();
    }

    /// A string, as [`Cell::text`] but copied without the formatting
    /// machinery (serve renders a row per reply).
    fn word(&mut self, v: &str) {
        self.quote();
        self.out.push_str(v);
        self.quote();
    }

    fn quote(&mut self) {
        if self.json {
            self.out.push('"');
        }
    }

    /// An optional value: empty in CSV, `null` in JSON when absent.
    fn opt<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        match v {
            Some(v) => write(self, v),
            None if self.json => self.out.push_str("null"),
            None => {}
        }
    }
}

/// When a column has a value, and in which encodings.
enum Kind {
    /// Scenario identity and bookkeeping: in every row.
    Key(fn(&Row<'_>, &mut Cell<'_>)),
    /// A measure of the evaluation: empty in CSV and omitted from JSON
    /// on a failed row.
    Measure(fn(&Row<'_>, &Evaluation, &mut Cell<'_>)),
    /// A [`Kind::Measure`] that only JSON carries.
    JsonMeasure(fn(&Row<'_>, &Evaluation, &mut Cell<'_>)),
    /// The failure message: JSON only, on failed rows only.
    Error,
}

/// One named output column: its CSV header cell and JSON key, and how
/// its value renders.
pub struct Column {
    name: &'static str,
    kind: Kind,
}

impl Column {
    fn in_csv(&self) -> bool {
        matches!(self.kind, Kind::Key(_) | Kind::Measure(_))
    }

    /// Writes this column's value for `row`; `false` when the row has
    /// none (a measure of a failed row, the error of a good one).
    fn write(&self, row: &Row<'_>, cell: &mut Cell<'_>) -> bool {
        match (&self.kind, row.result) {
            (Kind::Key(f), _) => f(row, cell),
            (Kind::Measure(f) | Kind::JsonMeasure(f), Ok(e)) => f(row, e, cell),
            (Kind::Error, Err(e)) => cell.word(&json::escape(&e.to_string())),
            _ => return false,
        }
        true
    }
}

const fn key(name: &'static str, f: fn(&Row<'_>, &mut Cell<'_>)) -> Column {
    Column { name, kind: Kind::Key(f) }
}

const fn measure(name: &'static str, f: fn(&Row<'_>, &Evaluation, &mut Cell<'_>)) -> Column {
    Column { name, kind: Kind::Measure(f) }
}

static N: Column = key("n", |r, c| c.num(r.scenario.params.n()));
static M: Column = key("m", |r, c| c.num(r.scenario.params.m()));
static R: Column = key("r", |r, c| c.num(r.scenario.params.r()));
static P: Column = key("p", |r, c| c.num(r.scenario.params.p()));
static POLICY: Column = key("policy", |r, c| c.word(r.scenario.policy.name()));
static BUFFERING: Column = key("buffering", |r, c| c.text(r.scenario.buffering));
static BUFFER_DEPTH: Column =
    key("buffer_depth", |r, c| c.text(Buffering::depth_label(r.scenario.buffering)));
static ARBITRATION: Column = key("arbitration", |r, c| c.word(r.scenario.arbitration.name()));
static WORKLOAD: Column = key("workload", |r, c| c.text(&r.scenario.workload));
static EVALUATOR: Column = key("evaluator", |r, c| c.word(r.evaluator));
static EBW: Column = measure("ebw", |_, e, c| c.fixed(e.metrics.ebw));
static HALF_WIDTH_95: Column = measure("half_width_95", |_, e, c| c.fixed(e.half_width_95));
static BUS_UTILIZATION: Column =
    measure("bus_utilization", |_, e, c| c.fixed(e.metrics.bus_utilization));
static MEMORY_UTILIZATION: Column =
    measure("memory_utilization", |_, e, c| c.fixed(e.metrics.memory_utilization));
static PROCESSOR_EFFICIENCY: Column =
    measure("processor_efficiency", |_, e, c| c.fixed(e.metrics.processor_efficiency));
static REPLICATIONS: Column = measure("replications", |_, e, c| c.num(e.replications));
static FAIRNESS: Column = measure("fairness", |_, e, c| c.opt(e.fairness_index(), Cell::fixed));
static MEAN_INPUT_QUEUE: Column = measure("mean_input_queue", |_, e, c| {
    c.opt(e.occupancy.as_ref().map(|o| o.mean_input_queue), Cell::fixed)
});
static INPUT_FULL_FRACTION: Column = measure("input_full_fraction", |_, e, c| {
    c.opt(e.occupancy.as_ref().map(|o| o.input_full_fraction), Cell::fixed)
});
static BLOCKED_COMPLETIONS: Column = measure("blocked_completions", |_, e, c| {
    c.opt(e.occupancy.as_ref().map(|o| o.blocked_completions), Cell::num)
});
static HOT_REF_SHARE: Column = measure("hot_ref_share", |_, e, c| {
    c.opt(e.hot_module.as_ref().map(|h| h.reference_share), Cell::fixed)
});
static HOT_MODULE_UTILIZATION: Column = measure("hot_module_utilization", |_, e, c| {
    c.opt(e.hot_module.as_ref().map(|h| h.utilization), Cell::fixed)
});
static HOT_MEAN_INPUT_QUEUE: Column = measure("hot_mean_input_queue", |_, e, c| {
    c.opt(e.hot_module.as_ref().map(|h| h.mean_input_queue), Cell::fixed)
});
static BUSES: Column = key("buses", |r, c| c.num(r.scenario.buses));
static SCREENED: Column = key("screened", |r, c| c.num(r.screened));
static WINDOWS: Column =
    measure("windows", |_, e, c| c.opt(e.windows.as_ref().map(|w| w.windows.len()), Cell::num));
static WINDOW_EBW: Column = Column {
    name: "window_ebw",
    kind: Kind::JsonMeasure(|r, e, c| {
        let round_trip = r.scenario.params.r() + 2;
        c.opt(e.windows.as_ref(), |c, series| {
            c.out.push('[');
            for (i, window) in series.windows.iter().enumerate() {
                if i > 0 {
                    c.out.push(',');
                }
                c.fixed(window.ebw(round_trip));
            }
            c.out.push(']');
        });
    }),
};
static STATUS: Column = key("status", |r, c| c.word(r.status.name()));
static ATTEMPTS: Column = key("attempts", |r, c| c.num(r.attempts));
static DEGRADED: Column = key("degraded", |r, c| c.num(r.status == UnitStatus::Degraded));
static ERROR: Column = Column { name: "error", kind: Kind::Error };

/// The `busnet sweep` row, in column order.
#[rustfmt::skip]
pub static SWEEP: [&Column; 31] = [
    &N, &M, &R, &P, &POLICY, &BUFFERING, &BUFFER_DEPTH, &ARBITRATION, &WORKLOAD, &EVALUATOR,
    &EBW, &HALF_WIDTH_95, &BUS_UTILIZATION, &MEMORY_UTILIZATION, &PROCESSOR_EFFICIENCY,
    &REPLICATIONS, &FAIRNESS, &MEAN_INPUT_QUEUE, &INPUT_FULL_FRACTION, &BLOCKED_COMPLETIONS,
    &HOT_REF_SHARE, &HOT_MODULE_UTILIZATION, &HOT_MEAN_INPUT_QUEUE, &BUSES, &SCREENED,
    &WINDOWS, &WINDOW_EBW, &STATUS, &ATTEMPTS, &DEGRADED, &ERROR,
];

/// The `row` payload of a `busnet serve` reply: scenario identity and
/// the §2 measures.
#[rustfmt::skip]
pub(crate) static SERVE: [&Column; 16] = [
    &N, &M, &R, &P, &POLICY, &BUFFERING, &ARBITRATION, &WORKLOAD, &BUSES, &EVALUATOR,
    &EBW, &HALF_WIDTH_95, &BUS_UTILIZATION, &MEMORY_UTILIZATION, &PROCESSOR_EFFICIENCY,
    &REPLICATIONS,
];

/// Appends the CSV header line (no newline) of `columns` to `out`.
pub fn csv_header(columns: &[&Column], out: &mut String) {
    for (i, column) in columns.iter().filter(|c| c.in_csv()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(column.name);
    }
}

/// Appends `row` as one CSV line (no newline) to `out`.
pub fn csv_row(columns: &[&Column], row: &Row<'_>, out: &mut String) {
    let mut cell = Cell { out, json: false };
    for (i, column) in columns.iter().filter(|c| c.in_csv()).enumerate() {
        if i > 0 {
            cell.out.push(',');
        }
        column.write(row, &mut cell);
    }
}

/// Appends `row` as one JSON object (no newline) to `out`.
pub fn json_row(columns: &[&Column], row: &Row<'_>, out: &mut String) {
    out.push('{');
    let open = out.len();
    let mut cell = Cell { out, json: true };
    for column in columns {
        let mark = cell.out.len();
        if mark > open {
            cell.out.push(',');
        }
        cell.out.push('"');
        cell.out.push_str(column.name);
        cell.out.push_str("\":");
        if !column.write(row, &mut cell) {
            cell.out.truncate(mark);
        }
    }
    cell.out.push('}');
}
