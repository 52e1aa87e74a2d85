//! Spans recorded around the calls into each layer, from outside the
//! program under test.
//!
//! [`Traced`] wraps an [`Evaluator`] and delegates every trait method
//! to it unchanged; the methods the sweep driver runs work through are
//! timed as spans. The
//! sweep driver sees the same names, domains, fingerprints and unit
//! structure, so a traced sweep produces the same records as an
//! untraced one.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use busnet_core::scenario::{EvalUnit, Evaluation, Evaluator, Scenario};
use busnet_core::sim::bus::{PriorSeed, UnitBudget};
use busnet_core::CoreError;

use crate::alloc;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One work unit (`evaluate_unit*`).
    Unit,
    /// One axis-incremental group (`evaluate_group`).
    Group,
    /// Recombining a pair's units (`combine_units`).
    Combine,
}

/// One timed call into an evaluator.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of the wrapped evaluator in the sweep's evaluator list.
    pub slot: usize,
    /// The call that was timed.
    pub kind: SpanKind,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Evaluations the call produced successfully.
    pub points: u32,
    /// Engine work units reported (events or stepped cycles).
    pub events: u64,
    /// Simulated cycles, warmup included (simulation units only).
    pub cycles: u64,
    /// Whether the scenario's workload is non-uniform.
    pub hot: bool,
    /// Allocations made on the calling thread during the call.
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span store shared by every wrapped evaluator of a run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Mutex::new(Vec::with_capacity(1 << 16)) }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// An evaluator that records a span around each call it forwards.
pub struct Traced<'a> {
    /// The evaluator under test.
    pub inner: &'a dyn Evaluator,
    /// Its index in the sweep's evaluator list.
    pub slot: usize,
    /// Warmup cycles per replication of the inner simulator (0 for
    /// analytic evaluators), added to a report's measured cycles.
    pub warmup: u64,
    /// Where spans go.
    pub rec: &'a Recorder,
}

impl Traced<'_> {
    fn timed<T>(
        &self,
        kind: SpanKind,
        scenario: Option<&Scenario>,
        call: impl FnOnce() -> T,
        shape: impl FnOnce(&T) -> (u32, u64, u64),
    ) -> T {
        let allocs = alloc::on_thread();
        let start = self.rec.now();
        let out = call();
        let end = self.rec.now();
        let allocs = alloc::on_thread() - allocs;
        let (points, events, cycles) = shape(&out);
        let hot = scenario.is_some_and(|s| !s.workload.is_uniform());
        self.rec.push(Span {
            slot: self.slot,
            kind,
            start,
            end,
            points,
            events,
            cycles,
            hot,
            allocs,
        });
        out
    }

    fn unit_shape(&self, out: &Result<EvalUnit, CoreError>) -> (u32, u64, u64) {
        match out {
            Ok(EvalUnit::Replication(r)) => (1, r.events, r.measured_cycles + self.warmup),
            Ok(EvalUnit::Whole(e)) => (1, e.simulated_events, 0),
            Err(_) => (0, 0, 0),
        }
    }
}

impl Evaluator for Traced<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports(&self, scenario: &Scenario) -> bool {
        self.inner.supports(scenario)
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, CoreError> {
        // The sweep driver schedules units and groups, never whole
        // evaluations, so this needs no span.
        self.inner.evaluate(scenario)
    }

    fn work_units(&self, scenario: &Scenario) -> u32 {
        self.inner.work_units(scenario)
    }

    fn evaluate_unit(&self, scenario: &Scenario, unit: u32) -> Result<EvalUnit, CoreError> {
        self.timed(
            SpanKind::Unit,
            Some(scenario),
            || self.inner.evaluate_unit(scenario, unit),
            |r| self.unit_shape(r),
        )
    }

    fn evaluate_unit_primed(
        &self,
        scenario: &Scenario,
        unit: u32,
        prior: Option<PriorSeed>,
    ) -> Result<EvalUnit, CoreError> {
        self.timed(
            SpanKind::Unit,
            Some(scenario),
            || self.inner.evaluate_unit_primed(scenario, unit, prior),
            |r| self.unit_shape(r),
        )
    }

    fn evaluate_unit_supervised(
        &self,
        scenario: &Scenario,
        unit: u32,
        prior: Option<PriorSeed>,
        budget: Option<&UnitBudget>,
    ) -> Result<EvalUnit, CoreError> {
        self.timed(
            SpanKind::Unit,
            Some(scenario),
            || self.inner.evaluate_unit_supervised(scenario, unit, prior, budget),
            |r| self.unit_shape(r),
        )
    }

    fn fluid_screenable(&self) -> bool {
        self.inner.fluid_screenable()
    }

    fn combine_units(
        &self,
        scenario: &Scenario,
        units: Vec<EvalUnit>,
    ) -> Result<Evaluation, CoreError> {
        self.timed(
            SpanKind::Combine,
            Some(scenario),
            || self.inner.combine_units(scenario, units),
            |_| (0, 0, 0),
        )
    }

    fn config_fingerprint(&self) -> String {
        self.inner.config_fingerprint()
    }

    fn incremental_key(&self, scenario: &Scenario) -> Option<String> {
        self.inner.incremental_key(scenario)
    }

    fn evaluate_group(&self, scenarios: &[&Scenario]) -> Vec<Result<Evaluation, CoreError>> {
        self.timed(
            SpanKind::Group,
            scenarios.first().copied(),
            || self.inner.evaluate_group(scenarios),
            |r| (r.iter().filter(|e| e.is_ok()).count() as u32, 0, 0),
        )
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `spans`.
pub fn covered_ns(spans: &[Span], start: u64, end: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        spans.iter().map(|s| (s.start.max(start), s.end.min(end))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}
