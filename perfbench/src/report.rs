//! Summary statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a, for result fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3))
}

/// Everything one run reports: correctness verdicts, the attempt and
/// failure counts, and the named metrics.
#[derive(Default)]
pub struct Report {
    checks: Vec<(String, bool, String)>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    /// Pairs or requests attempted.
    pub attempted: u64,
    /// Of those, the ones not answered ok.
    pub failed: u64,
}

impl Report {
    /// Records one named metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_owned(), ok, detail.into()));
    }

    /// Adds a line to the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Prints the human-readable summary, then the result object as the
    /// last line of standard output.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, ok, detail) in &self.checks {
            println!("check {name}: {} {detail}", if *ok { "ok" } else { "FAILED" });
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!("failed_ratio = {ratio} ({} of {})", self.failed, self.attempted);
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(json, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}
