//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span's layer is its name up to the first `.`. A
//! top-level span (no parent) is one operation; its children share its
//! operation id. Self time is a span's duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub type SpanId = usize;

/// Sum of child spans may exceed their top-level span by at most this
/// share before the operation counts as unreconciled. Children recorded
/// by replaying an operation's layer calls right after the real call are
/// separate executions of the same work, so they carry run-to-run noise.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub op: usize,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_secs_f64() * 1e3
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Measurements that are not intervals (per-rank times from a
    /// report, throughputs, ratios), by metric name.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Record a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let op = parent.map_or(id, |p| self.spans[p].op);
        self.spans.push(Span {
            name,
            parent,
            op,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        id
    }

    /// Open a span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end = self.epoch.elapsed();
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(value);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    fn child_ms(&self) -> Vec<f64> {
        let mut sum = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sum[p] += s.ms();
            }
        }
        sum
    }

    /// Self time of every span, in ms.
    fn self_ms(&self) -> Vec<f64> {
        let child = self.child_ms();
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.ms() - c)
            .collect()
    }

    /// Self time in ms of every span called `name`.
    pub fn self_durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ms())
            .filter(|(s, _)| s.name == name)
            .map(|(_, v)| v)
            .collect()
    }

    /// Per top-level span name that has children: the number of
    /// operations, the median ratio of their children's summed time to
    /// their own, and how many operations exceed the tolerance.
    pub fn reconcile(&self) -> Vec<Reconciled> {
        let child = self.child_ms();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            if s.parent.is_none() && *c > 0.0 {
                by_name
                    .entry(s.name)
                    .or_default()
                    .push(c / s.ms().max(1e-9));
            }
        }
        by_name
            .into_iter()
            .map(|(name, ratios)| Reconciled {
                name,
                ops: ratios.len(),
                median_ratio: crate::stats::median(&ratios),
                over: ratios
                    .iter()
                    .filter(|r| **r > 1.0 + RECONCILE_TOLERANCE)
                    .count(),
            })
            .collect()
    }

    /// Self time per layer within the operations whose top-level span is
    /// called `top`, averaged over those operations.
    pub fn layer_self_per_op(&self, top: &str) -> (usize, BTreeMap<&'static str, f64>) {
        let selfs = self.self_ms();
        let is_op = |op: usize| self.spans[op].parent.is_none() && self.spans[op].name == top;
        let ops = (0..self.spans.len()).filter(|&i| is_op(i)).count();
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, v) in self.spans.iter().zip(&selfs) {
            if is_op(s.op) {
                *by_layer.entry(s.layer()).or_default() += v;
            }
        }
        by_layer.values_mut().for_each(|v| *v /= ops.max(1) as f64);
        (ops, by_layer)
    }

    /// All spans as JSON, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos(),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

pub struct Reconciled {
    pub name: &'static str,
    pub ops: usize,
    pub median_ratio: f64,
    pub over: usize,
}
