//! The traced run: a `Backend`/`Executable` decorator that records spans
//! around every call into the wrapped backend.
//!
//! [`TracingBackend`] forwards every trait method to the real backend. Its
//! `compile` records a `compile <label>` span and returns a
//! [`TracedExecutable`], which records one span per operator run. Spans
//! (name, start, end, parent) stay in memory in a shared [`Tracer`]; the
//! worker derives per-op, per-level and self times from them at the end
//! and may write them out as a Chrome trace. In counting mode an op run
//! goes through the backend's `run_with_report` into a private report so
//! the benchmark can read phase, task, point and specialization counts per
//! op without enabling the solver's own metrics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use snowflake_backends::{Backend, Executable, LintStats, RunReport, TuneStats};
use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::GridSet;
use snowflake_ir::{lower_group, LowerOptions};

use crate::{computed_bytes, label_op, OpLabel};

/// One recorded interval. Ids start at 1; parent 0 means a root span.
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id.
    pub id: usize,
    /// Id of the span that was open when this one started (0 = none).
    pub parent: usize,
    /// Span name (`solve`, `setup`, an op label, `compile <op label>`).
    pub name: Arc<str>,
    /// Index into [`Tracer::ops`] for operator runs.
    pub op: Option<usize>,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch (equal to `start` while open).
    pub end: f64,
}

impl Span {
    /// Wall seconds covered.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A compiled plan op as the tracer knows it.
#[derive(Clone, Debug)]
pub struct TracedOp {
    /// Kind, level and text.
    pub label: OpLabel,
    /// Iteration points per run.
    pub points_per_run: u64,
    /// Computed DRAM bytes per run (see [`computed_bytes`]).
    pub bytes_per_run: u64,
}

/// Per-op work counts gathered in counting mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Runs counted.
    pub calls: u64,
    /// Barrier phases executed.
    pub phases: u64,
    /// Parallel-safe kernel dispatches.
    pub parallel_tasks: u64,
    /// Kernel executions on a specialized executor.
    pub spec_hits: u64,
    /// Kernel executions on the generic fallback.
    pub spec_misses: u64,
    /// Iteration points executed.
    pub points: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: Vec<TracedOp>,
    counts: Vec<OpCounts>,
    next_id: usize,
}

impl State {
    /// Record a span whose parent is the innermost open one.
    fn push(&mut self, name: Arc<str>, op: Option<usize>, start: f64, end: f64) -> usize {
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start,
            end,
        });
        id
    }
}

/// Shared in-memory span store.
pub struct Tracer {
    epoch: Instant,
    counting: AtomicBool,
    state: Mutex<State>,
}

impl Tracer {
    /// A fresh tracer; its epoch is now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            counting: AtomicBool::new(false),
            state: Mutex::new(State::default()),
        })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer poisoned by a panicking op")
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span named `name`; spans recorded until [`Tracer::end`] get
    /// it as their parent.
    pub fn begin(&self, name: &str) -> usize {
        let start = self.now();
        let mut state = self.state();
        let id = state.push(name.into(), None, start, start);
        state.open.push(id);
        id
    }

    /// Close the span `id` opened by [`Tracer::begin`].
    pub fn end(&self, id: usize) {
        let end = self.now();
        let mut state = self.state();
        if let Some(span) = state.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end = end;
        }
        state.open.retain(|&open| open != id);
    }

    /// Route op runs through `run_with_report` and count their work.
    pub fn set_counting(&self, on: bool) {
        // Relaxed: a mode flag set between solves on the solving thread.
        self.counting.store(on, Ordering::Relaxed);
    }

    fn counting(&self) -> bool {
        self.counting.load(Ordering::Relaxed)
    }

    /// Drain the recorded spans (open spans are kept).
    pub fn take_spans(&self) -> Vec<Span> {
        let mut state = self.state();
        let open = state.open.clone();
        let (keep, taken) = std::mem::take(&mut state.spans)
            .into_iter()
            .partition(|s| open.contains(&s.id));
        state.spans = keep;
        taken
    }

    /// Every op compiled through this tracer, by op index.
    pub fn ops(&self) -> Vec<TracedOp> {
        self.state().ops.clone()
    }

    /// Counting-mode totals, by op index.
    pub fn counts(&self) -> Vec<OpCounts> {
        self.state().counts.clone()
    }

    fn register(&self, op: TracedOp) -> usize {
        let mut state = self.state();
        state.ops.push(op);
        state.counts.push(OpCounts::default());
        state.ops.len() - 1
    }
}

/// Seconds of span `id` not covered by its direct children (children of
/// one parent run one after another, so their durations add).
pub fn self_seconds(spans: &[Span], id: usize) -> f64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else {
        return 0.0;
    };
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(Span::seconds)
        .sum();
    span.seconds() - children
}

/// Spans as a Chrome trace-event document (open it in Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    use crate::json::Json;
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            let mut e = Json::obj();
            e.set("name", &*s.name);
            e.set("ph", "X");
            e.set("ts", s.start * 1e6);
            e.set("dur", s.seconds() * 1e6);
            e.set("pid", 1u64);
            e.set("tid", 1u64);
            let mut args = Json::obj();
            args.set("id", s.id);
            args.set("parent", s.parent);
            e.set("args", args);
            e
        })
        .collect();
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events));
    doc.render()
}

/// Decorates a backend: every compile and every op run becomes a span.
pub struct TracingBackend {
    inner: Box<dyn Backend>,
    tracer: Arc<Tracer>,
    coarsest: usize,
}

impl TracingBackend {
    /// Wrap `inner`; `coarsest` is the solver's coarsest level, whose
    /// smooths are labelled as the bottom solve.
    pub fn new(inner: Box<dyn Backend>, tracer: Arc<Tracer>, coarsest: usize) -> Self {
        TracingBackend {
            inner,
            tracer,
            coarsest,
        }
    }
}

impl Backend for TracingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        let label = label_op(group, self.coarsest).ok_or_else(|| {
            CoreError::Backend(format!(
                "no benchmark label for the group over {:?}",
                group.grids()
            ))
        })?;
        let start = self.tracer.now();
        let compiled = self.inner.compile(group, shapes);
        let end = self.tracer.now();
        {
            let mut state = self.tracer.state();
            let name: Arc<str> = format!("compile {}", label.text).into();
            state.push(name, None, start, end);
        }
        let inner = compiled?;
        // Lowering again for the byte model happens outside the span.
        let lowered = lower_group(group, shapes, &self.inner.lower_options())?;
        let points: Vec<(String, u64)> = lowered
            .kernels
            .iter()
            .map(|k| (k.name.clone(), k.num_points()))
            .collect();
        let name: Arc<str> = label.text.as_str().into();
        let op = self.tracer.register(TracedOp {
            label,
            points_per_run: inner.points_per_run(),
            bytes_per_run: computed_bytes(group, &points),
        });
        Ok(Box::new(TracedExecutable {
            inner,
            tracer: Arc::clone(&self.tracer),
            op,
            name,
        }))
    }

    fn disk_cache_stats(&self) -> (u64, u64) {
        self.inner.disk_cache_stats()
    }

    fn tune_stats(&self) -> TuneStats {
        self.inner.tune_stats()
    }

    fn lint_stats(&self) -> LintStats {
        self.inner.lint_stats()
    }

    fn lower_options(&self) -> LowerOptions {
        self.inner.lower_options()
    }
}

/// An executable whose every run is recorded as a span of its op.
pub struct TracedExecutable {
    inner: Box<dyn Executable>,
    tracer: Arc<Tracer>,
    op: usize,
    /// The op's label, shared by all its spans.
    name: Arc<str>,
}

impl TracedExecutable {
    fn record(&self, start: f64, report: Option<&RunReport>) {
        let end = self.tracer.now();
        let mut state = self.tracer.state();
        state.push(Arc::clone(&self.name), Some(self.op), start, end);
        if let Some(r) = report {
            let c = &mut state.counts[self.op];
            c.calls += 1;
            c.phases += r.phases.len() as u64;
            c.parallel_tasks += r.kernels.parallel_tasks;
            c.spec_hits += r.spec.kernels_specialized;
            c.spec_misses += r.spec.kernels_interpreted;
            c.points += r.kernels.points;
        }
    }
}

impl Executable for TracedExecutable {
    fn run(&self, grids: &mut GridSet) -> Result<()> {
        if self.tracer.counting() {
            let mut report = RunReport::new();
            let start = self.tracer.now();
            let result = self.inner.run_with_report(grids, &mut report);
            self.record(start, Some(&report));
            return result;
        }
        let start = self.tracer.now();
        let result = self.inner.run(grids);
        self.record(start, None);
        result
    }

    fn points_per_run(&self) -> u64 {
        self.inner.points_per_run()
    }

    fn run_with_report(&self, grids: &mut GridSet, report: &mut RunReport) -> Result<()> {
        let start = self.tracer.now();
        let result = self.inner.run_with_report(grids, report);
        self.record(start, None);
        result
    }
}
