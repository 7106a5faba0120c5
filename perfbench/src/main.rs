//! Benchmark worker: one implementation of one workload, in its own
//! process, driven over stdin/stdout by `perfbench/run.py`.
//!
//! ```text
//! perfbench-worker serve --workload W --impl I --state DIR [--trace]
//!     then one command per stdin line, one JSON reply per stdout line:
//!     setup | warmup | solve | done
//! perfbench-worker stream
//! perfbench-worker forkjoin
//! ```
//!
//! `run.py` keeps one `serve` process per implementation and sends the
//! commands round-robin, so only one solve runs at a time while every
//! implementation samples the same stretch of machine time. A crash or
//! hang of this process costs that one implementation, not the run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hpgmg::{HandSolver, SnowSolver};
use rayon::prelude::*;
use snowflake_analysis::LintConfig;
use snowflake_backends::codegen_c::emit_c;
use snowflake_backends::specialize::specialize_lowered;
use snowflake_backends::{backend_from_name, verify_op, Backend, BackendOptions, CJitBackend};
use snowflake_core::{CoreError, Result};
use snowflake_ir::lower_group;
use snowflake_perfbench::json::Json;
use snowflake_perfbench::trace::{
    chrome_trace, self_seconds, OpCounts, Span, TracedOp, Tracer, TracingBackend,
};
use snowflake_perfbench::{level_bucket, OpKind, Workload};

/// STREAM dot arrays: 2 x 128 MiB, fixed so runs compare. Where the LLC
/// is larger than a quarter of that, the 4x-LLC rule is not met; `run.py`
/// records the array size next to the LLC size.
const STREAM_ELEMS: usize = 1 << 24;
const STREAM_REPS: usize = 5;
/// Empty fork/join rounds timed by `forkjoin` (median reported).
const FORKJOIN_REPS: usize = 2000;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench-worker: {msg}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-worker: {msg}");
    std::process::exit(1);
}

/// `--key value` / `--flag` argument bag.
struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                usage(&format!("unexpected argument {:?}", args[i]));
            };
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    flags.push(key.to_string());
                    i += 1;
                }
            }
        }
        Args { values, flags }
    }

    fn str(&self, key: &str) -> &str {
        self.values
            .get(key)
            .map_or_else(|| usage(&format!("--{key} is required")), String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 if unknown.
fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A residual history as exact bit patterns, so `run.py` can compare
/// implementations bitwise.
fn history_bits(norms: &[f64]) -> Json {
    Json::Arr(
        norms
            .iter()
            .map(|x| Json::Str(format!("{:016x}", x.to_bits())))
            .collect(),
    )
}

fn reply(out: &Json) {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let ok = writeln!(lock, "{}", out.render()).and_then(|()| lock.flush());
    if ok.is_err() {
        fail("run.py went away");
    }
}

/// Print the last reply and leave without running destructors, so loaded
/// JIT artifacts are never unloaded while OpenMP workers are parked
/// (teardown is not part of any measurement).
fn finish(out: &Json) -> ! {
    reply(out);
    std::process::exit(0);
}

fn backend_error(msg: impl Into<String>) -> CoreError {
    CoreError::Backend(msg.into())
}

/// Where one solver construction keeps its cjit artifacts: the shared
/// warm store, or a fresh empty directory when `cold`
/// (removed again once the construction is over; loaded artifacts stay
/// mapped).
struct CacheDirs {
    root: PathBuf,
    cold: bool,
}

impl CacheDirs {
    fn warm(state: &Path) -> CacheDirs {
        CacheDirs {
            root: state.join("warm-cache"),
            cold: false,
        }
    }

    fn cold(state: &Path, imp: &str) -> CacheDirs {
        let root = state.join(format!("cold-{imp}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        CacheDirs { root, cold: true }
    }

    /// The backend `imp` over these directories; `checked` adds the static
    /// verifier and the linter to its compile chain.
    fn backend(&self, imp: &str, checked: bool) -> Result<Box<dyn Backend>> {
        let opts = BackendOptions::default()
            .with_verify(checked)
            .with_lint(checked)
            .with_cache_dir(self.root.join("cjit"));
        backend_from_name(imp, &opts)
    }
}

impl Drop for CacheDirs {
    fn drop(&mut self) {
        if self.cold {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

fn build(wl: &Workload, backend: Box<dyn Backend>) -> Result<SnowSolver> {
    SnowSolver::new(wl.problem(), backend)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = black_box(f());
    (value, t0.elapsed().as_secs_f64())
}

/// The traced side of a `--trace` worker.
struct TracedSide {
    tracer: Arc<Tracer>,
    solver: SnowSolver,
    ops: Vec<TracedOp>,
    counts: Vec<OpCounts>,
}

enum Subject {
    Hand(Option<HandSolver>),
    /// `ran` turns true at the first solve; a later set-up would drop a
    /// solver whose OpenMP pool is live, so it is refused.
    Snow {
        solver: Option<SnowSolver>,
        setups: usize,
        ran: bool,
    },
    Traced {
        traced: Option<Box<TracedSide>>,
        plain: Option<SnowSolver>,
    },
}

struct Worker {
    wl: Workload,
    imp: String,
    state: PathBuf,
    subject: Subject,
}

fn no_setup() -> CoreError {
    backend_error("command before `setup`")
}

impl Worker {
    fn setup(&mut self) -> Result<Json> {
        let (wl, imp, state) = (self.wl, self.imp.as_str(), self.state.as_path());
        let mut out = Json::obj();
        match &mut self.subject {
            Subject::Hand(solver) => {
                drop(solver.take());
                let (built, secs) = timed(|| HandSolver::new(wl.problem()));
                *solver = Some(built);
                out.set("setup_s", secs);
            }
            Subject::Snow {
                solver,
                setups,
                ran,
            } => {
                if *ran {
                    return Err(backend_error("set-up after a solve"));
                }
                let dirs = CacheDirs::warm(state);
                if *setups == 0 && imp == "cjit" {
                    // Fill the shared artifact store (only cjit has one),
                    // so timed set-ups find it warm.
                    drop(build(&wl, dirs.backend(imp, false)?)?);
                }
                // Solvers dropped here never ran: no OpenMP pool exists.
                drop(solver.take());
                let backend = dirs.backend(imp, false)?;
                let (built, secs) = timed(|| build(&wl, backend));
                let built = built?;
                let points: Vec<u64> = (0..built.plan_ops())
                    .map(|op| built.plan().points_per_run(op))
                    .collect::<Result<_>>()?;
                out.set("points_per_op", points);
                out.set("setup_s", secs);
                *solver = Some(built);
                *setups += 1;
            }
            Subject::Traced { traced, plain } => {
                if traced.is_some() {
                    return Err(backend_error("a traced worker sets up once"));
                }
                // The traced build runs the whole compile pipeline cold:
                // verify + lint on, empty cjit artifact store.
                let tracer = Tracer::new();
                let dirs = CacheDirs::cold(state, imp);
                let backend = Box::new(TracingBackend::new(
                    dirs.backend(imp, true)?,
                    Arc::clone(&tracer),
                    wl.coarsest_level(),
                ));
                let span = tracer.begin("setup");
                let (solver, secs) = timed(|| build(&wl, backend));
                tracer.end(span);
                let solver = solver?;
                drop(dirs);
                let compile_s: f64 = tracer
                    .take_spans()
                    .iter()
                    .filter(|s| s.name.starts_with("compile "))
                    .map(Span::seconds)
                    .sum();
                let cache = solver.plan_cache_stats();
                out.set("setup_s", secs);
                out.set("compile_backend_s", compile_s);
                out.set("levels_build_s", secs - solver.plan_build_seconds());
                out.set("disk_hits", cache.disk_hits);
                out.set("disk_misses", cache.disk_misses);
                out.set("plan_ops", solver.plan_ops());
                let ops = tracer.ops();
                out.set(
                    "labels",
                    ops.iter().map(|o| o.label.text.clone()).collect::<Vec<_>>(),
                );
                *plain = Some(build(&wl, CacheDirs::warm(state).backend(imp, false)?)?);
                *traced = Some(Box::new(TracedSide {
                    tracer,
                    solver,
                    ops,
                    counts: Vec::new(),
                }));
            }
        }
        Ok(out)
    }

    fn warmup(&mut self) -> Result<Json> {
        let opts = self.wl.solve_options();
        let cycles = self.wl.cycles as f64;
        let mut out = Json::obj();
        match &mut self.subject {
            Subject::Hand(solver) => {
                black_box(solver.as_mut().ok_or_else(no_setup)?.solve(opts));
            }
            Subject::Snow { solver, ran, .. } => {
                let solver = solver.as_mut().ok_or_else(no_setup)?;
                *ran = true;
                black_box(solver.solve(opts)?);
            }
            Subject::Traced { traced, plain } => {
                let (Some(side), Some(plain)) = (traced.as_mut(), plain.as_mut()) else {
                    return Err(no_setup());
                };
                black_box(plain.solve(opts)?);
                black_box(side.solver.solve(opts)?);
                // One counting solve through `run_with_report`.
                side.tracer.set_counting(true);
                let counted = side.solver.solve(opts);
                side.tracer.set_counting(false);
                out.set("counted_history", history_bits(&counted?));
                side.tracer.take_spans();
                side.counts = side.tracer.counts();
                let per_cycle = |n: u64| n as f64 / cycles;
                let pairs = || side.counts.iter().zip(&side.ops);
                let total = |f: fn(&OpCounts) -> u64| side.counts.iter().map(f).sum::<u64>();
                let mut calls = Json::obj();
                for kind in OpKind::ALL {
                    let n = pairs()
                        .filter(|(_, o)| o.label.kind == kind)
                        .map(|(c, _)| c.calls)
                        .sum();
                    calls.set(kind.name(), per_cycle(n));
                }
                out.set("op_calls_per_cycle", calls);
                let by_plan = pairs().map(|(c, o)| c.calls * o.points_per_run).sum();
                out.set("points_per_cycle", per_cycle(by_plan));
                out.set("points_counted_per_cycle", per_cycle(total(|c| c.points)));
                out.set("phases_per_cycle", per_cycle(total(|c| c.phases)));
                out.set(
                    "parallel_tasks_per_cycle",
                    per_cycle(total(|c| c.parallel_tasks)),
                );
                out.set("spec_hits", total(|c| c.spec_hits));
                out.set("spec_misses", total(|c| c.spec_misses));
                let smooth_l0_bytes: u64 = pairs()
                    .filter(|(_, o)| o.label.kind == OpKind::Smooth && o.label.level == 0)
                    .map(|(c, o)| c.calls * o.bytes_per_run)
                    .sum();
                out.set("smooth_l0_bytes", smooth_l0_bytes);
            }
        }
        Ok(out)
    }

    fn solve(&mut self) -> Result<Json> {
        let opts = self.wl.solve_options();
        let mut out = Json::obj();
        match &mut self.subject {
            Subject::Hand(solver) => {
                let solver = solver.as_mut().ok_or_else(no_setup)?;
                let (norms, secs) = timed(|| solver.solve(opts));
                out.set("s", secs);
                out.set("h", history_bits(&norms));
            }
            Subject::Snow { solver, ran, .. } => {
                let solver = solver.as_mut().ok_or_else(no_setup)?;
                *ran = true;
                let (norms, secs) = timed(|| solver.solve(opts));
                out.set("s", secs);
                out.set("h", history_bits(&norms?));
            }
            Subject::Traced { traced, plain } => {
                let (Some(side), Some(plain)) = (traced.as_mut(), plain.as_mut()) else {
                    return Err(no_setup());
                };
                // Traced and undecorated solves alternate, so drift on a
                // shared host hits both sides of the overhead equally.
                let span = side.tracer.begin("solve");
                let (norms, secs) = timed(|| side.solver.solve(opts));
                side.tracer.end(span);
                out.set("ts", secs);
                out.set("th", history_bits(&norms?));
                let (norms, secs) = timed(|| plain.solve(opts));
                out.set("s", secs);
                out.set("h", history_bits(&norms?));
            }
        }
        Ok(out)
    }

    fn done(&mut self) -> Result<Json> {
        let mut out = Json::obj();
        if let Subject::Traced {
            traced: Some(side), ..
        } = &self.subject
        {
            let spans = side.tracer.take_spans();
            let split = split_solves(&spans, &side.ops);
            let mut kind_s = Json::obj();
            for (k, v) in &split.kind_s {
                kind_s.set(k.name(), median(v));
            }
            out.set("op_s", kind_s);
            let mut level_s = Json::obj();
            for (b, v) in &split.level_s {
                level_s.set(b, median(v));
            }
            out.set("level_s", level_s);
            out.set("hpgmg_self_s", median(&split.self_s));
            out.set("bottom_call_s", median(&split.bottom_call_s));
            out.set("smooth_l0_s", median(&split.smooth_l0_s));
            let path = self
                .state
                .join(format!("trace-{}-{}.json", self.wl.name, self.imp));
            std::fs::write(&path, chrome_trace(&spans))
                .map_err(|e| backend_error(format!("writing {}: {e}", path.display())))?;
            // The stage functions are backend-independent: timed once, by
            // the seq worker.
            if self.imp == "seq" {
                out.set("compile_stage_s", compile_stages(&side.solver)?);
            }
        }
        out.set("vmhwm_kb", vmhwm_kb());
        Ok(out)
    }
}

/// Per-solve aggregates of the op spans under each `solve` span.
#[derive(Default)]
struct SolveSplit {
    kind_s: BTreeMap<OpKind, Vec<f64>>,
    level_s: BTreeMap<&'static str, Vec<f64>>,
    smooth_l0_s: Vec<f64>,
    self_s: Vec<f64>,
    bottom_call_s: Vec<f64>,
}

fn split_solves(spans: &[Span], ops: &[TracedOp]) -> SolveSplit {
    let mut split = SolveSplit::default();
    for solve in spans.iter().filter(|s| &*s.name == "solve") {
        let mut kind: BTreeMap<OpKind, f64> = OpKind::ALL.iter().map(|&k| (k, 0.0)).collect();
        let mut level: BTreeMap<&'static str, f64> =
            ["L0", "L1", "L2plus"].iter().map(|&b| (b, 0.0)).collect();
        let mut smooth_l0 = 0.0;
        for span in spans.iter().filter(|s| s.parent == solve.id) {
            let Some(op) = span.op else { continue };
            let label = &ops[op].label;
            *kind.get_mut(&label.kind).expect("every kind") += span.seconds();
            *level
                .get_mut(level_bucket(label.level))
                .expect("every bucket") += span.seconds();
            if label.kind == OpKind::Smooth && label.level == 0 {
                smooth_l0 += span.seconds();
            }
            if label.kind == OpKind::Bottom {
                split.bottom_call_s.push(span.seconds());
            }
        }
        for (k, v) in kind {
            split.kind_s.entry(k).or_default().push(v);
        }
        for (b, v) in level {
            split.level_s.entry(b).or_default().push(v);
        }
        split.smooth_l0_s.push(smooth_l0);
        split.self_s.push(self_seconds(spans, solve.id));
    }
    split
}

/// Time each compile-pipeline stage over the plan's descriptors, by
/// calling the stage functions directly; the median of three passes.
fn compile_stages(solver: &SnowSolver) -> Result<Json> {
    let lower_opts = solver.plan().lower_options();
    let lint_cfg = LintConfig::default();
    let mut passes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..3 {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (group, shapes) in solver.plan().descriptors() {
            let (lowered, t) = timed(|| lower_group(group, shapes, &lower_opts));
            let mut lowered = lowered?;
            *sums.entry("lower").or_default() += t;
            let (_, t) = timed(|| specialize_lowered(&mut lowered));
            *sums.entry("specialize").or_default() += t;
            let (_, t) = timed(|| emit_c(&lowered, "perfbench_kernel"));
            *sums.entry("emit_c").or_default() += t;
            let (verdict, t) = timed(|| verify_op(group, shapes, &lower_opts));
            *sums.entry("verify").or_default() += t;
            if let Err(diags) = verdict {
                return Err(backend_error(format!(
                    "verify_op refused a plan op: {} diagnostic(s)",
                    diags.len()
                )));
            }
            let (linted, t) = timed(|| snowflake_analysis::lint_group(group, shapes, &lint_cfg));
            linted?;
            *sums.entry("lint").or_default() += t;
        }
        for (stage, s) in sums {
            passes.entry(stage).or_default().push(s);
        }
    }
    let mut stages = Json::obj();
    for (stage, v) in passes {
        stages.set(stage, median(&v));
    }
    Ok(stages)
}

fn cmd_serve(args: &Args) {
    let wl = Workload::by_name(args.str("workload"))
        .unwrap_or_else(|| usage(&format!("unknown workload {:?}", args.str("workload"))));
    let imp = args.str("impl").to_string();
    let state = PathBuf::from(args.str("state"));
    std::fs::create_dir_all(&state)
        .unwrap_or_else(|e| fail(&format!("creating {}: {e}", state.display())));
    let subject = match imp.as_str() {
        "hand" => Subject::Hand(None),
        "seq" | "omp" | "oclsim" | "cjit" if args.flag("trace") => Subject::Traced {
            traced: None,
            plain: None,
        },
        "seq" | "omp" | "oclsim" | "cjit" => Subject::Snow {
            solver: None,
            setups: 0,
            ran: false,
        },
        other => usage(&format!("unknown implementation {other:?}")),
    };
    let mut worker = Worker {
        wl,
        imp,
        state,
        subject,
    };
    let mut hello = Json::obj();
    hello.set("impl", worker.imp.as_str());
    hello.set("dof", wl.dof());
    hello.set("cycles", wl.cycles);
    if worker.imp == "cjit" && !CJitBackend::available() {
        hello.set(
            "skipped",
            "no working C compiler (CJitBackend::available() is false)",
        );
        finish(&hello);
    }
    reply(&hello);
    for line in std::io::stdin().lock().lines() {
        let line = line.unwrap_or_else(|e| fail(&format!("reading a command: {e}")));
        let result = match line.trim() {
            "setup" => worker.setup(),
            "warmup" => worker.warmup(),
            "solve" => worker.solve(),
            "done" => worker.done().map(|out| finish(&out)),
            other => usage(&format!("unknown command {other:?}")),
        };
        match result {
            Ok(out) => reply(&out),
            Err(e) => fail(&format!("{} on {}: {e}", worker.imp, wl.name)),
        }
    }
    fail("stdin closed before `done`");
}

fn cmd_stream() {
    let r = roofline::stream::measure_dot_bandwidth(STREAM_ELEMS, STREAM_REPS);
    let mut out = Json::obj();
    out.set("stream_gbs", r.gbs());
    out.set("elems", r.n);
    out.set("array_bytes", r.n * std::mem::size_of::<f64>());
    out.set("checksum", r.checksum);
    finish(&out);
}

fn cmd_forkjoin() {
    let threads = rayon::current_num_threads();
    let mut samples = Vec::with_capacity(FORKJOIN_REPS);
    for _ in 0..FORKJOIN_REPS {
        let ((), secs) = timed(|| {
            (0..threads).into_par_iter().for_each(|i| {
                black_box(i);
            })
        });
        samples.push(secs * 1e6);
    }
    let mut out = Json::obj();
    out.set("forkjoin_us", median(&samples));
    out.set("threads", threads);
    finish(&out);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage("expected a command: serve | stream | forkjoin");
    };
    let args = Args::parse(rest);
    match cmd.as_str() {
        "serve" => cmd_serve(&args),
        "stream" => cmd_stream(),
        "forkjoin" => cmd_forkjoin(),
        other => usage(&format!("unknown command {other:?}")),
    }
}
