//! The C JIT backend: the paper's actual micro-compiler pipeline.
//!
//! Snowflake renders the analyzed stencil group into C99 with OpenMP
//! pragmas (see [`crate::codegen_c`]), hands it to the system C compiler
//! (`cc -O3 -fPIC -shared`, plus `-fopenmp` when available), loads the
//! shared object, and wraps the entry point in an [`Executable`] — the
//! Rust equivalent of the paper's GCC + Python-FFI flow.
//!
//! The backend degrades gracefully: [`CJitBackend::available`] reports
//! whether a working C compiler exists, and `compile` returns a
//! `CoreError::Backend` otherwise, so callers (benchmarks, examples) can
//! fall back to the pure-Rust backends.
//!
//! ## Persistent artifacts
//!
//! Every successful compile is persisted in the [`ArtifactStore`] as
//! `cjit_<hash>_<len>.so`, the hash taken over (compiler, flags, OpenMP
//! availability, emitted C99) — not over the program key, so any codegen
//! change names a new artifact instead of serving a stale one. A later
//! compile of the same source — in this process or any future one —
//! `dlopen`s the stored `.so` and skips `cc` entirely; one that will not
//! load is evicted and rebuilt. Hit/miss counters surface as
//! `disk_hits`/`disk_misses` in [`crate::metrics::CacheStats`].

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use snowflake_core::{CoreError, Result, ShapeMap, StencilGroup};
use snowflake_grid::GridSet;
use snowflake_ir::{lower_group, LowerOptions, Lowered};

use crate::codegen_c::emit_c;
use crate::metrics::RunReport;
use crate::store::{self, ArtifactStore};
use crate::{check_and_ptrs, Backend, Executable};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// JIT-compile generated C through the system compiler.
#[derive(Clone, Debug)]
pub struct CJitBackend {
    /// Lowering options.
    pub options: LowerOptions,
    /// C compiler binary (default `cc`, override with `$SNOWFLAKE_CC`).
    pub cc: String,
    /// Extra optimization flags.
    pub opt_flags: Vec<String>,
    /// Where compiled shared objects persist across processes.
    pub store: ArtifactStore,
    /// Compiles served from the artifact cache (shared across clones).
    disk_hits: Arc<AtomicU64>,
    /// Compiles that invoked the C compiler (shared across clones).
    disk_misses: Arc<AtomicU64>,
}

impl Default for CJitBackend {
    fn default() -> Self {
        CJitBackend {
            options: LowerOptions::default(),
            cc: std::env::var("SNOWFLAKE_CC").unwrap_or_else(|_| "cc".to_string()),
            // `-ffp-contract=off` pins the no-FMA evaluation the bitwise
            // specialization contract assumes (gcc already disables
            // contraction under `-std=c99`; clang does not).
            opt_flags: vec![
                "-O3".to_string(),
                "-march=native".to_string(),
                "-ffp-contract=off".to_string(),
            ],
            store: ArtifactStore::default(),
            disk_hits: Arc::new(AtomicU64::new(0)),
            disk_misses: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl CJitBackend {
    /// Backend with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the C compiler binary (builder style).
    pub fn with_cc(mut self, cc: impl Into<String>) -> Self {
        self.cc = cc.into();
        self
    }

    /// Replace the optimization flag set (builder style).
    pub fn with_opt_flags(mut self, flags: Vec<String>) -> Self {
        self.opt_flags = flags;
        self
    }

    /// Root the artifact store at `dir` (builder style).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = ArtifactStore::new(Some(dir.into()));
        self
    }

    /// `(hits, misses)` of the persistent artifact cache, accumulated
    /// across this backend and all its clones.
    pub fn disk_stats(&self) -> (u64, u64) {
        (
            self.disk_hits.load(Ordering::Relaxed),
            self.disk_misses.load(Ordering::Relaxed),
        )
    }

    /// Is a working C compiler present on this machine?
    pub fn available() -> bool {
        *availability().get_or_init(|| {
            Command::new(std::env::var("SNOWFLAKE_CC").unwrap_or_else(|_| "cc".to_string()))
                .arg("--version")
                .output()
                .map(|o| o.status.success())
                .unwrap_or(false)
        })
    }

    /// Does the compiler accept `-fopenmp` (checked once per process)?
    pub fn openmp_available(&self) -> bool {
        *openmp_flag().get_or_init(|| {
            let dir = std::env::temp_dir();
            let id = COUNTER.fetch_add(1, Ordering::Relaxed);
            let src = dir.join(format!("snowflake_omp_probe_{}_{id}.c", std::process::id()));
            let out = dir.join(format!(
                "snowflake_omp_probe_{}_{id}.so",
                std::process::id()
            ));
            let ok = std::fs::write(
                &src,
                "#include <omp.h>\nint snowflake_probe(void){return omp_get_max_threads();}\n",
            )
            .is_ok()
                && Command::new(&self.cc)
                    .args(["-fopenmp", "-shared", "-fPIC", "-o"])
                    .arg(&out)
                    .arg(&src)
                    .output()
                    .map(|o| o.status.success())
                    .unwrap_or(false);
            let _ = std::fs::remove_file(&src);
            let _ = std::fs::remove_file(&out);
            ok
        })
    }

    /// Store name of the artifact built from `source`: a content hash of
    /// everything that determines its bytes — the compiler, its flags
    /// (including `-fopenmp` availability) and the emitted source.
    fn artifact_name(&self, source: &str) -> String {
        let openmp = self.openmp_available().then_some("-fopenmp");
        let parts = std::iter::once(self.cc.as_str())
            .chain(self.opt_flags.iter().map(String::as_str))
            .chain(openmp)
            .chain([source]);
        let hash = store::hash(parts.map(str::as_bytes));
        format!("cjit_{hash:016x}_{}.so", source.len())
    }

    fn build(&self, source: &str) -> Result<libloading::Library> {
        let name = self.artifact_name(source);
        let cached = self.store.path(&name);
        if cached.exists() {
            // SAFETY: the artifact was produced by a previous run of this
            // same pipeline from identical source and flags (the content
            // hash is the file name); its only export is the kernel entry
            // point.
            if let Ok(lib) = unsafe { libloading::Library::new(&cached) } {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(lib);
            }
            // Unloadable (torn disk, wrong arch, …): evict and rebuild.
            let _ = std::fs::remove_file(&cached);
        }
        self.disk_misses.fetch_add(1, Ordering::Relaxed);

        let dir = std::env::temp_dir();
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let stem = format!("snowflake_jit_{}_{id}", std::process::id());
        let c_path: PathBuf = dir.join(format!("{stem}.c"));
        let so_path: PathBuf = dir.join(format!("{stem}.so"));
        std::fs::write(&c_path, source)
            .map_err(|e| CoreError::Backend(format!("writing JIT source: {e}")))?;

        let mut cmd = Command::new(&self.cc);
        cmd.args(&self.opt_flags)
            .args(["-std=c99", "-fPIC", "-shared"]);
        if self.openmp_available() {
            cmd.arg("-fopenmp");
        }
        cmd.arg("-o").arg(&so_path).arg(&c_path);
        let output = cmd
            .output()
            .map_err(|e| CoreError::Backend(format!("running {}: {e}", self.cc)))?;
        if !output.status.success() {
            let _ = std::fs::remove_file(&c_path);
            return Err(CoreError::Backend(format!(
                "C compilation failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            )));
        }
        // Persist for future processes; IO failure only costs the reuse.
        let _ = std::fs::read(&so_path).and_then(|so| self.store.put(&name, &so));
        // SAFETY: the library was just produced by the C compiler from our
        // generated source; its only export is the kernel entry point.
        let lib = unsafe { libloading::Library::new(&so_path) }
            .map_err(|e| CoreError::Backend(format!("dlopen: {e}")))?;
        // The file can be unlinked once mapped (POSIX semantics).
        let _ = std::fs::remove_file(&c_path);
        let _ = std::fs::remove_file(&so_path);
        Ok(lib)
    }
}

fn availability() -> &'static OnceLock<bool> {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    &AVAILABLE
}

fn openmp_flag() -> &'static OnceLock<bool> {
    static OPENMP: OnceLock<bool> = OnceLock::new();
    &OPENMP
}

type EntryFn = unsafe extern "C" fn(*mut *mut f64);

struct CJitExecutable {
    /// Keeps the shared object mapped; `entry` points into it.
    _lib: libloading::Library,
    entry: EntryFn,
    lowered: Lowered,
}

impl Backend for CJitBackend {
    fn name(&self) -> &'static str {
        "cjit"
    }

    fn disk_cache_stats(&self) -> (u64, u64) {
        self.disk_stats()
    }

    fn lower_options(&self) -> LowerOptions {
        self.options.clone()
    }

    fn compile(&self, group: &StencilGroup, shapes: &ShapeMap) -> Result<Box<dyn Executable>> {
        if !Self::available() {
            return Err(CoreError::Backend(format!(
                "C compiler {:?} not available",
                self.cc
            )));
        }
        let mut lowered = lower_group(group, shapes, &self.options)?;
        // Specialized kernels render closed-form value expressions plus
        // `#pragma omp simd` inner loops (see `crate::specialize`).
        crate::specialize::specialize_lowered(&mut lowered);
        let source = emit_c(&lowered, "snowflake_run");
        let lib = self.build(&source)?;
        // SAFETY: the symbol exists in the generated translation unit with
        // exactly this signature.
        let entry: EntryFn = unsafe {
            *lib.get::<EntryFn>(b"snowflake_run\0")
                .map_err(|e| CoreError::Backend(format!("dlsym: {e}")))?
        };
        Ok(Box::new(CJitExecutable {
            _lib: lib,
            entry,
            lowered,
        }))
    }
}

impl Executable for CJitExecutable {
    fn run(&self, grids: &mut GridSet) -> Result<()> {
        let (mut ptrs, _lens) = check_and_ptrs(&self.lowered, grids)?;
        // SAFETY: pointers are valid for the duration of the call; the
        // generated code only touches indices proven in bounds, with the
        // OpenMP schedule mirroring the analysis verdicts.
        unsafe { (self.entry)(ptrs.as_mut_ptr()) };
        Ok(())
    }

    fn run_with_report(&self, grids: &mut GridSet, report: &mut RunReport) -> Result<()> {
        // The entry point is an opaque native call — the C code contains
        // the barriers, so per-phase timing is unobservable from here. The
        // whole run is reported as one phase; dispatch counters come
        // statically from the lowered schedule the C was generated from.
        report.set_backend("cjit");
        let t0 = std::time::Instant::now();
        self.run(grids)?;
        let dt = t0.elapsed().as_secs_f64();
        report.record_phase(0, dt, self.lowered.phases.len() as u64);
        for kernel in &self.lowered.kernels {
            let dispatches = kernel.regions.len() as u64;
            report.kernels.tiles += dispatches;
            if kernel.parallel_safe {
                report.kernels.parallel_tasks += dispatches;
            } else {
                report.kernels.sequential_tasks += dispatches;
            }
        }
        report.kernels.points += self.points_per_run();
        report.spec += crate::specialize::spec_stats_of(&self.lowered);
        report.finish_run(dt);
        Ok(())
    }

    fn points_per_run(&self) -> u64 {
        self.lowered.num_points()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialBackend;
    use snowflake_core::{weights2, Component, DomainUnion, Expr, RectDomain, Stencil};
    use snowflake_grid::Grid;

    fn require_cc() -> bool {
        if !CJitBackend::available() {
            eprintln!("skipping: no C compiler");
            return false;
        }
        true
    }

    #[test]
    fn cjit_matches_seq_on_laplacian() {
        if !require_cc() {
            return;
        }
        let n = 16;
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let mut a = GridSet::new();
        let mut x = Grid::new(&[n, n]);
        x.fill_random(42, -1.0, 1.0);
        a.insert("x", x);
        a.insert("y", Grid::new(&[n, n]));
        let mut b = a.clone();
        let shapes = a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        CJitBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        assert_eq!(a.get("y").unwrap().max_abs_diff(b.get("y").unwrap()), 0.0);
    }

    #[test]
    fn cjit_runs_in_place_red_black_with_variable_coefficients() {
        if !require_cc() {
            return;
        }
        let n = 14;
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let ax = Expr::read_at("beta", &[1, 0]) * (m(1, 0) - m(0, 0))
            - Expr::read_at("beta", &[0, 0]) * (m(0, 0) - m(-1, 0));
        let update = m(0, 0) + 0.3 * (Expr::read_at("rhs", &[0, 0]) - ax);
        let (red, black) = DomainUnion::red_black(2);
        let group = StencilGroup::new()
            .with(Stencil::new(update.clone(), "mesh", red))
            .with(Stencil::new(update, "mesh", black));
        let mut a = GridSet::new();
        for (name, seed) in [("mesh", 1u64), ("rhs", 2), ("beta", 3)] {
            let mut g = Grid::new(&[n, n]);
            g.fill_random(seed, 0.5, 1.5);
            a.insert(name, g);
        }
        let mut b = a.clone();
        let shapes = a.shapes();
        SequentialBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut a)
            .unwrap();
        CJitBackend::new()
            .compile(&group, &shapes)
            .unwrap()
            .run(&mut b)
            .unwrap();
        let diff = a.get("mesh").unwrap().max_abs_diff(b.get("mesh").unwrap());
        assert!(diff < 1e-13, "cjit deviates by {diff}");
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        if !require_cc() {
            return;
        }
        let group = StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]) * 0.5,
            "y",
            RectDomain::interior(2),
        ));
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[8, 8]);
        x.fill_random(5, 0.0, 1.0);
        gs.insert("x", x);
        gs.insert("y", Grid::new(&[8, 8]));
        let exe = CJitBackend::new().compile(&group, &gs.shapes()).unwrap();
        exe.run(&mut gs).unwrap();
        let first = gs.get("y").unwrap().clone();
        exe.run(&mut gs).unwrap();
        assert_eq!(gs.get("y").unwrap().max_abs_diff(&first), 0.0);
    }
}
