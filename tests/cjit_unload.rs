//! Dropping a cjit executable must never unload its shared object.
//!
//! Every `-fopenmp` artifact pulls in libgomp, whose worker threads keep
//! spinning in libgomp's code after a parallel region ends. If dropping
//! the last executable unmapped the artifact (and with it libgomp), those
//! threads would fault. This test lives in its own binary so no other
//! test keeps an artifact loaded while the executables here are dropped.

use snowflake::prelude::*;

fn scale_group(k: f64) -> StencilGroup {
    StencilGroup::from(Stencil::new(
        Expr::read_at("x", &[0, 0]) * k + Expr::read_at("y", &[0, 0]),
        "y",
        RectDomain::interior(2),
    ))
}

fn grids() -> GridSet {
    let mut gs = GridSet::new();
    let mut x = Grid::new(&[64, 64]);
    x.fill_random(3, -1.0, 1.0);
    gs.insert("x", x);
    gs.insert("y", Grid::new(&[64, 64]));
    gs
}

#[test]
fn dropped_cjit_executables_leave_openmp_and_rayon_working() {
    if !CJitBackend::available() {
        eprintln!("skipping: no host C compiler for cjit");
        return;
    }
    // An OpenMP team even on a one-CPU host: libgomp reads this when the
    // first artifact loads it, and this binary runs no other test.
    std::env::set_var("OMP_NUM_THREADS", "2");
    let dir = std::env::temp_dir().join(format!("snowflake-cjit-unload-{}", std::process::id()));
    let cjit = CJitBackend::new().with_cache_dir(&dir);
    let mut jit = grids();
    let mut reference = grids();
    let shapes = jit.shapes();
    let seq = SequentialBackend::new();
    // Distinct coefficients give distinct C sources, hence distinct shared
    // objects; each is loaded, run on the OpenMP pool and dropped at once,
    // while libgomp's workers still spin.
    for k in 1..=4 {
        let group = scale_group(f64::from(k));
        cjit.compile(&group, &shapes)
            .unwrap()
            .run(&mut jit)
            .unwrap();
        seq.compile(&group, &shapes)
            .unwrap()
            .run(&mut reference)
            .unwrap();
    }
    // More OpenMP work through a fresh artifact, interleaved with
    // rayon-shim work on the omp preset.
    let group = scale_group(0.5);
    let last = cjit.compile(&group, &shapes).unwrap();
    let omp = OmpBackend::new().compile(&group, &shapes).unwrap();
    let mut pooled = reference.clone();
    for _ in 0..20 {
        last.run(&mut jit).unwrap();
        omp.run(&mut pooled).unwrap();
    }
    let diff = jit.get("y").unwrap().max_abs_diff(pooled.get("y").unwrap());
    assert!(diff < 1e-9, "cjit and omp diverge by {diff}");
    let _ = std::fs::remove_dir_all(&dir);
}
