//! An empty `$SNOWFLAKE_CACHE_DIR` counts as unset.
//!
//! Its own test binary, because it sets the process environment and the
//! working directory. An empty store directory used to name cjit artifacts
//! without a `/`: they landed in the working directory, and `dlopen`
//! looked them up on the library path instead, so every later compile
//! evicted the artifact and ran `cc` again.

use snowflake::backends::{Backend, CJitBackend};
use snowflake::core::{Expr, RectDomain, Stencil, StencilGroup};
use snowflake::grid::{Grid, GridSet};

#[test]
fn empty_cache_dir_env_falls_back_to_the_default_store() {
    if !CJitBackend::available() {
        eprintln!("(skipped: no C compiler)");
        return;
    }
    let cwd = std::env::temp_dir().join(format!("snowflake-empty-env-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    std::env::set_current_dir(&cwd).unwrap();
    // This binary's only test: no other thread reads the environment.
    std::env::set_var("SNOWFLAKE_CACHE_DIR", "");

    let group = StencilGroup::from(Stencil::new(
        Expr::read_at("x", &[0, 0]) * 1.25 + Expr::read_at("x", &[1, 0]),
        "y",
        RectDomain::interior(2),
    ));
    let run = || {
        let backend = CJitBackend::new();
        let mut grids = GridSet::new();
        grids.insert("x", Grid::from_fn(&[12, 12], |p| (p[0] * 12 + p[1]) as f64));
        grids.insert("y", Grid::new(&[12, 12]));
        let exe = backend.compile(&group, &grids.shapes()).unwrap();
        exe.run(&mut grids).unwrap();
        (
            grids.get("y").unwrap().as_slice().to_vec(),
            backend.disk_stats(),
        )
    };
    let (first, _) = run();
    let (second, (hits, misses)) = run();
    assert_eq!(first, second);
    assert_eq!(
        (hits, misses),
        (1, 0),
        "the second backend must be served from the store"
    );
    let stray: Vec<_> = cwd
        .read_dir()
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        stray.is_empty(),
        "artifacts leaked into the working directory: {stray:?}"
    );
    std::env::set_current_dir(std::env::temp_dir()).unwrap();
    let _ = std::fs::remove_dir_all(&cwd);
}
