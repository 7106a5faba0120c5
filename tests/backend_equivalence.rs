//! Cross-backend equivalence: every micro-compiler must compute the same
//! function from a single stencil source — the correctness half of the
//! paper's performance-portability claim.
//!
//! The interpreter backend defines the semantics; the compiled backends
//! (sequential, OpenMP-like, OpenCL-simulator, C JIT) are compared against
//! it on randomized programs, shapes and domains.

use proptest::prelude::*;
use snowflake::prelude::*;

/// All always-available backends.
fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(SequentialBackend::new()),
        Box::new(OmpBackend::new()),
        Box::new(
            OmpBackend::new()
                .with_tile(vec![3, 5])
                .with_multicolor(true),
        ),
        Box::new(OclSimBackend::new().with_workgroup(2, 4)),
    ]
}

fn run_all(group: &StencilGroup, make: impl Fn() -> GridSet, tol: f64) {
    let mut reference = make();
    let shapes = reference.shapes();
    InterpreterBackend
        .compile(group, &shapes)
        .expect("interp compile")
        .run(&mut reference)
        .expect("interp run");
    let mut tested = backends();
    if CJitBackend::available() {
        tested.push(Box::new(CJitBackend::new()));
    }
    for backend in tested {
        let mut grids = make();
        backend
            .compile(group, &shapes)
            .unwrap_or_else(|e| panic!("{} compile: {e}", backend.name()))
            .run(&mut grids)
            .unwrap_or_else(|e| panic!("{} run: {e}", backend.name()));
        for name in reference.names() {
            let diff = reference
                .get(name)
                .unwrap()
                .max_abs_diff(grids.get(name).unwrap());
            assert!(
                diff <= tol,
                "backend {} deviates on grid {name:?} by {diff}",
                backend.name()
            );
        }
    }
}

#[test]
fn equivalence_on_out_of_place_laplacian() {
    let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
    let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
    run_all(
        &group,
        || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[19, 23]);
            x.fill_random(11, -2.0, 2.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&[19, 23]));
            gs
        },
        0.0,
    );
}

/// The paper's Figure 4-style 2-D VC GSRB smooth with interleaved
/// Dirichlet boundary faces (shared by the equivalence and the
/// instrumentation tests below).
fn figure4_gsrb_group() -> StencilGroup {
    let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
    let ax = Expr::read_at("bx", &[1, 0]) * (m(1, 0) - m(0, 0))
        - Expr::read_at("bx", &[0, 0]) * (m(0, 0) - m(-1, 0))
        + Expr::read_at("by", &[0, 1]) * (m(0, 1) - m(0, 0))
        - Expr::read_at("by", &[0, 0]) * (m(0, 0) - m(0, -1));
    let update = m(0, 0) + 0.21 * (Expr::read_at("rhs", &[0, 0]) - ax);
    let (red, black) = DomainUnion::red_black(2);
    let face = |dom: RectDomain, off: [i64; 2]| {
        Stencil::new(
            Expr::Neg(Box::new(Expr::read_at("mesh", &off))),
            "mesh",
            dom,
        )
    };
    let mut group = StencilGroup::new();
    for f in [
        face(RectDomain::new(&[0, 1], &[0, -1], &[0, 1]), [1, 0]),
        face(RectDomain::new(&[-1, 1], &[-1, -1], &[0, 1]), [-1, 0]),
        face(RectDomain::new(&[1, 0], &[-1, 0], &[1, 0]), [0, 1]),
        face(RectDomain::new(&[1, -1], &[-1, -1], &[1, 0]), [0, -1]),
    ] {
        group.push(f);
    }
    group.push(Stencil::new(update.clone(), "mesh", red));
    group.push(Stencil::new(update, "mesh", black));
    group
}

fn figure4_gsrb_grids() -> GridSet {
    let mut gs = GridSet::new();
    for (name, seed, lo, hi) in [
        ("mesh", 1u64, -1.0, 1.0),
        ("rhs", 2, -1.0, 1.0),
        ("bx", 3, 0.5, 1.5),
        ("by", 4, 0.5, 1.5),
    ] {
        let mut g = Grid::new(&[17, 17]);
        g.fill_random(seed, lo, hi);
        gs.insert(name, g);
    }
    gs
}

#[test]
fn equivalence_on_figure4_vc_gsrb_with_boundaries() {
    run_all(&figure4_gsrb_group(), figure4_gsrb_grids, 1e-12);
}

/// Instrumented execution must not change the computed values: `run` and
/// `run_with_report` produce bitwise-identical grids on the GSRB group
/// across every CPU backend.
#[test]
fn run_with_report_is_bitwise_identical_to_run() {
    let group = figure4_gsrb_group();
    let shapes = figure4_gsrb_grids().shapes();
    for backend in backends() {
        let exe = backend
            .compile(&group, &shapes)
            .unwrap_or_else(|e| panic!("{} compile: {e}", backend.name()));
        let mut plain = figure4_gsrb_grids();
        exe.run(&mut plain)
            .unwrap_or_else(|e| panic!("{} run: {e}", backend.name()));
        let mut profiled = figure4_gsrb_grids();
        let mut report = RunReport::new();
        exe.run_with_report(&mut profiled, &mut report)
            .unwrap_or_else(|e| panic!("{} run_with_report: {e}", backend.name()));
        for name in plain.names() {
            let diff = plain
                .get(name)
                .unwrap()
                .max_abs_diff(profiled.get(name).unwrap());
            assert_eq!(
                diff,
                0.0,
                "backend {} not bitwise identical on {name:?}",
                backend.name()
            );
        }
        assert_eq!(report.backend, backend.name());
        assert_eq!(report.runs, 1);
        assert!(report.kernels.points > 0, "{}", backend.name());
        assert!(report.kernels.tiles > 0, "{}", backend.name());
        assert!(report.run_seconds > 0.0, "{}", backend.name());
    }
}

/// The phase table of an instrumented run lines up with the analysis
/// schedule: one [`PhaseSample`] slot per greedy barrier phase. Each
/// preset's decomposition is pinned too: its kernel counters `(tiles,
/// parallel_tasks, sequential_tasks, fused, points)` on the Figure-4 group
/// and on one 16³ VC V-cycle. (The omp presets carry explicit tiles
/// because the default tile depends on the host's thread count.)
///
/// [`PhaseSample`]: snowflake::backends::PhaseSample
#[test]
fn report_phase_count_matches_analysis_schedule() {
    use snowflake::analysis::{greedy_phases, ResolvedStencil};
    use snowflake::hpgmg::{Problem, SnowSolver};

    let group = figure4_gsrb_group();
    let shapes = figure4_gsrb_grids().shapes();
    let resolved: Vec<_> = group
        .stencils()
        .iter()
        .map(|s| ResolvedStencil::resolve(s, &shapes).unwrap())
        .collect();
    let schedule_phases = greedy_phases(&resolved).phases.len();
    assert!(schedule_phases >= 2, "GSRB must need multiple barriers");

    type Counters = (u64, u64, u64, u64, u64);
    let counters = |r: &RunReport| {
        let k = &r.kernels;
        (
            k.tiles,
            k.parallel_tasks,
            k.sequential_tasks,
            k.fused,
            k.points,
        )
    };
    let omp = || OmpBackend::new().with_tile(vec![3, 5]);
    let presets: Vec<(Box<dyn Backend>, Counters, Counters)> = vec![
        (
            Box::new(SequentialBackend::new()),
            (8, 0, 8, 0, 285),
            (674, 0, 674, 0, 52864),
        ),
        (
            Box::new(omp()),
            (28, 28, 0, 0, 285),
            (1460, 1460, 0, 56, 52864),
        ),
        (
            Box::new(omp().with_fusion(false)),
            (28, 28, 0, 0, 285),
            (1516, 1516, 0, 0, 52864),
        ),
        (
            Box::new(omp().with_multicolor(false)),
            (40, 40, 0, 0, 285),
            (1796, 1796, 0, 56, 52864),
        ),
        (
            Box::new(OclSimBackend::new()),
            (18, 18, 0, 0, 285),
            (866, 866, 0, 0, 52864),
        ),
        (
            Box::new(OclSimBackend::new().with_workgroup(2, 4)),
            (56, 56, 0, 0, 285),
            (2187, 2187, 0, 0, 52864),
        ),
    ];
    for (backend, figure4, vcycle) in presets {
        let name = backend.name();
        let exe = backend.compile(&group, &shapes).unwrap();
        let mut grids = figure4_gsrb_grids();
        let mut report = RunReport::new();
        exe.run_with_report(&mut grids, &mut report).unwrap();
        assert_eq!(
            report.phases.len(),
            schedule_phases,
            "backend {name} phase table diverges from the analysis schedule"
        );
        assert_eq!(counters(&report), figure4, "{name} on the Figure-4 group");
        // Repeated runs accumulate into the same slots.
        exe.run_with_report(&mut grids, &mut report).unwrap();
        assert_eq!(report.phases.len(), schedule_phases);
        assert_eq!(report.runs, 2);

        let mut solver = SnowSolver::new(Problem::poisson_vc(16), backend).unwrap();
        solver.enable_metrics();
        solver.vcycle(0).unwrap();
        let report = solver.take_metrics().unwrap();
        assert_eq!(report.phases.len(), 4, "{name} V-cycle phases");
        assert_eq!(counters(&report), vcycle, "{name} on a 16³ V-cycle");
    }
}

#[test]
fn equivalence_on_multigrid_transfer_operators() {
    // Restriction (scale-2 reads) and interpolation (scale-2 writes) in 1
    // group: exercises the affine-map machinery end to end.
    let restrict = (Expr::read_mapped("fine", AffineMap::scaled(vec![2, 2], vec![-1, -1]))
        + Expr::read_mapped("fine", AffineMap::scaled(vec![2, 2], vec![-1, 0]))
        + Expr::read_mapped("fine", AffineMap::scaled(vec![2, 2], vec![0, -1]))
        + Expr::read_mapped("fine", AffineMap::scaled(vec![2, 2], vec![0, 0])))
        * 0.25;
    let mut group = StencilGroup::from(
        Stencil::new(restrict, "coarse", RectDomain::interior(2)).named("restrict"),
    );
    for di in [-1i64, 0] {
        for dj in [-1i64, 0] {
            let map = AffineMap::scaled(vec![2, 2], vec![di, dj]);
            group.push(
                Stencil::new(
                    Expr::read_mapped("out", map.clone()) + Expr::read_at("coarse", &[0, 0]),
                    "out",
                    RectDomain::interior(2),
                )
                .with_out_map(map)
                .named("interp"),
            );
        }
    }
    run_all(
        &group,
        || {
            let mut gs = GridSet::new();
            let mut fine = Grid::new(&[18, 18]);
            fine.fill_random(7, 0.0, 1.0);
            gs.insert("fine", fine);
            gs.insert("coarse", Grid::new(&[10, 10]));
            let mut out = Grid::new(&[18, 18]);
            out.fill_random(8, 0.0, 1.0);
            gs.insert("out", out);
            gs
        },
        1e-13,
    );
}

#[test]
fn equivalence_on_sequential_in_place_propagation() {
    // A kernel the analysis must refuse to parallelize: every backend has
    // to fall back to canonical order and still agree.
    let s = Stencil::new(
        Expr::read_at("x", &[-1, 0]) * 0.5 + Expr::read_at("x", &[0, 0]) * 0.5,
        "x",
        RectDomain::interior(2),
    );
    run_all(
        &StencilGroup::from(s),
        || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[12, 12]);
            x.fill_random(3, -1.0, 1.0);
            gs.insert("x", x);
            gs
        },
        1e-13,
    );
}

#[test]
fn equivalence_on_sequential_propagation_over_a_union() {
    // `x[i] = x[i-1]` over `[1, n-64) ∪ [n-64, n)`: the kernel is not
    // parallel-safe, so both rectangles must run as one serial task in
    // union order. Run concurrently, the short tail would read cells the
    // long head has not written yet.
    let n = 1usize << 16;
    let s = Stencil::new(
        Expr::read_at("x", &[-1]),
        "x",
        RectDomain::new(&[1], &[-64], &[1]) + RectDomain::new(&[-64], &[0], &[1]),
    );
    run_all(
        &StencilGroup::from(s),
        || {
            let mut x = Grid::new(&[n]);
            x.as_mut_slice()[0] = 7.0;
            let mut gs = GridSet::new();
            gs.insert("x", x);
            gs
        },
        0.0,
    );
}

#[test]
fn equivalence_on_fourth_order_13_point_laplacian() {
    // "Higher-order operators (larger stencils)" — §II. The 4th-order
    // operator needs a 2-cell halo; every backend must agree.
    use snowflake::core::ops::{laplacian, Order};
    let lap = Component::new("u", laplacian(3, Order::Fourth));
    let group = StencilGroup::from(Stencil::new(
        lap,
        "out",
        RectDomain::new(&[2, 2, 2], &[-2, -2, -2], &[1, 1, 1]),
    ));
    run_all(
        &group,
        || {
            let mut gs = GridSet::new();
            let mut u = Grid::new(&[12, 12, 12]);
            u.fill_random(31, -1.0, 1.0);
            gs.insert("u", u);
            gs.insert("out", Grid::new(&[12, 12, 12]));
            gs
        },
        1e-13,
    );
}

#[test]
fn equivalence_on_4d_stencil() {
    // MAX_DIMS = 4: e.g. 3-D space × component index.
    let e = Expr::read_at("x", &[0, 1, 0, 0]) - Expr::read_at("x", &[0, -1, 0, 0])
        + 0.5 * Expr::read_at("x", &[0, 0, 0, 1]);
    let group = StencilGroup::from(Stencil::new(
        e,
        "y",
        RectDomain::new(&[0, 1, 0, 0], &[0, -1, 0, -1], &[1, 1, 1, 1]),
    ));
    run_all(
        &group,
        || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[3, 6, 5, 4]);
            x.fill_random(17, -2.0, 2.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&[3, 6, 5, 4]));
            gs
        },
        0.0,
    );
}

/// A sequential (not parallel-safe) kernel with a closed form, in place
/// over the interior of a 34² grid. The Rust backends run the form one
/// point at a time in canonical order, bit for bit like the per-point
/// `checked` reference; cjit renders the same left fold, so it matches
/// `seq` bit for bit too (skipped without a C compiler). `dist` refuses
/// sequential kernels, so it is not compared.
fn assert_sequential_closed_form_is_bitwise(expr: Expr) {
    use snowflake::analysis::{is_parallel_safe, ResolvedStencil};
    use snowflake::backends::CheckedBackend;

    let stencil = Stencil::new(expr, "x", RectDomain::interior(2));
    let make = || {
        let mut gs = GridSet::new();
        for (name, seed) in [("x", 41u64), ("a", 42), ("b", 43)] {
            let mut g = Grid::new(&[34, 34]);
            g.fill_random(seed, -1.0, 1.0);
            gs.insert(name, g);
        }
        gs
    };
    let shapes = make().shapes();
    assert!(!is_parallel_safe(
        &ResolvedStencil::resolve(&stencil, &shapes).unwrap()
    ));
    let group = StencilGroup::from(stencil);
    let run = |backend: &dyn Backend| {
        let mut gs = make();
        let mut report = RunReport::new();
        backend
            .compile(&group, &shapes)
            .unwrap_or_else(|e| panic!("{} compile: {e}", backend.name()))
            .run_with_report(&mut gs, &mut report)
            .unwrap_or_else(|e| panic!("{} run: {e}", backend.name()));
        (gs.get("x").unwrap().as_slice().to_vec(), report)
    };
    let (reference, _) = run(&CheckedBackend::new());
    let (seq, report) = run(&SequentialBackend::new());
    assert_eq!(report.spec.kernels_specialized, 1, "the form is engaged");
    assert!(seq == reference, "seq deviates from checked");
    let others: [Box<dyn Backend>; 2] = [
        Box::new(OmpBackend::new()),
        Box::new(OclSimBackend::new().with_workgroup(2, 4)),
    ];
    for backend in others {
        let (got, _) = run(backend.as_ref());
        assert!(got == reference, "{} deviates from checked", backend.name());
    }
    if CJitBackend::available() {
        let (cjit, _) = run(&CJitBackend::new());
        let diff = cjit
            .iter()
            .zip(&seq)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(cjit == seq, "cjit deviates from seq by {diff}");
    } else {
        eprintln!("skipping cjit: no host C compiler");
    }
}

#[test]
fn sequential_linear_closed_form_is_bitwise_on_every_backend() {
    let x = |i: i64, j: i64| Expr::read_at("x", &[i, j]);
    assert_sequential_closed_form_is_bitwise(
        (x(-1, 0) + x(1, 0) + x(0, -1) + x(0, 1) + 2.0 * x(0, 0)) / 6.0,
    );
}

#[test]
fn sequential_poly_closed_form_is_bitwise_on_every_backend() {
    let x = |i: i64, j: i64| Expr::read_at("x", &[i, j]);
    assert_sequential_closed_form_is_bitwise(
        0.3 * Expr::read_at("a", &[0, 0]) * (x(-1, 0) + x(0, -1))
            + Expr::read_at("b", &[0, 0]) / 3.0,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Randomized linear stencils over randomized strided domains: all
    /// backends agree with the interpreter.
    /// Randomized variable-coefficient stencils (coefficient-read ×
    /// solution-read products exercise the sum-of-products executor).
    #[test]
    fn equivalence_on_random_vc_stencils(
        seed in 0u64..1_000,
        terms in proptest::collection::vec(
            ((-1i64..2, -1i64..2), (-1i64..2, -1i64..2), -1.0f64..1.0), 1..4),
    ) {
        let mut expr = Expr::read_at("x", &[0, 0]);
        for ((ci, cj), (xi, xj), w) in &terms {
            expr = expr
                + Expr::Const(*w)
                    * Expr::read_at("c", &[*ci, *cj])
                    * Expr::read_at("x", &[*xi, *xj]);
        }
        let group = StencilGroup::from(Stencil::new(expr, "y", RectDomain::interior(2)));
        let make = move || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[12, 13]);
            x.fill_random(seed, -2.0, 2.0);
            gs.insert("x", x);
            let mut c = Grid::new(&[12, 13]);
            c.fill_random(seed.wrapping_add(1), 0.25, 1.75);
            gs.insert("c", c);
            gs.insert("y", Grid::new(&[12, 13]));
            gs
        };
        let mut reference = make();
        let shapes = reference.shapes();
        InterpreterBackend.compile(&group, &shapes).unwrap().run(&mut reference).unwrap();
        for backend in backends() {
            let mut grids = make();
            backend.compile(&group, &shapes).unwrap().run(&mut grids).unwrap();
            let diff = reference.get("y").unwrap().max_abs_diff(grids.get("y").unwrap());
            prop_assert!(diff < 1e-12, "{} deviates by {diff}", backend.name());
        }
    }

    #[test]
    fn equivalence_on_random_linear_stencils(
        seed in 0u64..1_000,
        offs in proptest::collection::vec((-2i64..3, -2i64..3, -1.0f64..1.0), 1..6),
        lo in 2i64..4,
        stride in 1i64..3,
    ) {
        let mut expr = Expr::Const(0.25);
        for (oi, oj, w) in &offs {
            expr = expr + Expr::Const(*w) * Expr::read_at("x", &[*oi, *oj]);
        }
        let dom = RectDomain::new(&[lo, lo], &[-2, -2], &[stride, stride]);
        let group = StencilGroup::from(Stencil::new(expr, "y", dom));
        let make = move || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[14, 15]);
            x.fill_random(seed, -3.0, 3.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&[14, 15]));
            gs
        };
        // No cjit in the proptest loop (compiler invocations are slow).
        let mut reference = make();
        let shapes = reference.shapes();
        InterpreterBackend.compile(&group, &shapes).unwrap().run(&mut reference).unwrap();
        for backend in backends() {
            let mut grids = make();
            backend.compile(&group, &shapes).unwrap().run(&mut grids).unwrap();
            let diff = reference.get("y").unwrap().max_abs_diff(grids.get("y").unwrap());
            prop_assert!(diff < 1e-12, "{} deviates by {diff}", backend.name());
        }
    }
}
