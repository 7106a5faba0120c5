//! Specialization equivalence: the chunked row executors evaluate each
//! kernel's closed form with the same reads, the same multiplies and the
//! same left-to-right accumulation per element as the `checked` reference
//! backend, which evaluates those forms one point at a time in canonical
//! order — so the compiled backends must not differ from it by a single
//! bit. These
//! tests pin that contract on the full HPGMG V-cycle plan and on
//! randomized const-coefficient stencils, and check that `verify_plan`
//! still certifies specialized plans (specialization runs after lowering,
//! which is what the verifier replays).

use proptest::prelude::*;
use snowflake::backends::{verify_plan, CJitBackend, CheckedBackend};
use snowflake::hpgmg::{Problem, SnowSolver};
use snowflake::prelude::*;

/// A (specialized, unspecialized reference) backend pair under comparison.
type OnOff = (Box<dyn Backend>, Box<dyn Backend>);

/// Solve `cycles` V-cycles with metrics on; return the residual history
/// and the instrumented run report.
fn solve_with_metrics(
    problem: Problem,
    backend: Box<dyn Backend>,
    cycles: usize,
) -> (Vec<f64>, RunReport) {
    let mut solver = SnowSolver::new(problem, backend).expect("plan build");
    solver.enable_metrics();
    let norms = solver.solve(cycles).expect("solve");
    let report = solver.take_metrics().expect("metrics enabled");
    (norms, report)
}

/// The headline equivalence: a full multi-level V-cycle solve — smoothers,
/// residuals, boundary fills, inter-grid transfers — produces the exact
/// same residual history whether the kernels run through the chunked row
/// executors or the per-point `checked` reference (which stamps no `spec`
/// counters into its reports).
#[test]
fn hpgmg_vcycle_is_bitwise_identical_with_specialization_off() {
    let problem = Problem::poisson_vc(8);
    let pairs: Vec<(&str, OnOff)> = vec![
        (
            "seq",
            (
                Box::new(SequentialBackend::new()),
                Box::new(CheckedBackend::new()),
            ),
        ),
        (
            "omp",
            (Box::new(OmpBackend::new()), Box::new(CheckedBackend::new())),
        ),
    ];
    for (name, (spec_on, spec_off)) in pairs {
        let (norms_on, report_on) = solve_with_metrics(problem, spec_on, 3);
        let (norms_off, report_off) = solve_with_metrics(problem, spec_off, 3);
        assert_eq!(
            norms_on, norms_off,
            "{name}: residual histories must be bitwise identical"
        );
        assert!(
            report_on.spec.kernels_specialized > 0,
            "{name}: the V-cycle must engage the specializer (smoothers and \
             transfers are const-coefficient)"
        );
        assert_eq!(
            report_off.spec.kernels_specialized, 0,
            "{name}: the checked reference stamps no spec counters"
        );
    }
}

/// The C micro-compiler with specialization: specialized kernels render
/// the same left fold the Rust executors perform, so the specialized cjit
/// V-cycle must track the specialized seq V-cycle to machine precision.
/// Gated on a working host C compiler.
#[test]
fn hpgmg_vcycle_cjit_specialized_matches_seq() {
    if !CJitBackend::available() {
        eprintln!("skipping: no host C compiler for cjit");
        return;
    }
    let problem = Problem::poisson_vc(8);
    let (norms_cjit, report) = solve_with_metrics(problem, Box::new(CJitBackend::new()), 2);
    let (norms_seq, _) = solve_with_metrics(problem, Box::new(SequentialBackend::new()), 2);
    assert!(report.spec.kernels_specialized > 0);
    for (a, b) in norms_cjit.iter().zip(&norms_seq) {
        assert!(
            ((a - b) / a.abs().max(1e-300)).abs() < 1e-12,
            "specialized cjit vs seq: {a} vs {b}"
        );
    }
}

/// §VI's `--verify` flag still certifies every op of a specialized plan:
/// specialization happens after lowering, and the verifier replays the
/// lowering, so a plan built over a specializing backend certifies exactly
/// as before — while its execution demonstrably uses the closed forms.
#[test]
fn verify_certifies_specialized_hpgmg_plan() {
    let mut solver = SnowSolver::new(Problem::poisson_vc(8), Box::new(SequentialBackend::new()))
        .expect("plan build");
    let cert = verify_plan(solver.plan())
        .unwrap_or_else(|diags| panic!("specialized plan must certify: {diags:?}"));
    let stats = cert.stats();
    assert!(stats.stencils_checked > 0);
    assert!(stats.accesses_proved > 0);
    // And the certified plan really executes specialized kernels.
    solver.enable_metrics();
    solver.solve(1).expect("solve");
    let report = solver.take_metrics().unwrap();
    assert!(report.spec.kernels_specialized > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Randomized const-coefficient stencils — the specializer's prime
    /// target (a linear closed form) — are bitwise identical on the
    /// compiled backends and the per-point `checked` reference.
    #[test]
    fn random_const_coefficient_stencils_specialize_bitwise(
        seed in 0u64..1_000,
        offs in proptest::collection::vec((-2i64..3, -2i64..3, -1.0f64..1.0), 1..7),
        bias in -1.0f64..1.0,
    ) {
        let mut expr = Expr::Const(bias);
        for (oi, oj, w) in &offs {
            expr = expr + Expr::Const(*w) * Expr::read_at("x", &[*oi, *oj]);
        }
        // Offsets reach ±2, so the domain needs a 2-cell margin.
        let dom = RectDomain::new(&[2, 2], &[-2, -2], &[1, 1]);
        let group = StencilGroup::from(Stencil::new(expr, "y", dom));
        let make = || {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[13, 14]);
            x.fill_random(seed, -2.0, 2.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&[13, 14]));
            gs
        };
        let shapes = make().shapes();
        let pairs: Vec<OnOff> = vec![
            (
                Box::new(SequentialBackend::new()),
                Box::new(CheckedBackend::new()),
            ),
            (
                Box::new(OmpBackend::new()),
                Box::new(CheckedBackend::new()),
            ),
        ];
        for (on, off) in pairs {
            let mut a = make();
            on.compile(&group, &shapes).unwrap().run(&mut a).unwrap();
            let mut b = make();
            off.compile(&group, &shapes).unwrap().run(&mut b).unwrap();
            let diff = a.get("y").unwrap().max_abs_diff(b.get("y").unwrap());
            prop_assert_eq!(diff, 0.0, "{} deviates from checked", on.name());
        }
    }
}
