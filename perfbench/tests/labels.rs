//! Labelling and tracing tests: every plan op of every workload gets a
//! label, the decorator sees every compile, and tracing only observes.

use std::sync::Arc;

use hpgmg::{SnowSolver, SolveOptions};
use snowflake_backends::metrics::json;
use snowflake_backends::{backend_from_name, BackendOptions};
use snowflake_perfbench::trace::{self_seconds, Span, Tracer, TracingBackend};
use snowflake_perfbench::{label_op, OpKind, Workload, WORKLOADS};

fn seq_solver(wl: &Workload) -> SnowSolver {
    let backend = backend_from_name("seq", &BackendOptions::default()).unwrap();
    SnowSolver::new(wl.problem(), backend).unwrap()
}

#[test]
fn every_plan_op_of_every_workload_gets_a_label() {
    for wl in WORKLOADS {
        let solver = seq_solver(&wl);
        let labels: Vec<_> = solver
            .plan()
            .descriptors()
            .iter()
            .map(|(group, _)| label_op(group, wl.coarsest_level()))
            .collect();
        assert!(
            labels.iter().all(Option::is_some),
            "{}: unlabelled op among {labels:?}",
            wl.name
        );
        assert_eq!(labels.len(), solver.plan_ops(), "{}", wl.name);
        for kind in OpKind::ALL {
            assert!(
                labels.iter().flatten().any(|l| l.kind == kind),
                "{}: no {kind:?} op",
                wl.name
            );
        }
        for label in labels.iter().flatten() {
            assert_eq!(
                label.kind == OpKind::Bottom,
                label.text == format!("bottom L{}", wl.coarsest_level()),
                "{}: {label:?}",
                wl.name
            );
        }
    }
}

#[test]
fn decorator_labels_every_compiled_op() {
    for wl in WORKLOADS {
        let tracer = Tracer::new();
        let inner = backend_from_name("seq", &BackendOptions::default()).unwrap();
        let backend = TracingBackend::new(inner, Arc::clone(&tracer), wl.coarsest_level());
        let solver = SnowSolver::new(wl.problem(), Box::new(backend))
            .expect("every HPGMG op labels, so the traced build succeeds");
        let compiled = solver.plan_cache_stats().misses as usize;
        assert_eq!(tracer.ops().len(), compiled, "{}", wl.name);
        let compile_spans = tracer
            .take_spans()
            .iter()
            .filter(|s| s.name.starts_with("compile "))
            .count();
        assert_eq!(compile_spans, compiled, "{}", wl.name);
    }
}

#[test]
fn traced_solves_are_bitwise_identical_and_counted() {
    let wl = Workload {
        n: 16,
        ..WORKLOADS[1]
    };
    let opts = SolveOptions::cycles(2).with_fmg(true);
    let plain = seq_solver(&wl).solve(opts).unwrap();

    let tracer = Tracer::new();
    let inner = backend_from_name("seq", &BackendOptions::default()).unwrap();
    let backend = TracingBackend::new(inner, Arc::clone(&tracer), wl.coarsest_level());
    let mut traced = SnowSolver::new(wl.problem(), Box::new(backend)).unwrap();
    tracer.take_spans();
    let id = tracer.begin("solve");
    let norms = traced.solve(opts).unwrap();
    tracer.end(id);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&norms), bits(&plain));

    tracer.set_counting(true);
    let counted = traced.solve(opts).unwrap();
    tracer.set_counting(false);
    assert_eq!(bits(&counted), bits(&plain));
    let ops = tracer.ops();
    let counts = tracer.counts();
    let by_plan: u64 = counts
        .iter()
        .zip(&ops)
        .map(|(c, o)| c.calls * o.points_per_run)
        .sum();
    let by_backend: u64 = counts.iter().map(|c| c.points).sum();
    assert!(by_plan > 0);
    assert_eq!(by_plan, by_backend);

    let spans = tracer.take_spans();
    let solve = spans.iter().find(|s| &*s.name == "solve").unwrap();
    let children = spans.iter().filter(|s| s.parent == solve.id).count();
    assert!(children > 0, "op spans must nest under the solve span");
    let own = self_seconds(&spans, solve.id);
    assert!(own >= 0.0 && own <= solve.seconds());
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let span = |id, parent, start, end| Span {
        id,
        parent,
        name: "s".into(),
        op: None,
        start,
        end,
    };
    let spans = vec![
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),
        span(3, 1, 4.0, 8.0),
        span(4, 3, 5.0, 6.0),
    ];
    assert!((self_seconds(&spans, 1) - 4.0).abs() < 1e-12);
    assert!((self_seconds(&spans, 3) - 3.0).abs() < 1e-12);
    assert_eq!(self_seconds(&spans, 9), 0.0);
}

#[test]
fn workload_table_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(json::Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
        .collect();
    let table: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, table);
}
