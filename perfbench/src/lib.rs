//! Layered solver benchmark for the Snowflake HPGMG reproduction.
//!
//! The library half holds what both the worker binary and the tests need:
//! the workload table ([`Workload`]), the plan-op labeller
//! ([`label_op`]) and the tracing `Backend`/`Executable` decorator
//! ([`trace::TracingBackend`]). Everything goes through the public APIs
//! of `hpgmg` and `snowflake-backends`; no program code is instrumented.

pub mod json;
pub mod trace;

use hpgmg::{Problem, SolveOptions};
use snowflake_core::StencilGroup;

/// One benchmark workload: a variable-coefficient HPGMG problem with GSRB
/// smoothing, and the cycle shape of one timed solve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Finest-level interior cells per side.
    pub n: usize,
    /// Start each solve with an F-cycle.
    pub fmg: bool,
    /// Cycles per timed solve (no early exit).
    pub cycles: usize,
}

/// The workloads; each puts a different layer on the critical path (see
/// `perfbench/README.md` for the layer map).
pub const WORKLOADS: [Workload; 2] = [
    // Kernel-bound: 128^3 stride-2 red/black rows dominate every cycle.
    // One V-cycle per solve doubles the samples a run collects.
    Workload {
        name: "vcycle-gsrb-128",
        n: 128,
        fmg: false,
        cycles: 1,
    },
    // Dispatch- and fork/join-bound: a 32^3 hierarchy whose 4^3 bottom
    // solve runs 24 smooths per cycle, so per-op overhead dominates.
    Workload {
        name: "fcycle-gsrb-32",
        n: 32,
        fmg: true,
        cycles: 4,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The variable-coefficient test problem at this workload's size.
    pub fn problem(&self) -> Problem {
        Problem::poisson_vc(self.n)
    }

    /// Options of one timed solve.
    pub fn solve_options(&self) -> SolveOptions {
        SolveOptions::cycles(self.cycles).with_fmg(self.fmg)
    }

    /// Index of the coarsest multigrid level (where the bottom solve runs).
    pub fn coarsest_level(&self) -> usize {
        self.problem().level_sizes().len() - 1
    }

    /// Finest-level degrees of freedom.
    pub fn dof(&self) -> u64 {
        (self.n as u64).pow(3)
    }
}

/// The operator classes per-layer metrics are keyed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Smoother sweeps above the coarsest level.
    Smooth,
    /// Smoother sweeps on the coarsest level (the bottom solve).
    Bottom,
    /// Residual `rhs - A x`.
    Residual,
    /// Fine-to-coarse restriction (of the residual or the right-hand side).
    Restrict,
    /// Coarse-to-fine interpolation.
    Interp,
}

impl OpKind {
    /// Every kind, in report order.
    pub const ALL: [OpKind; 5] = [
        OpKind::Smooth,
        OpKind::Bottom,
        OpKind::Residual,
        OpKind::Restrict,
        OpKind::Interp,
    ];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Smooth => "smooth",
            OpKind::Bottom => "bottom",
            OpKind::Residual => "residual",
            OpKind::Restrict => "restrict",
            OpKind::Interp => "interp",
        }
    }
}

/// What the benchmark knows about one plan op, derived from its stencil
/// and grid names alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpLabel {
    /// Operator class.
    pub kind: OpKind,
    /// Finest multigrid level the op touches.
    pub level: usize,
    /// Human-readable label, e.g. `smooth L0` or `restrict L0->L1`.
    pub text: String,
}

/// Multigrid level encoded as the `_<k>` suffix of an HPGMG grid name.
fn grid_level(grid: &str) -> Option<usize> {
    grid.rsplit_once('_')?.1.parse().ok()
}

/// Label a plan op of a `SnowSolver` whose coarsest level is `coarsest`.
/// Returns `None` for a group no HPGMG operator builder produces.
pub fn label_op(group: &StencilGroup, coarsest: usize) -> Option<OpLabel> {
    let levels: Vec<usize> = group
        .grids()
        .iter()
        .map(|g| grid_level(g))
        .collect::<Option<_>>()?;
    let lo = *levels.iter().min()?;
    let hi = *levels.iter().max()?;
    let names: Vec<&str> = group.stencils().iter().map(|s| s.name()).collect();
    let has = |pred: &dyn Fn(&str) -> bool| names.iter().any(|n| pred(n));
    let (kind, text) = if has(&|n| n.starts_with("gsrb_")) {
        let kind = if lo == coarsest {
            OpKind::Bottom
        } else {
            OpKind::Smooth
        };
        (kind, format!("{} L{lo}", kind.name()))
    } else if has(&|n| n == "residual") {
        (OpKind::Residual, format!("residual L{lo}"))
    } else if has(&|n| n == "restrict_rhs") {
        (OpKind::Restrict, format!("restrict_rhs L{lo}->L{hi}"))
    } else if has(&|n| n == "restrict") {
        (OpKind::Restrict, format!("restrict L{lo}->L{hi}"))
    } else if has(&|n| n.starts_with("interp_lin_")) {
        (OpKind::Interp, format!("interp_linear L{hi}->L{lo}"))
    } else if has(&|n| n.starts_with("interp_")) {
        (OpKind::Interp, format!("interp L{hi}->L{lo}"))
    } else {
        return None;
    };
    if lo != hi && !matches!(kind, OpKind::Restrict | OpKind::Interp) {
        return None;
    }
    Some(OpLabel {
        kind,
        level: lo,
        text,
    })
}

/// Level bucket of the `level_s.*` metrics: `L0`, `L1`, and everything
/// coarser folded into `L2plus`.
pub fn level_bucket(level: usize) -> &'static str {
    match level {
        0 => "L0",
        1 => "L1",
        _ => "L2plus",
    }
}

/// Computed (not measured) DRAM bytes of one run of `group`: for every
/// stencil, its iteration points times 8 bytes for each distinct grid it
/// reads plus one write. For the variable-coefficient GSRB sweep this is
/// the paper's 64 B per stencil; caches can only lower the real figure.
pub fn computed_bytes(group: &StencilGroup, points_per_stencil: &[(String, u64)]) -> u64 {
    points_per_stencil
        .iter()
        .map(|(name, points)| {
            let reads = group
                .stencils()
                .iter()
                .find(|s| s.name() == name)
                .map_or(0, |s| s.expr().grids().len() as u64);
            points * 8 * (reads + 1)
        })
        .sum()
}
