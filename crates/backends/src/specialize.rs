//! Plan-time kernel specialization: the one place a closed form is
//! derived, and the one row evaluator that runs it.
//!
//! [`specialize_lowered`] recognizes each lowered kernel's arithmetic as a
//! [`ClosedForm`] — a constant-coefficient linear stencil (7-point/27-point
//! Laplacians, restriction and interpolation weights, boundary
//! reflections) or a bounded sum of products (variable-coefficient GSRB
//! smooth) — and attaches it to [`LoweredKernel::form`]. Every compiled
//! backend and the `checked` reference run this pass; kernels whose
//! arithmetic matches neither form keep `form = None` and run the bytecode
//! program in [`crate::exec`].
//!
//! The executors here run a row of a kernel with a form through chunked
//! inner loops over contiguous slices (unit stride) or strided index
//! chains, which LLVM auto-vectorizes. Parallel-safe rows use `CHUNK`
//! points per chunk; sequential rows use chunks of one point, which is
//! exactly canonical per-point order.
//!
//! **Bitwise contract**: every executor performs, per output element, the
//! left fold of [`ClosedForm`] in table order (`acc = bias; acc +=
//! coeff·read` for linear; `prod = coeff; prod *= read…; acc += prod` for
//! poly). Chunking only reorders work *across* independent elements of
//! parallel-safe kernels — never within one element — so results are
//! bitwise equal to the per-point `checked` reference backend. The
//! equivalence suite in `tests/specialize_equivalence.rs` asserts this on
//! the full HPGMG V-cycle.
//!
//! [`LoweredKernel::form`]: snowflake_ir::LoweredKernel::form

#![allow(clippy::needless_range_loop)] // chunk indices address parallel fixed arrays

use snowflake_ir::bytecode::{linearize, polynomialize};
use snowflake_ir::{ClosedForm, LinearForm, Lowered, PolyForm};

use crate::exec::{RowPlan, MAX_CLASSES};
use crate::metrics::SpecStats;
use crate::view::GridPtrs;

/// Row chunk length for parallel-safe rows: long enough to amortize loop
/// overhead, short enough that acc/prod scratch stays in L1.
pub(crate) const CHUNK: usize = 128;

/// Largest term count monomorphized into a fused fixed-arity inner loop;
/// wider linear kernels use the dynamic-arity pass executor (bitwise
/// identical, just less completely unrolled).
const MAX_FUSED_ARITY: usize = 16;

/// Derive the closed form of every kernel — linearize, then
/// polynomialize — and attach it to [`LoweredKernel::form`]. Returns the
/// closed-form vs bytecode kernel counts for [`crate::metrics`].
///
/// [`LoweredKernel::form`]: snowflake_ir::LoweredKernel::form
pub fn specialize_lowered(lowered: &mut Lowered) -> SpecStats {
    for kernel in &mut lowered.kernels {
        kernel.form = linearize(&kernel.program)
            .map(ClosedForm::Linear)
            .or_else(|| polynomialize(&kernel.program).map(ClosedForm::Poly));
    }
    spec_stats_of(lowered)
}

/// Per-run specialization counters for a lowered group: how many kernels
/// run a closed form vs the bytecode program (static facts of the compiled
/// plan, accumulated into reports per run like the other kernel counters).
pub fn spec_stats_of(lowered: &Lowered) -> SpecStats {
    let closed = lowered.kernels.iter().filter(|k| k.form.is_some()).count() as u64;
    SpecStats {
        kernels_specialized: closed,
        kernels_interpreted: lowered.kernels.len() as u64 - closed,
    }
}

/// Execute one row of a parallel-safe kernel with unit-stride cursors
/// (all classes step by 1 and the output steps by 1), starting at cursors
/// `cur` and output index `out_start`.
///
/// # Safety
/// As `exec::run_kernel_region`: `view` must hold valid pointers for the
/// shapes the kernel was lowered against, and no other thread may touch
/// the cells this row accesses. The kernel must be parallel-safe (the
/// chunked read-all-then-write-all order requires order-independence).
#[inline(always)]
pub(crate) unsafe fn run_row_unit(
    form: &ClosedForm,
    view: &GridPtrs<'_>,
    row: &RowPlan<'_>,
    cur: &[isize; MAX_CLASSES],
    out_start: isize,
) {
    // count is a non-negative region extent; the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    let total = row.count as usize;
    let (grids, out_grid) = (&row.class_grid, row.kernel.out_grid);
    match form {
        ClosedForm::Linear(lf) => {
            lin_unit_dispatch(lf, view, cur, grids, total, out_grid, out_start)
        }
        ClosedForm::Poly(pf) => poly_unit(pf, view, cur, grids, total, out_grid, out_start),
    }
}

/// Execute one row with arbitrary per-class strides (e.g. the stride-2
/// red/black color rows of a GSRB smooth), `LEN` points per chunk.
/// `LEN = 1` reads and writes point by point in canonical order, so it is
/// the evaluator for sequential kernels too.
///
/// # Safety
/// As [`run_row_unit`], except that the kernel need only be parallel-safe
/// when `LEN > 1`.
#[inline(always)]
pub(crate) unsafe fn run_row_strided<const LEN: usize>(
    form: &ClosedForm,
    view: &GridPtrs<'_>,
    row: &RowPlan<'_>,
    cur: &[isize; MAX_CLASSES],
    out_start: isize,
) {
    // count is a non-negative region extent; the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    let total = row.count as usize;
    let (grids, steps) = (&row.class_grid, &row.inner_step);
    let (out_grid, out_step) = (row.kernel.out_grid, row.out_step);
    match form {
        ClosedForm::Linear(lf) => lin_strided::<LEN>(
            lf, view, cur, grids, steps, total, out_grid, out_start, out_step,
        ),
        ClosedForm::Poly(pf) => poly_strided::<LEN>(
            pf, view, cur, grids, steps, total, out_grid, out_start, out_step,
        ),
    }
}

/// Monomorphize the fused unit-stride linear loop over the term count so
/// the inner accumulation fully unrolls and the chunk loop vectorizes.
unsafe fn lin_unit_dispatch(
    lf: &LinearForm,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    macro_rules! arms {
        ($($n:literal),*) => {
            match lf.arity() {
                $($n => lin_unit_fixed::<$n>(lf, view, cur, class_grid, total, out_grid, out_start),)*
                _ => lin_unit_dyn(lf, view, cur, class_grid, total, out_grid, out_start),
            }
        };
    }
    arms!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16);
}

/// Fused fixed-arity unit-stride linear executor: one pass over the row
/// reading all `N` source slices, accumulating in term order per element.
unsafe fn lin_unit_fixed<const N: usize>(
    lf: &LinearForm,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    debug_assert!(N <= MAX_FUSED_ARITY && lf.arity() == N);
    let bias = lf.bias;
    let mut coef = [0.0f64; N];
    coef.copy_from_slice(&lf.coeffs[..N]);
    let mut grid = [0usize; N];
    let mut start = [0isize; N];
    for t in 0..N {
        let c = lf.classes[t] as usize;
        grid[t] = class_grid[c];
        start[t] = cur[c] + lf.deltas[t];
    }
    let mut acc = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        {
            // Shared source-row borrows; released before the write below
            // (an in-place kernel's output row may alias a source row).
            let rows: [&[f64]; N] =
                std::array::from_fn(|t| view.row(grid[t], start[t] + done as isize, len));
            for i in 0..len {
                let mut v = bias;
                for t in 0..N {
                    v += coef[t] * *rows[t].get_unchecked(i);
                }
                acc[i] = v;
            }
        }
        let dst = view.row_mut(out_grid, out_start + done as isize, len);
        dst.copy_from_slice(&acc[..len]);
        done += len;
    }
}

/// Dynamic-arity unit-stride linear executor: per-term axpy passes over
/// the chunk (same per-element operation order as the fused form).
unsafe fn lin_unit_dyn(
    lf: &LinearForm,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    let mut acc = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        acc[..len].fill(lf.bias);
        for t in 0..lf.arity() {
            let c = lf.classes[t] as usize;
            let k = lf.coeffs[t];
            let src = view.row(class_grid[c], cur[c] + lf.deltas[t] + done as isize, len);
            for (a, &s) in acc[..len].iter_mut().zip(src) {
                *a += k * s;
            }
        }
        let dst = view.row_mut(out_grid, out_start + done as isize, len);
        dst.copy_from_slice(&acc[..len]);
        done += len;
    }
}

/// Unit-stride sum-of-products executor: per term, a product pass over
/// the chunk then an accumulate pass, all over contiguous slices.
unsafe fn poly_unit(
    pf: &PolyForm,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    let mut acc = [0.0f64; CHUNK];
    let mut prod = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        acc[..len].fill(pf.bias);
        let mut r = 0usize;
        for (t, &coeff) in pf.coeffs.iter().enumerate() {
            prod[..len].fill(coeff);
            for _ in 0..pf.lens[t] {
                let c = pf.read_classes[r] as usize;
                let src = view.row(
                    class_grid[c],
                    cur[c] + pf.read_deltas[r] + done as isize,
                    len,
                );
                for (p, &s) in prod[..len].iter_mut().zip(src) {
                    *p *= s;
                }
                r += 1;
            }
            for (a, &p) in acc[..len].iter_mut().zip(&prod[..len]) {
                *a += p;
            }
        }
        let dst = view.row_mut(out_grid, out_start + done as isize, len);
        dst.copy_from_slice(&acc[..len]);
        done += len;
    }
}

/// Strided linear executor: chunked axpy passes with per-term strides.
#[allow(clippy::too_many_arguments)]
unsafe fn lin_strided<const LEN: usize>(
    lf: &LinearForm,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    let mut acc = [0.0f64; LEN];
    let mut done = 0usize;
    while done < total {
        let len = LEN.min(total - done);
        acc[..len].fill(lf.bias);
        for t in 0..lf.arity() {
            let c = lf.classes[t] as usize;
            let g = class_grid[c];
            let k = lf.coeffs[t];
            let st = inner_step[c];
            let start = cur[c] + lf.deltas[t] + done as isize * st;
            for i in 0..len {
                acc[i] += k * view.read(g, start + i as isize * st);
            }
        }
        for i in 0..len {
            view.write(out_grid, out_start + (done + i) as isize * out_step, acc[i]);
        }
        done += len;
    }
}

/// Strided sum-of-products executor — the GSRB red/black color rows land
/// here. Chunked per-read multiply passes turn the per-point serial
/// multiply-accumulate chain into independent per-element work the
/// compiler can pipeline and vectorize.
#[allow(clippy::too_many_arguments)]
unsafe fn poly_strided<const LEN: usize>(
    pf: &PolyForm,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    let mut acc = [0.0f64; LEN];
    let mut prod = [0.0f64; LEN];
    let mut done = 0usize;
    while done < total {
        let len = LEN.min(total - done);
        acc[..len].fill(pf.bias);
        let mut r = 0usize;
        for (t, &coeff) in pf.coeffs.iter().enumerate() {
            prod[..len].fill(coeff);
            for _ in 0..pf.lens[t] {
                let c = pf.read_classes[r] as usize;
                let g = class_grid[c];
                let st = inner_step[c];
                let start = cur[c] + pf.read_deltas[r] + done as isize * st;
                for i in 0..len {
                    prod[i] *= view.read(g, start + i as isize * st);
                }
                r += 1;
            }
            for i in 0..len {
                acc[i] += prod[i];
            }
        }
        for i in 0..len {
            view.write(out_grid, out_start + (done + i) as isize * out_step, acc[i]);
        }
        done += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{
        weights2, Component, DomainUnion, Expr, RectDomain, ShapeMap, Stencil, StencilGroup,
    };
    use snowflake_grid::{Grid, GridSet};
    use snowflake_ir::{lower_group, LowerOptions};

    fn lower(group: &StencilGroup, shapes: &ShapeMap) -> Lowered {
        lower_group(group, shapes, &LowerOptions::default()).unwrap()
    }

    fn run(lowered: &Lowered, gs: &mut GridSet) {
        let (ptrs, lens) = crate::check_and_ptrs(lowered, gs).unwrap();
        let view = GridPtrs::new(&ptrs, &lens);
        for phase in &lowered.phases {
            for &ki in phase {
                let k = &lowered.kernels[ki];
                for r in &k.regions {
                    unsafe { crate::exec::run_kernel_region(k, &view, r) };
                }
            }
        }
    }

    /// The per-point `checked` reference: the same closed forms, one
    /// point at a time in canonical order, with range-checked accesses.
    fn run_checked(group: &StencilGroup, gs: &mut GridSet) {
        use crate::{Backend, CheckedBackend};
        let exe = CheckedBackend::new().compile(group, &gs.shapes()).unwrap();
        exe.run(gs).unwrap();
    }

    /// Bitwise row executors ≡ per-point reference across a matrix of
    /// kernel shapes: unit linear (Laplacian), strided linear (red-black
    /// constant coefficient), strided poly (red-black variable
    /// coefficient), and sequential in-place linear and poly kernels (rows
    /// of one-point chunks).
    #[test]
    fn specialized_execution_is_bitwise_identical() {
        let n = 18;
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let (red, black) = DomainUnion::red_black(2);
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let vc = m(0, 0)
            + Expr::read_at("beta", &[0, 0])
                * (Expr::read_at("rhs", &[0, 0]) - (m(1, 0) + m(-1, 0) + m(0, 1) + m(0, -1)));
        let lex = m(-1, 0) * 0.5 + m(0, -1) * 0.25 + m(0, 0) * 0.25;
        let groups: Vec<StencilGroup> = vec![
            StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2))),
            StencilGroup::new()
                .with(Stencil::new(m(0, 0) * 0.9 + 0.1, "mesh", red.clone()))
                .with(Stencil::new(m(0, 0) * 0.9 + 0.1, "mesh", black.clone())),
            StencilGroup::new()
                .with(Stencil::new(vc.clone(), "mesh", red))
                .with(Stencil::new(vc.clone(), "mesh", black)),
            StencilGroup::from(Stencil::new(lex, "mesh", RectDomain::interior(2))),
            StencilGroup::from(Stencil::new(vc, "mesh", RectDomain::interior(2))),
        ];
        for group in &groups {
            let mut gs_base = GridSet::new();
            for (g, seed) in [("x", 1u64), ("y", 2), ("mesh", 3), ("rhs", 4), ("beta", 5)] {
                let mut grid = Grid::new(&[n, n]);
                grid.fill_random(seed, 0.5, 1.5);
                gs_base.insert(g, grid);
            }
            let mut spec = lower(group, &gs_base.shapes());
            let stats = specialize_lowered(&mut spec);
            assert_eq!(stats.kernels_interpreted, 0, "every kernel has a form");
            let mut gs_checked = gs_base.clone();
            let mut gs_spec = gs_base;
            run_checked(group, &mut gs_checked);
            run(&spec, &mut gs_spec);
            for name in ["x", "y", "mesh", "rhs", "beta"] {
                assert_eq!(
                    gs_checked.get(name).unwrap().as_slice(),
                    gs_spec.get(name).unwrap().as_slice(),
                    "grid {name} diverged"
                );
            }
        }
    }

    #[test]
    fn sequential_kernels_get_closed_forms_too() {
        // Lexicographic in-place propagation: not parallel-safe, yet its
        // form is derived like any other (it runs in one-point chunks).
        let s = Stencil::new(Expr::read_at("x", &[0, -1]), "x", RectDomain::interior(2));
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![8, 8]);
        let mut lowered = lower(&StencilGroup::from(s), &shapes);
        assert!(!lowered.kernels[0].parallel_safe);
        let stats = specialize_lowered(&mut lowered);
        assert_eq!(stats.kernels_specialized, 1);
        assert_eq!(stats.kernels_interpreted, 0);
        assert!(matches!(
            lowered.kernels[0].form,
            Some(ClosedForm::Linear(_))
        ));
    }

    #[test]
    fn wide_linear_kernels_use_the_dynamic_path_correctly() {
        // A full 27-point constant stencil — beyond MAX_FUSED_ARITY, so
        // the dynamic-arity executor runs. Results must stay bitwise equal.
        let mut e = Expr::Const(0.5);
        for di in -1i64..=1 {
            for dj in -1i64..=1 {
                for dk in -1i64..=1 {
                    e = e + Expr::read_at("x", &[di, dj, dk])
                        * (1.0 + (di * 9 + dj * 3 + dk) as f64 * 0.125);
                }
            }
        }
        let group = StencilGroup::from(Stencil::new(e, "y", RectDomain::interior(3)));
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[10, 10, 10]);
        x.fill_random(9, -1.0, 1.0);
        gs.insert("x", x);
        gs.insert("y", Grid::new(&[10, 10, 10]));
        let mut spec = lower(&group, &gs.shapes());
        specialize_lowered(&mut spec);
        let Some(ClosedForm::Linear(lf)) = &spec.kernels[0].form else {
            panic!("27-point stencil must linearize");
        };
        assert!(lf.arity() > MAX_FUSED_ARITY);
        let mut gs_spec = gs.clone();
        run_checked(&group, &mut gs);
        run(&spec, &mut gs_spec);
        assert_eq!(
            gs.get("y").unwrap().as_slice(),
            gs_spec.get("y").unwrap().as_slice()
        );
    }

    #[test]
    fn spec_stats_reflect_the_lowered_group() {
        // A parallel-safe linear kernel, a sequential linear kernel and a
        // division by a read (bytecode only).
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::new()
            .with(Stencil::new(lap, "y", RectDomain::interior(2)))
            .with(Stencil::new(
                Expr::read_at("y", &[0, -1]),
                "y",
                RectDomain::interior(2),
            ))
            .with(Stencil::new(
                Expr::Const(1.0) / Expr::read_at("x", &[0, 0]),
                "z",
                RectDomain::interior(2),
            ));
        let mut shapes = ShapeMap::new();
        for g in ["x", "y", "z"] {
            shapes.insert(g.into(), vec![8, 8]);
        }
        let mut lowered = lower(&group, &shapes);
        let pass = specialize_lowered(&mut lowered);
        let counted = spec_stats_of(&lowered);
        assert_eq!(pass, counted);
        assert_eq!(counted.kernels_specialized, 2);
        assert_eq!(counted.kernels_interpreted, 1);
    }
}
