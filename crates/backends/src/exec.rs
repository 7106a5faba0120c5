//! The shared kernel executor: runs one lowered kernel over one region.
//!
//! The tiled presets (`seq`, `omp`, `oclsim`) and `dist` funnel into
//! [`run_kernel_region`]. The loop nest walks the region in row-major
//! order, keeping one linear *cursor* per access class; the innermost loop
//! advances the cursors by precomputed steps and evaluates the kernel's
//! closed form through the row executors of [`crate::specialize`] (chunked
//! for parallel-safe kernels, one point at a time for sequential ones), or
//! the bytecode program when the kernel has no closed form.
//!
//! Execution order within a region is canonical row-major, which defines
//! the semantics of kernels that are *not* parallel-safe (lexicographic
//! Gauss-Seidel); parallel-safe kernels are order-independent by the
//! Diophantine proof, so backends may split regions freely.

#![allow(clippy::needless_range_loop)] // cursor bumps index parallel fixed arrays

use snowflake_grid::{Region, MAX_DIMS};
use snowflake_ir::{LoweredKernel, Op};

use crate::specialize::{run_row_strided, run_row_unit, CHUNK};
use crate::view::GridPtrs;

/// Maximum cursor classes per kernel (grids × distinct scales).
pub const MAX_CLASSES: usize = 16;
/// Maximum bytecode stack depth.
pub const MAX_STACK: usize = 32;

/// Check executor limits for a kernel; backends call this at compile time
/// so `run_kernel_region` can use fixed-size scratch arrays.
pub fn check_limits(kernel: &LoweredKernel) -> snowflake_core::Result<()> {
    if kernel.classes.len() > MAX_CLASSES {
        return Err(snowflake_core::CoreError::Backend(format!(
            "kernel {:?} uses {} access classes (limit {MAX_CLASSES})",
            kernel.name,
            kernel.classes.len()
        )));
    }
    if kernel.program.stack_need > MAX_STACK {
        return Err(snowflake_core::CoreError::Backend(format!(
            "kernel {:?} needs stack depth {} (limit {MAX_STACK})",
            kernel.name, kernel.program.stack_need
        )));
    }
    Ok(())
}

/// Execute `kernel` over `region` through `view`.
///
/// # Safety
/// The caller must guarantee:
/// * `view` holds valid pointers for every grid the kernel addresses, with
///   the shapes the kernel was lowered for (so all accesses are in
///   bounds — established by `Stencil::validate`);
/// * no other thread concurrently accesses any cell this invocation
///   touches (established by the dependence analysis / barrier phases).
pub unsafe fn run_kernel_region(kernel: &LoweredKernel, view: &GridPtrs<'_>, region: &Region) {
    if region.is_empty() {
        return;
    }
    let row = RowPlan::new(kernel, region);
    // SAFETY: forwarded from this function's contract.
    for_each_row(region, |p| unsafe { row.run(view, p) });
}

/// Execute the kernels `ids` of `kernels` *fused* over one shared region:
/// a single traversal of the iteration space, with every kernel's row
/// evaluated back-to-back while the data is cache-resident (§VII's "mark
/// stencils for fusion", taken to execution).
///
/// # Safety
/// As [`run_kernel_region`], for every kernel; additionally the kernels
/// must be mutually independent (same barrier phase), so any interleaving
/// of their iterations is legal.
pub unsafe fn run_fused_region(
    kernels: &[LoweredKernel],
    ids: &[usize],
    view: &GridPtrs<'_>,
    region: &Region,
) {
    if region.is_empty() {
        return;
    }
    let rows: Vec<RowPlan<'_>> = ids
        .iter()
        .map(|&k| RowPlan::new(&kernels[k], region))
        .collect();
    for_each_row(region, |p| {
        for row in &rows {
            // SAFETY: forwarded from this function's contract.
            unsafe { row.run(view, p) };
        }
    });
}

/// Visit the first point of every innermost row of `region`, in
/// row-major order. `region` must be non-empty.
#[inline(always)]
fn for_each_row(region: &Region, mut row: impl FnMut(&[i64])) {
    let nd = region.ndim();
    let mut p = [0i64; MAX_DIMS];
    p[..nd].copy_from_slice(&region.lo);
    loop {
        row(&p[..nd]);
        if nd == 1 {
            return;
        }
        let mut d = nd - 2;
        loop {
            p[d] += region.stride[d];
            if p[d] < region.hi[d] {
                break;
            }
            p[d] = region.lo[d];
            if d == 0 {
                return;
            }
            d -= 1;
        }
    }
}

/// The row-invariant part of one kernel's walk over one region: the
/// per-class grid table and innermost cursor steps.
pub(crate) struct RowPlan<'k> {
    pub(crate) kernel: &'k LoweredKernel,
    pub(crate) class_grid: [usize; MAX_CLASSES],
    pub(crate) inner_step: [isize; MAX_CLASSES],
    pub(crate) out_step: isize,
    pub(crate) count: i64,
    /// Every cursor (the output's included) advances by 1 along the row.
    unit: bool,
}

impl<'k> RowPlan<'k> {
    fn new(kernel: &'k LoweredKernel, region: &Region) -> Self {
        let last = region.ndim() - 1;
        let ncls = kernel.classes.len();
        debug_assert!(ncls <= MAX_CLASSES);
        let mut class_grid = [0usize; MAX_CLASSES];
        let mut inner_step = [0isize; MAX_CLASSES];
        for (c, cl) in kernel.classes.iter().enumerate() {
            class_grid[c] = cl.grid;
            inner_step[c] = cl.step(last, region.stride[last]);
        }
        RowPlan {
            kernel,
            class_grid,
            inner_step,
            out_step: inner_step[kernel.out_class as usize],
            count: region.extent(last),
            unit: inner_step[..ncls].iter().all(|&st| st == 1),
        }
    }

    /// Evaluate the row starting at point `p`.
    ///
    /// # Safety
    /// As [`run_kernel_region`].
    #[inline(always)]
    unsafe fn run(&self, view: &GridPtrs<'_>, p: &[i64]) {
        let kernel = self.kernel;
        let mut cur = [0isize; MAX_CLASSES];
        for (c, cl) in kernel.classes.iter().enumerate() {
            cur[c] = cl.cursor_at(p);
        }
        let mut out_idx = cur[kernel.out_class as usize] + kernel.out_delta;
        // Parallel-safe kernels take chunked rows: their read-all-then-
        // write-all order is safe exactly because the Diophantine analysis
        // proved no iteration reads another iteration's write. Sequential
        // kernels take chunks of one point, i.e. canonical point order.
        match &kernel.form {
            Some(form) if kernel.parallel_safe && self.unit => {
                run_row_unit(form, view, self, &cur, out_idx);
            }
            Some(form) if kernel.parallel_safe => {
                run_row_strided::<CHUNK>(form, view, self, &cur, out_idx);
            }
            Some(form) => run_row_strided::<1>(form, view, self, &cur, out_idx),
            None => {
                for _ in 0..self.count {
                    let v = eval_bytecode(kernel, &cur, &self.class_grid, view);
                    view.write(kernel.out_grid, out_idx, v);
                    for s in 0..kernel.classes.len() {
                        cur[s] += self.inner_step[s];
                    }
                    out_idx += self.out_step;
                }
            }
        }
    }
}

/// Evaluate the bytecode program at the current cursors.
#[inline(always)]
unsafe fn eval_bytecode(
    kernel: &LoweredKernel,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    view: &GridPtrs<'_>,
) -> f64 {
    let mut stack = [0.0f64; MAX_STACK];
    let mut sp = 0usize;
    for op in &kernel.program.ops {
        match *op {
            Op::Const(c) => {
                stack[sp] = c;
                sp += 1;
            }
            Op::Read { class, delta } => {
                stack[sp] = view.read(class_grid[class as usize], cur[class as usize] + delta);
                sp += 1;
            }
            Op::Add => {
                sp -= 1;
                stack[sp - 1] += stack[sp];
            }
            Op::Sub => {
                sp -= 1;
                stack[sp - 1] -= stack[sp];
            }
            Op::Mul => {
                sp -= 1;
                stack[sp - 1] *= stack[sp];
            }
            Op::Div => {
                sp -= 1;
                stack[sp - 1] /= stack[sp];
            }
            Op::Neg => stack[sp - 1] = -stack[sp - 1],
        }
    }
    debug_assert_eq!(sp, 1);
    stack[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{weights2, Component, Expr, RectDomain, ShapeMap, Stencil, StencilGroup};
    use snowflake_grid::{Grid, GridSet};
    use snowflake_ir::{lower_group, ClosedForm, LowerOptions};

    fn setup(n: usize) -> (GridSet, ShapeMap) {
        let mut gs = GridSet::new();
        let mut x = Grid::new(&[n, n]);
        x.fill_random(7, -1.0, 1.0);
        gs.insert("x", x);
        gs.insert("y", Grid::new(&[n, n]));
        let mut beta = Grid::new(&[n, n]);
        beta.fill_random(9, 0.5, 1.5);
        gs.insert("beta", beta);
        let shapes = gs.shapes();
        (gs, shapes)
    }

    /// Run through the bytecode program (no closed forms attached).
    fn run_one(group: &StencilGroup, gs: &mut GridSet) {
        run_lowered(group, gs, false);
    }

    /// As `run_one`, optionally attaching closed forms first.
    fn run_lowered(group: &StencilGroup, gs: &mut GridSet, specialize: bool) {
        let mut lowered = lower_group(group, &gs.shapes(), &LowerOptions::default()).unwrap();
        if specialize {
            crate::specialize::specialize_lowered(&mut lowered);
            assert!(
                lowered.kernels.iter().all(|k| k.form.is_some()),
                "the row executors must be engaged"
            );
        }
        let (ptrs, lens) = crate::check_and_ptrs(&lowered, gs).unwrap();
        let view = GridPtrs::new(&ptrs, &lens);
        for k in &lowered.kernels {
            check_limits(k).unwrap();
            for r in &k.regions {
                unsafe { run_kernel_region(k, &view, r) };
            }
        }
    }

    #[test]
    // The reference loop indexes with interior points; casts are exact.
    #[allow(clippy::cast_possible_truncation)]
    fn laplacian_matches_expr_eval() {
        let n = 12;
        let (mut gs, shapes) = setup(n);
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let s = Stencil::new(lap, "y", RectDomain::interior(2));
        let expr = s.expr().clone();
        let group = StencilGroup::from(s);
        let reference = {
            let x = gs.get("x").unwrap().clone();
            let mut want = Grid::new(&[n, n]);
            let region = RectDomain::interior(2).resolve(&[n, n]).unwrap();
            for p in region.points() {
                let v = expr.eval(&p, &mut |_, idx| x.get(&[idx[0] as usize, idx[1] as usize]));
                want.set(&[p[0] as usize, p[1] as usize], v);
            }
            want
        };
        run_one(&group, &mut gs);
        assert_eq!(gs.get("y").unwrap().max_abs_diff(&reference), 0.0);
        let _ = shapes;
    }

    #[test]
    fn variable_coefficient_bytecode_path() {
        let n = 10;
        let (mut gs, _) = setup(n);
        // y = beta * (x[+1] - x[-1]) — not linearizable.
        let e = Expr::read_at("beta", &[0, 0])
            * (Expr::read_at("x", &[0, 1]) - Expr::read_at("x", &[0, -1]));
        let s = Stencil::new(e.clone(), "y", RectDomain::interior(2));
        let group = StencilGroup::from(s);
        let mut lowered = lower_group(&group, &gs.shapes(), &LowerOptions::default()).unwrap();
        crate::specialize::specialize_lowered(&mut lowered);
        assert!(
            matches!(lowered.kernels[0].form, Some(ClosedForm::Poly(_))),
            "must not linearize"
        );
        let (x, beta) = (
            gs.get("x").unwrap().clone(),
            gs.get("beta").unwrap().clone(),
        );
        run_one(&group, &mut gs);
        let y = gs.get("y").unwrap();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let want = beta.get(&[i, j]) * (x.get(&[i, j + 1]) - x.get(&[i, j - 1]));
                assert!((y.get(&[i, j]) - want).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn linear_fast_path_is_used_and_correct() {
        let n = 10;
        let (mut gs, _) = setup(n);
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2)));
        let mut lowered = lower_group(&group, &gs.shapes(), &LowerOptions::default()).unwrap();
        crate::specialize::specialize_lowered(&mut lowered);
        assert!(
            matches!(lowered.kernels[0].form, Some(ClosedForm::Linear(_))),
            "should linearize"
        );
        let x = gs.get("x").unwrap().clone();
        run_lowered(&group, &mut gs, true);
        let y = gs.get("y").unwrap();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let want = x.get(&[i - 1, j])
                    + x.get(&[i + 1, j])
                    + x.get(&[i, j - 1])
                    + x.get(&[i, j + 1])
                    - 4.0 * x.get(&[i, j]);
                assert!((y.get(&[i, j]) - want).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn strided_region_execution() {
        let n = 9;
        let (mut gs, _) = setup(n);
        // Write 1.0 to red points only.
        let s = Stencil::new(
            Expr::Const(1.0),
            "y",
            RectDomain::new(&[1, 1], &[-1, -1], &[2, 2]),
        );
        run_one(&StencilGroup::from(s), &mut gs);
        let y = gs.get("y").unwrap();
        for i in 0..n {
            for j in 0..n {
                let expect = if i % 2 == 1 && j % 2 == 1 && i < n - 1 && j < n - 1 {
                    1.0
                } else {
                    0.0
                };
                assert_eq!(y.get(&[i, j]), expect, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn in_place_sequential_gauss_seidel_semantics() {
        // x[p] = x[p-1] over 1-D: serial semantics propagate the first
        // cell, through the bytecode program and through the closed form.
        for specialize in [false, true] {
            let mut gs = GridSet::new();
            let mut x = Grid::new(&[6]);
            x.as_mut_slice()
                .copy_from_slice(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
            gs.insert("x", x);
            let s = Stencil::new(
                Expr::read_at("x", &[-1]),
                "x",
                RectDomain::new(&[1], &[0], &[1]),
            );
            run_lowered(&StencilGroup::from(s), &mut gs, specialize);
            assert_eq!(gs.get("x").unwrap().as_slice(), &[9.0; 6], "{specialize}");
        }
    }

    #[test]
    fn scaled_restriction_kernel() {
        // coarse[p] = (fine[2p] + fine[2p+1]) * 0.5 over p in [0, 4).
        let mut gs = GridSet::new();
        let fine = Grid::from_fn(&[8], |i| i[0] as f64);
        gs.insert("fine", fine);
        gs.insert("coarse", Grid::new(&[4]));
        let e = (Expr::read_mapped("fine", snowflake_core::AffineMap::scaled(vec![2], vec![0]))
            + Expr::read_mapped("fine", snowflake_core::AffineMap::scaled(vec![2], vec![1])))
            * 0.5;
        let s = Stencil::new(e, "coarse", RectDomain::new(&[0], &[0], &[1]));
        run_one(&StencilGroup::from(s), &mut gs);
        assert_eq!(gs.get("coarse").unwrap().as_slice(), &[0.5, 2.5, 4.5, 6.5]);
    }

    #[test]
    fn vectorized_rows_handle_chunk_boundaries() {
        // Rows shorter than, equal to, and longer than the CHUNK length
        // must all agree with the reference (off-by-ones at chunk seams
        // are the classic failure).
        use crate::specialize::CHUNK;
        for n in [3usize, CHUNK, CHUNK + 1, 2 * CHUNK + 7] {
            let shape = [3usize, n + 2];
            let mut gs = GridSet::new();
            let mut x = Grid::new(&shape);
            x.fill_random(n as u64, -1.0, 1.0);
            gs.insert("x", x);
            gs.insert("y", Grid::new(&shape));
            // Linear kernel (unit path) over a full row.
            let e = Expr::read_at("x", &[0, 1]) * 2.0 + Expr::read_at("x", &[0, -1]);
            let s = Stencil::new(e.clone(), "y", RectDomain::interior(2));
            run_lowered(&StencilGroup::from(s), &mut gs, true);
            let xg = gs.get("x").unwrap().clone();
            let y = gs.get("y").unwrap();
            for j in 1..=n {
                let want = 2.0 * xg.get(&[1, j + 1]) + xg.get(&[1, j - 1]);
                assert_eq!(y.get(&[1, j]), want, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn poly_rows_handle_chunk_boundaries() {
        use crate::specialize::CHUNK;
        for n in [CHUNK - 1, CHUNK, CHUNK + 3] {
            let shape = [3usize, n + 2];
            let mut gs = GridSet::new();
            let mut x = Grid::new(&shape);
            x.fill_random(7, -1.0, 1.0);
            gs.insert("x", x);
            let mut c = Grid::new(&shape);
            c.fill_random(8, 0.5, 1.5);
            gs.insert("c", c);
            gs.insert("y", Grid::new(&shape));
            let e = Expr::read_at("c", &[0, 0]) * Expr::read_at("x", &[0, 1]);
            let s = Stencil::new(e, "y", RectDomain::interior(2));
            run_lowered(&StencilGroup::from(s), &mut gs, true);
            let (xg, cg) = (gs.get("x").unwrap().clone(), gs.get("c").unwrap().clone());
            let y = gs.get("y").unwrap();
            for j in 1..=n {
                let want = cg.get(&[1, j]) * xg.get(&[1, j + 1]);
                assert!((y.get(&[1, j]) - want).abs() < 1e-15, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn three_d_kernel() {
        let n = 6;
        let mut gs = GridSet::new();
        let x = Grid::from_fn(&[n, n, n], |p| (p[0] + 10 * p[1] + 100 * p[2]) as f64);
        gs.insert("x", x.clone());
        gs.insert("y", Grid::new(&[n, n, n]));
        let e = Expr::read_at("x", &[1, 0, 0]) - Expr::read_at("x", &[-1, 0, 0]);
        let s = Stencil::new(e, "y", RectDomain::interior(3));
        run_one(&StencilGroup::from(s), &mut gs);
        let y = gs.get("y").unwrap();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                for k in 1..n - 1 {
                    assert_eq!(y.get(&[i, j, k]), 2.0, "at ({i},{j},{k})");
                }
            }
        }
    }
}
