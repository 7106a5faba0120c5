//! Plan-time kernel specialization: closed-form executors for matched
//! stencils.
//!
//! [`specialize_lowered`] pattern-matches each lowered kernel's arithmetic
//! into the closed forms of [`snowflake_ir::spec`] — constant-coefficient
//! linear stencils (7-point/27-point Laplacians, restriction and
//! interpolation weights, boundary reflections) and bounded sums of
//! products (variable-coefficient GSRB smooth) — and attaches the
//! structure-of-arrays record to [`LoweredKernel::spec`]. The executors in
//! this module then run matched rows through tight chunked inner loops
//! over contiguous slices (unit stride) or precomputed strided index
//! chains, which LLVM auto-vectorizes. Every compiled backend runs this
//! pass; it is the only chunked evaluator. Kernels that do not match — or
//! are not parallel-safe, whose canonical lexicographic order must be
//! preserved point by point — keep `spec = None` and run the per-point
//! linear/poly forms or the bytecode program in [`crate::exec`].
//!
//! **Bitwise contract**: every executor here performs, per output
//! element, the identical floating-point operation sequence as the
//! per-point linear/poly row forms (`acc = bias; acc += coeff·read` in
//! term order; `prod = coeff; prod *= read…; acc += prod` for poly).
//! Chunking and fusion only reorder work *across* independent elements of
//! parallel-safe kernels — never within one element — so specialized
//! results are bitwise equal to the unspecialized `checked` reference
//! backend. The equivalence suite in `tests/specialize_equivalence.rs`
//! asserts this on the full HPGMG V-cycle.

#![allow(clippy::needless_range_loop)] // chunk indices address parallel fixed arrays

use snowflake_ir::spec::{SpecForm, SpecKernel, SpecLinear, SpecPoly};
use snowflake_ir::Lowered;

use crate::exec::MAX_CLASSES;
use crate::metrics::SpecStats;
use crate::view::GridPtrs;

/// Row chunk length for the specialized executors: long enough to
/// amortize loop overhead, short enough that acc/prod scratch stays in L1.
pub(crate) const CHUNK: usize = 128;

/// Largest term count monomorphized into a fused fixed-arity inner loop;
/// wider linear kernels use the dynamic-arity pass executor (bitwise
/// identical, just less completely unrolled).
const MAX_FUSED_ARITY: usize = 16;

/// Attach closed-form specialization records to every kernel that
/// matches: parallel-safe kernels with a linear or poly fast-path form.
/// Kernels that stay on the interpreter (bytecode-only arithmetic, or
/// sequential kernels whose lexicographic point order is semantic) keep
/// `spec = None`. Returns hit/miss counts for [`crate::metrics`].
pub fn specialize_lowered(lowered: &mut Lowered) -> SpecStats {
    let mut stats = SpecStats::default();
    for kernel in &mut lowered.kernels {
        kernel.spec = if kernel.parallel_safe {
            SpecKernel::from_forms(kernel.linear.as_ref(), kernel.poly.as_ref())
        } else {
            None
        };
        if kernel.spec.is_some() {
            stats.kernels_specialized += 1;
        } else {
            stats.kernels_interpreted += 1;
        }
    }
    stats
}

/// Per-run specialization counters for a lowered group: how many kernels
/// run specialized vs interpreted (static facts of the compiled plan,
/// accumulated into reports per run like the other kernel counters).
pub fn spec_stats_of(lowered: &Lowered) -> SpecStats {
    let specialized = lowered.kernels.iter().filter(|k| k.spec.is_some()).count() as u64;
    SpecStats {
        kernels_specialized: specialized,
        kernels_interpreted: lowered.kernels.len() as u64 - specialized,
    }
}

/// Execute one specialized row with unit-stride cursors (all classes step
/// by 1 and the output steps by 1).
///
/// # Safety
/// As `exec::run_kernel_region`: `view` must hold valid pointers for the
/// shapes the kernel was lowered against, and no other thread may touch
/// the cells this row accesses. The kernel must be parallel-safe (the
/// chunked read-all-then-write-all order requires order-independence).
#[inline(always)]
pub(crate) unsafe fn run_row_spec_unit(
    spec: &SpecKernel,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    count: i64,
    out_grid: usize,
    out_start: isize,
) {
    // count is a non-negative region extent; the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    let total = count as usize;
    match &spec.form {
        SpecForm::Linear(sl) => {
            lin_unit_dispatch(sl, view, cur, class_grid, total, out_grid, out_start);
        }
        SpecForm::Poly(sp) => poly_unit(sp, view, cur, class_grid, total, out_grid, out_start),
    }
}

/// Execute one specialized row with arbitrary per-class strides (e.g. the
/// stride-2 red/black color rows of a GSRB smooth).
///
/// # Safety
/// As [`run_row_spec_unit`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn run_row_spec_strided(
    spec: &SpecKernel,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    count: i64,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    // count is a non-negative region extent; the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    let total = count as usize;
    match &spec.form {
        SpecForm::Linear(sl) => lin_strided(
            sl, view, cur, class_grid, inner_step, total, out_grid, out_start, out_step,
        ),
        SpecForm::Poly(sp) => poly_strided(
            sp, view, cur, class_grid, inner_step, total, out_grid, out_start, out_step,
        ),
    }
}

/// Monomorphize the fused unit-stride linear loop over the term count so
/// the inner accumulation fully unrolls and the chunk loop vectorizes.
unsafe fn lin_unit_dispatch(
    sl: &SpecLinear,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    macro_rules! arms {
        ($($n:literal),*) => {
            match sl.arity() {
                $($n => lin_unit_fixed::<$n>(sl, view, cur, class_grid, total, out_grid, out_start),)*
                _ => lin_unit_dyn(sl, view, cur, class_grid, total, out_grid, out_start),
            }
        };
    }
    arms!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16);
}

/// Fused fixed-arity unit-stride linear executor: one pass over the row
/// reading all `N` source slices, accumulating in term order per element.
unsafe fn lin_unit_fixed<const N: usize>(
    sl: &SpecLinear,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
) {
    debug_assert!(N <= MAX_FUSED_ARITY && sl.arity() == N);
    let bias = sl.bias;
    let mut coef = [0.0f64; N];
    coef.copy_from_slice(&sl.coeffs[..N]);
    let mut grid = [0usize; N];
    let mut start = [0isize; N];
    for t in 0..N {
        let c = sl.classes[t] as usize;
        grid[t] = class_grid[c];
        start[t] = cur[c] + sl.deltas[t];
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
    sl: &SpecLinear,
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
        acc[..len].fill(sl.bias);
        for t in 0..sl.arity() {
            let c = sl.classes[t] as usize;
            let k = sl.coeffs[t];
            let src = view.row(class_grid[c], cur[c] + sl.deltas[t] + done as isize, len);
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
    sp: &SpecPoly,
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
        acc[..len].fill(sp.bias);
        let mut r = 0usize;
        for (t, &coeff) in sp.coeffs.iter().enumerate() {
            prod[..len].fill(coeff);
            for _ in 0..sp.lens[t] {
                let c = sp.read_classes[r] as usize;
                let src = view.row(
                    class_grid[c],
                    cur[c] + sp.read_deltas[r] + done as isize,
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
unsafe fn lin_strided(
    sl: &SpecLinear,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    let mut acc = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        acc[..len].fill(sl.bias);
        for t in 0..sl.arity() {
            let c = sl.classes[t] as usize;
            let g = class_grid[c];
            let k = sl.coeffs[t];
            let st = inner_step[c];
            let start = cur[c] + sl.deltas[t] + done as isize * st;
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
/// here. Chunked per-read multiply passes break the per-point serial
/// multiply-accumulate chain of the generic path into independent
/// per-element work the compiler can pipeline and vectorize.
#[allow(clippy::too_many_arguments)]
unsafe fn poly_strided(
    sp: &SpecPoly,
    view: &GridPtrs<'_>,
    cur: &[isize; MAX_CLASSES],
    class_grid: &[usize; MAX_CLASSES],
    inner_step: &[isize; MAX_CLASSES],
    total: usize,
    out_grid: usize,
    out_start: isize,
    out_step: isize,
) {
    let mut acc = [0.0f64; CHUNK];
    let mut prod = [0.0f64; CHUNK];
    let mut done = 0usize;
    while done < total {
        let len = CHUNK.min(total - done);
        acc[..len].fill(sp.bias);
        let mut r = 0usize;
        for (t, &coeff) in sp.coeffs.iter().enumerate() {
            prod[..len].fill(coeff);
            for _ in 0..sp.lens[t] {
                let c = sp.read_classes[r] as usize;
                let g = class_grid[c];
                let st = inner_step[c];
                let start = cur[c] + sp.read_deltas[r] + done as isize * st;
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

    /// Bitwise spec-on ≡ spec-off across a matrix of kernel shapes: unit
    /// linear (Laplacian), strided linear (red-black constant
    /// coefficient), strided poly (red-black variable coefficient), and a
    /// sequential in-place kernel that must decline specialization.
    #[test]
    fn specialized_execution_is_bitwise_identical() {
        let n = 18;
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let (red, black) = DomainUnion::red_black(2);
        let m = |i: i64, j: i64| Expr::read_at("mesh", &[i, j]);
        let vc = m(0, 0)
            + Expr::read_at("beta", &[0, 0])
                * (Expr::read_at("rhs", &[0, 0]) - (m(1, 0) + m(-1, 0) + m(0, 1) + m(0, -1)));
        let groups: Vec<StencilGroup> = vec![
            StencilGroup::from(Stencil::new(lap, "y", RectDomain::interior(2))),
            StencilGroup::new()
                .with(Stencil::new(m(0, 0) * 0.9 + 0.1, "mesh", red.clone()))
                .with(Stencil::new(m(0, 0) * 0.9 + 0.1, "mesh", black.clone())),
            StencilGroup::new()
                .with(Stencil::new(vc.clone(), "mesh", red))
                .with(Stencil::new(vc, "mesh", black)),
        ];
        for group in &groups {
            let mut gs_base = GridSet::new();
            for (g, seed) in [("x", 1u64), ("y", 2), ("mesh", 3), ("rhs", 4), ("beta", 5)] {
                let mut grid = Grid::new(&[n, n]);
                grid.fill_random(seed, 0.5, 1.5);
                gs_base.insert(g, grid);
            }
            let shapes = gs_base.shapes();
            let plain = lower(group, &shapes);
            let mut spec = plain.clone();
            let stats = specialize_lowered(&mut spec);
            assert!(stats.kernels_specialized > 0, "nothing specialized");
            let mut gs_plain = gs_base.clone();
            let mut gs_spec = gs_base;
            run(&plain, &mut gs_plain);
            run(&spec, &mut gs_spec);
            for name in ["x", "y", "mesh", "rhs", "beta"] {
                assert_eq!(
                    gs_plain.get(name).unwrap().as_slice(),
                    gs_spec.get(name).unwrap().as_slice(),
                    "grid {name} diverged"
                );
            }
        }
    }

    #[test]
    fn sequential_kernels_are_never_specialized() {
        // Lexicographic in-place propagation: specializing would break the
        // canonical point order.
        let s = Stencil::new(Expr::read_at("x", &[0, -1]), "x", RectDomain::interior(2));
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![8, 8]);
        let mut lowered = lower(&StencilGroup::from(s), &shapes);
        let stats = specialize_lowered(&mut lowered);
        assert_eq!(stats.kernels_specialized, 0);
        assert_eq!(stats.kernels_interpreted, 1);
        assert!(lowered.kernels[0].spec.is_none());
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
        let shapes = gs.shapes();
        let plain = lower(&group, &shapes);
        assert!(plain.kernels[0].linear.as_ref().unwrap().terms.len() > MAX_FUSED_ARITY);
        let mut spec = plain.clone();
        specialize_lowered(&mut spec);
        let mut gs_spec = gs.clone();
        run(&plain, &mut gs);
        run(&spec, &mut gs_spec);
        assert_eq!(
            gs.get("y").unwrap().as_slice(),
            gs_spec.get("y").unwrap().as_slice()
        );
    }

    #[test]
    fn spec_stats_reflect_the_lowered_group() {
        let lap = Component::new("x", weights2![[0, 1, 0], [1, -4, 1], [0, 1, 0]]);
        let group = StencilGroup::new()
            .with(Stencil::new(lap, "y", RectDomain::interior(2)))
            .with(Stencil::new(
                Expr::read_at("y", &[0, -1]),
                "y",
                RectDomain::interior(2),
            ));
        let mut shapes = ShapeMap::new();
        shapes.insert("x".into(), vec![8, 8]);
        shapes.insert("y".into(), vec![8, 8]);
        let mut lowered = lower(&group, &shapes);
        let pass = specialize_lowered(&mut lowered);
        let counted = spec_stats_of(&lowered);
        assert_eq!(pass, counted);
        assert_eq!(counted.kernels_specialized, 1);
        assert_eq!(counted.kernels_interpreted, 1);
    }
}
