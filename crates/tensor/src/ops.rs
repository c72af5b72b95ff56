//! Element-wise and broadcasting operations with manual gradients.
//!
//! The GELU passes split into element blocks on the shared compute pool
//! ([`crate::pool`]); each element is written by exactly one task, so
//! results are bitwise independent of the thread count. Their loop bodies
//! are instantiated portable, AVX2 and AVX-512, and dispatched on the same
//! CPU probe as the GEMM microkernel ([`Isa::host`]); all three compute
//! the same bits.

use crate::gemm::Isa;
use crate::pool::{self, SendPtr};
use crate::tensor::Tensor;

/// Adds `bias` (length = cols) to every row of `x`, in place.
///
/// This is the paper's "bias-add" non-SUMMA operation (Fig. 5): in the 2D
/// scheme the bias slice lives on mesh row 0 and is broadcast down columns
/// before this local op runs.
pub fn bias_add(x: &mut Tensor, bias: &[f32]) {
    let cols = x.cols();
    assert_eq!(
        bias.len(),
        cols,
        "bias length {} != cols {}",
        bias.len(),
        cols
    );
    for row in x.as_mut_slice().chunks_mut(cols) {
        for (v, b) in row.iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
}

/// Gradient of [`bias_add`] with respect to the bias: column-wise sum of the
/// upstream gradient.
pub fn bias_grad(dy: &Tensor) -> Vec<f32> {
    let cols = dy.cols();
    let mut g = vec![0.0f32; cols];
    for row in dy.as_slice().chunks(cols) {
        for (acc, v) in g.iter_mut().zip(row.iter()) {
            *acc += v;
        }
    }
    g
}

/// `tanh(x)` as a clamped 13/6 odd rational minimax approximation (Eigen's
/// `generic_fast_tanh_float`, also used by TensorFlow and XLA).
///
/// Within 4.3e-7 of the true `tanh` on all of `f32`. The clamp at
/// ±7.905311 is where the rational reaches exactly ±1, so `tanh(±inf)` is
/// ±1 and NaN propagates; below |x| < 4e-4 it returns `x` itself. It uses
/// only `+ − × ÷`, clamp and abs, with no `mul_add`, so it vectorizes and
/// gives the same bits under every instruction set.
#[inline(always)]
#[allow(clippy::excessive_precision)]
fn tanh_rational(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_311_107_635_498_05;
    const TINY: f32 = 4e-4;
    const A1: f32 = 4.893_524_558_917_86e-3;
    const A3: f32 = 6.372_619_288_754_36e-4;
    const A5: f32 = 1.485_722_357_179_79e-5;
    const A7: f32 = 5.122_297_090_371_14e-8;
    const A9: f32 = -8.604_671_522_137_35e-11;
    const A11: f32 = 2.000_187_904_824_77e-13;
    const A13: f32 = -2.760_768_477_423_55e-16;
    const B0: f32 = 4.893_525_185_543_85e-3;
    const B2: f32 = 2.268_434_632_439_00e-3;
    const B4: f32 = 1.185_347_056_866_54e-4;
    const B6: f32 = 1.198_258_394_667_02e-6;
    let c = x.clamp(-CLAMP, CLAMP);
    let c2 = c * c;
    let p = c * ((((((A13 * c2 + A11) * c2 + A9) * c2 + A7) * c2 + A5) * c2 + A3) * c2 + A1);
    let q = ((B6 * c2 + B4) * c2 + B2) * c2 + B0;
    if x.abs() < TINY {
        x
    } else {
        p / q
    }
}

/// `sqrt(2/pi)`, the scale inside GELU's tanh.
const GELU_C: f32 = 0.797_884_6;

/// GELU in the tanh approximation of the BERT/Megatron codebases:
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`, with `tanh` from
/// [`tanh_rational`]. Within 1e-6·max(1, |x|) of the same formula in `f64`.
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_rational(GELU_C * (x + 0.044715 * x * x * x)))
}

/// Derivative of [`gelu`] (within 5e-6 of the same formula in `f64`).
#[inline(always)]
pub fn gelu_grad(x: f32) -> f32 {
    let x3 = x * x * x;
    let inner = GELU_C * (x + 0.044715 * x3);
    let t = tanh_rational(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// The GELU loop bodies, written once and instantiated per [`Isa`] below.
#[inline(always)]
fn gelu_fwd_body(xs: &mut [f32]) {
    for v in xs {
        *v = gelu(*v);
    }
}

#[inline(always)]
fn gelu_bwd_body(dy: &mut [f32], x: &[f32]) {
    for (g, &xi) in dy.iter_mut().zip(x) {
        *g *= gelu_grad(xi);
    }
}

/// # Safety
/// Must only be called on CPUs with AVX2 and FMA (checked in [`Isa::host`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gelu_fwd_avx2(xs: &mut [f32]) {
    gelu_fwd_body(xs);
}

/// # Safety
/// Must only be called on CPUs with AVX2 and FMA (checked in [`Isa::host`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gelu_bwd_avx2(dy: &mut [f32], x: &[f32]) {
    gelu_bwd_body(dy, x);
}

/// # Safety
/// Must only be called on CPUs with AVX-512F (checked in [`Isa::host`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gelu_fwd_avx512(xs: &mut [f32]) {
    gelu_fwd_body(xs);
}

/// # Safety
/// Must only be called on CPUs with AVX-512F (checked in [`Isa::host`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gelu_bwd_avx512(dy: &mut [f32], x: &[f32]) {
    gelu_bwd_body(dy, x);
}

/// `xs[i] = gelu(xs[i])` under `isa`.
fn gelu_fwd_slice(isa: Isa, xs: &mut [f32]) {
    match isa {
        Isa::Portable => gelu_fwd_body(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only constructed after runtime feature
        // detection in `Isa::host`.
        Isa::Avx2Fma => unsafe { gelu_fwd_avx2(xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for `Avx512`.
        Isa::Avx512 => unsafe { gelu_fwd_avx512(xs) },
    }
}

/// `dy[i] *= gelu_grad(x[i])` under `isa`.
fn gelu_bwd_slice(isa: Isa, dy: &mut [f32], x: &[f32]) {
    match isa {
        Isa::Portable => gelu_bwd_body(dy, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gelu_fwd_slice`.
        Isa::Avx2Fma => unsafe { gelu_bwd_avx2(dy, x) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gelu_fwd_slice`.
        Isa::Avx512 => unsafe { gelu_bwd_avx512(dy, x) },
    }
}

/// Applies GELU element-wise, returning a new tensor.
pub fn gelu_forward(x: &Tensor) -> Tensor {
    let isa = Isa::host();
    let mut out = x.clone();
    pool::parallel_chunks_mut(out.as_mut_slice(), pool::ELEM_CHUNK, |_, chunk| {
        gelu_fwd_slice(isa, chunk);
    });
    out
}

/// Backward of GELU: `dx = dy * gelu'(x)` (needs the *input*, which is why
/// the paper's buffer scheme keeps matmul inputs but can discard outputs).
pub fn gelu_backward(dy: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(dy.dims(), x.dims());
    let isa = Isa::host();
    let mut dx = dy.clone();
    let n = dx.as_mut_slice().len();
    let xs = x.as_slice();
    let base = SendPtr::new(dx.as_mut_slice().as_mut_ptr());
    pool::parallel_row_blocks(n, pool::ELEM_CHUNK, |i0, i1| {
        // SAFETY: element ranges are disjoint per task.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(i0), i1 - i0) };
        gelu_bwd_slice(isa, chunk, &xs[i0..i1]);
    });
    dx
}

/// Element-wise sum of two tensors.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.dims(), b.dims(), "shape mismatch in add");
    let mut out = a.clone();
    out.add_assign(b);
    out
}

/// Element-wise (Hadamard) product.
pub fn hadamard(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.dims(), b.dims(), "shape mismatch in hadamard");
    let mut out = a.clone();
    for (x, y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= y;
    }
    out
}

/// Scales each row of `x` by the corresponding entry of `s` (length = rows).
pub fn row_scale(x: &mut Tensor, s: &[f32]) {
    let cols = x.cols();
    assert_eq!(s.len(), x.rows());
    for (row, &f) in x.as_mut_slice().chunks_mut(cols).zip(s.iter()) {
        for v in row {
            *v *= f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::{assert_close, Tensor};

    #[test]
    fn bias_add_and_grad_roundtrip() {
        let mut x = Tensor::zeros(&[3, 2]);
        bias_add(&mut x, &[1.0, -2.0]);
        assert_eq!(x.as_slice(), &[1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
        let dy = Tensor::full(&[3, 2], 1.0);
        assert_eq!(bias_grad(&dy), vec![3.0, 3.0]);
    }

    #[test]
    fn gelu_fixed_points() {
        assert!((gelu(0.0)).abs() < 1e-7);
        // GELU(x) -> x for large positive x, -> 0 for large negative x.
        assert!((gelu(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu(-10.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let eps = 1e-3f32;
            let fd = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "x={x}: analytic={} fd={fd}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn gelu_forward_backward_shapes() {
        let mut rng = Rng::new(0);
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let y = gelu_forward(&x);
        assert_eq!(y.dims(), x.dims());
        let dy = Tensor::full(&[4, 5], 1.0);
        let dx = gelu_backward(&dy, &x);
        assert_eq!(dx.dims(), x.dims());
        // dx should equal gelu'(x) when dy == 1.
        for (g, &xi) in dx.as_slice().iter().zip(x.as_slice()) {
            assert!((g - gelu_grad(xi)).abs() < 1e-6);
        }
    }

    /// `x` evenly over [-10, 10], both ends included.
    fn sweep() -> impl Iterator<Item = f32> {
        const N: usize = 1 << 20;
        (0..=N).map(|i| -10.0 + 20.0 * (i as f64 / N as f64) as f32)
    }

    fn gelu_f64(x: f64) -> f64 {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
    }

    fn gelu_grad_f64(x: f64) -> f64 {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        let t = (c * (x + 0.044715 * x * x * x)).tanh();
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x)
    }

    #[test]
    fn tanh_gelu_and_grad_match_f64_reference() {
        let (mut e_tanh, mut e_gelu, mut e_grad) = (0.0f64, 0.0f64, 0.0f64);
        for x in sweep() {
            let xd = x as f64;
            e_tanh = e_tanh.max((tanh_rational(x) as f64 - xd.tanh()).abs());
            e_gelu = e_gelu.max((gelu(x) as f64 - gelu_f64(xd)).abs() / xd.abs().max(1.0));
            e_grad = e_grad.max((gelu_grad(x) as f64 - gelu_grad_f64(xd)).abs());
        }
        assert!(e_tanh <= 1e-6, "tanh abs error {e_tanh:e}");
        assert!(e_gelu <= 1e-6, "gelu scaled error {e_gelu:e}");
        assert!(e_grad <= 5e-6, "gelu_grad abs error {e_grad:e}");
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let huge = [1e3f32, 1e20, f32::MAX, f32::INFINITY];
        for x in sweep().chain(huge) {
            let t = tanh_rational(x);
            assert_eq!(tanh_rational(-x).to_bits(), (-t).to_bits(), "x={x}");
            assert!(t.abs() <= 1.0, "x={x}: tanh={t}");
        }
        assert_eq!(tanh_rational(f32::INFINITY), 1.0);
        assert_eq!(tanh_rational(f32::NEG_INFINITY), -1.0);
    }

    #[test]
    fn non_finite_inputs_match_libm_tanh() {
        // The formulas with the standard library's `tanh`, as before the
        // rational approximation.
        let libm_gelu = |x: f32| 0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh());
        let libm_grad = |x: f32| {
            let t = (GELU_C * (x + 0.044715 * x * x * x)).tanh();
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
        };
        let same = |a: f32, b: f32| (a.is_nan() && b.is_nan()) || a == b;
        assert!(tanh_rational(f32::NAN).is_nan());
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(same(gelu(x), libm_gelu(x)), "gelu({x}) = {}", gelu(x));
            assert!(
                same(gelu_grad(x), libm_grad(x)),
                "gelu_grad({x}) = {}",
                gelu_grad(x)
            );
        }
        assert!(gelu(f32::NAN).is_nan() && gelu_grad(f32::NAN).is_nan());
        assert_eq!(gelu(f32::INFINITY), f32::INFINITY);
    }

    /// A random input with the approximation's edge values mixed in; the
    /// odd length leaves a scalar tail after the vector loop.
    fn edge_input() -> Vec<f32> {
        let mut x = Tensor::randn(&[4099], 4.0, &mut Rng::new(5)).into_vec();
        let edges = [0.0, -0.0, 4e-4, -4e-4, 7.9, -7.9, 20.0, -20.0, f32::NAN];
        for (i, &e) in edges.iter().enumerate() {
            x[i * 97] = e;
            x[4098 - i] = e;
        }
        x
    }

    #[test]
    fn portable_and_avx2_instantiations_agree_bitwise() {
        // Every instantiation this CPU can run: AVX2 under AVX-512 too.
        let tiers: Vec<Isa> = match Isa::host() {
            Isa::Portable => vec![],
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => vec![Isa::Avx2Fma],
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => vec![Isa::Avx2Fma, Isa::Avx512],
        };
        if tiers.is_empty() {
            eprintln!("note: no AVX2+FMA on this CPU; only the portable GELU loops ran");
            return;
        }
        let x = edge_input();
        let dy = Tensor::randn(&[x.len()], 1.0, &mut Rng::new(6)).into_vec();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut fp = x.clone();
        gelu_fwd_slice(Isa::Portable, &mut fp);
        let mut bp = dy.clone();
        gelu_bwd_slice(Isa::Portable, &mut bp, &x);
        for isa in tiers {
            let mut fh = x.clone();
            gelu_fwd_slice(isa, &mut fh);
            assert_eq!(bits(&fp), bits(&fh), "gelu forward, {isa:?}");
            let mut bh = dy.clone();
            gelu_bwd_slice(isa, &mut bh, &x);
            assert_eq!(bits(&bp), bits(&bh), "gelu backward, {isa:?}");
        }
    }

    #[test]
    fn gelu_passes_are_bitwise_independent_of_thread_count() {
        let x = edge_input().into_iter().cycle().take(64_000).collect();
        let x = Tensor::from_vec(&[64, 1000], x);
        let dy = Tensor::randn(&[64, 1000], 1.0, &mut Rng::new(7));
        let bits = |t: &Tensor| t.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let serial = pool::with_thread_cap(1, || (gelu_forward(&x), gelu_backward(&dy, &x)));
        let pooled = (gelu_forward(&x), gelu_backward(&dy, &x));
        assert_eq!(bits(&serial.0), bits(&pooled.0));
        assert_eq!(bits(&serial.1), bits(&pooled.1));
    }

    #[test]
    fn add_and_hadamard() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!(add(&a, &b).as_slice(), &[5.0; 4]);
        assert_eq!(hadamard(&a, &b).as_slice(), &[4.0, 6.0, 6.0, 4.0]);
    }

    #[test]
    fn row_scale_scales_rows() {
        let mut x = Tensor::full(&[2, 3], 1.0);
        row_scale(&mut x, &[2.0, 3.0]);
        assert_eq!(x.as_slice(), &[2.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn bias_grad_is_linear() {
        let mut rng = Rng::new(1);
        let dy1 = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let dy2 = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let sum = add(&dy1, &dy2);
        let g1 = bias_grad(&dy1);
        let g2 = bias_grad(&dy2);
        let gs = bias_grad(&sum);
        let expect: Vec<f32> = g1.iter().zip(g2.iter()).map(|(a, b)| a + b).collect();
        assert_close(&gs, &expect, 1e-5, 1e-5);
    }
}
