//! Single-device kernel benchmarks: the three matmul forms across sizes
//! (spanning the thread-parallelisation threshold), plus the layer-level
//! primitives — the compute substrate whose achieved rate the `perf`
//! calibration abstracts as `mac_rate`.

use bench::bench_fn;
use tensor::layernorm::{layer_norm_forward, LN_EPS};
use tensor::ops::{gelu_backward, gelu_forward};
use tensor::softmax::softmax_rows;
use tensor::{matmul_nn, matmul_nt, matmul_tn, Rng, Tensor};

fn bench_matmul_forms() {
    for &d in &[32usize, 128, 256] {
        let mut rng = Rng::new(0);
        let a = Tensor::randn(&[d, d], 1.0, &mut rng);
        let b = Tensor::randn(&[d, d], 1.0, &mut rng);
        bench_fn("matmul", &format!("nn/{d}"), 10, || matmul_nn(&a, &b));
        bench_fn("matmul", &format!("nt/{d}"), 10, || matmul_nt(&a, &b));
        bench_fn("matmul", &format!("tn/{d}"), 10, || matmul_tn(&a, &b));
    }
}

fn bench_rectangular_shapes() {
    // Transformer-shaped products: activations [bs, h] x weights [h, 4h].
    for &(bs, h) in &[(256usize, 64usize), (512, 128)] {
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[bs, h], 1.0, &mut rng);
        let w = Tensor::randn(&[h, 4 * h], 1.0, &mut rng);
        bench_fn(
            "matmul_transformer_shapes",
            &format!("fc1/{bs}x{h}"),
            10,
            || matmul_nn(&x, &w),
        );
    }
}

fn bench_pointwise() {
    let mut rng = Rng::new(2);
    let x = Tensor::randn(&[512, 512], 1.0, &mut rng);
    let dy = Tensor::randn(&[512, 512], 1.0, &mut rng);
    let gamma = vec![1.0f32; 512];
    let beta = vec![0.0f32; 512];
    bench_fn("pointwise", "gelu", 20, || gelu_forward(&x));
    bench_fn("pointwise", "gelu_backward", 20, || gelu_backward(&dy, &x));
    bench_fn("pointwise", "softmax_rows", 20, || softmax_rows(&x));
    bench_fn("pointwise", "layer_norm", 20, || {
        layer_norm_forward(&x, &gamma, &beta, LN_EPS)
    });
}

fn main() {
    bench_matmul_forms();
    bench_rectangular_shapes();
    bench_pointwise();
}
