//! Seeded property sweep for the cache-blocked GEMM engine.
//!
//! For every form (NN / NT / TN) and a grid of edge-case shapes — unit
//! dims, prime dims, exact microkernel stripe/panel boundaries, one past
//! them, cache-block boundaries, and sizes past the small-path threshold —
//! the engine must be **bitwise identical** whether it runs serially
//! (thread cap 1) or over the pool (uncapped), and must agree with an
//! f64-accumulated naive product to within f32 rounding. A final test
//! pins the pool's defining property: a thousand back-to-back matmuls
//! spawn no threads beyond the initial worker set.

use tensor::gemm::{gemm_acc, Form};
use tensor::matmul::reference;
use tensor::{pool, Rng};

/// Shape grid: the microkernel tile is 12 rows (MR) × 32 columns (NR) on
/// AVX-512 hosts and 6×16 elsewhere, cache blocks are MC=96 / KC=256 /
/// NC=1024, and products under 32³ MACs take the direct small path.
const DIMS: &[usize] = &[1, 6, 7, 12, 13, 16, 17, 31, 32, 33, 96, 97, 256];
const FORMS: &[Form] = &[Form::NN, Form::NT, Form::TN];

fn fill(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len).map(|_| rng.normal()).collect()
}

/// Buffer lengths for (a, b) under each physical layout.
fn buf_lens(form: Form, m: usize, k: usize, n: usize) -> (usize, usize) {
    match form {
        Form::NN => (m * k, k * n),
        Form::NT => (m * k, n * k),
        Form::TN => (k * m, k * n),
    }
}

fn check_shape(form: Form, m: usize, k: usize, n: usize, rng: &mut Rng) {
    let (alen, blen) = buf_lens(form, m, k, n);
    let a = fill(alen, rng);
    let b = fill(blen, rng);

    let mut serial = vec![0.0f32; m * n];
    pool::with_thread_cap(1, || gemm_acc(form, &mut serial, m, n, &a, &b, k));

    let mut pooled = vec![0.0f32; m * n];
    gemm_acc(form, &mut pooled, m, n, &a, &b, k);

    // Row-range ownership with a fixed per-element accumulation order makes
    // the pooled result bitwise equal to the serial one, not merely close.
    assert_eq!(
        serial, pooled,
        "{form:?} {m}x{k}x{n}: pooled differs from serial"
    );

    let oracle = reference::naive_f64(form, m, n, &a, &b, k);
    for (idx, (&got, &want)) in serial.iter().zip(&oracle).enumerate() {
        let tol = 1e-4 * (k as f32).sqrt().max(1.0) + 1e-5;
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "{form:?} {m}x{k}x{n} at {idx}: {got} vs f64 oracle {want}"
        );
    }
}

#[test]
fn edge_shape_sweep_all_forms() {
    let mut rng = Rng::new(0x5EED);
    for &form in FORMS {
        for &m in DIMS {
            for &k in DIMS {
                for &n in DIMS {
                    // Keep the sweep fast: skip products where every dim is
                    // large (covered by the dedicated big-shape test below).
                    if m * k * n > 100 * 96 * 96 {
                        continue;
                    }
                    check_shape(form, m, k, n, &mut rng);
                }
            }
        }
    }
}

#[test]
fn blocked_path_large_shapes() {
    let mut rng = Rng::new(0xB10C);
    for &form in FORMS {
        // Past every cache-block boundary at once, non-multiples of all of
        // MR/NR/MC/KC so packing pads in each dimension.
        check_shape(form, 130, 70, 90, &mut rng);
        // Tall-skinny and k=1 extremes through the blocked path.
        check_shape(form, 300, 40, 5, &mut rng);
        check_shape(form, 64, 1, 64, &mut rng);
    }
}

#[test]
fn row_split_matches_single_thread_at_model_sizes() {
    // The row split gives each participant one balanced range of several
    // MC blocks; at these heights it differs from a single MC-slab walk in
    // where the ranges start, never in any element's accumulation order.
    let mut rng = Rng::new(0x5B17);
    for &form in FORMS {
        for m in [256, 512, 1024] {
            check_shape(form, m, 257, 160, &mut rng);
        }
    }
}

#[test]
fn accumulation_preserved_across_paths() {
    // gemm_acc adds into C; capped and uncapped runs must agree starting
    // from the same non-zero C.
    let mut rng = Rng::new(0xACC);
    let (m, k, n) = (97, 33, 49);
    let a = fill(m * k, &mut rng);
    let b = fill(k * n, &mut rng);
    let init = fill(m * n, &mut rng);

    let mut serial = init.clone();
    pool::with_thread_cap(1, || gemm_acc(Form::NN, &mut serial, m, n, &a, &b, k));
    let mut pooled = init.clone();
    gemm_acc(Form::NN, &mut pooled, m, n, &a, &b, k);
    assert_eq!(serial, pooled);
    assert_ne!(serial, init, "product must have changed C");
}

#[test]
fn pool_thread_count_is_constant_across_many_matmuls() {
    let (m, k, n) = (64, 48, 80);
    let mut rng = Rng::new(0x7007);
    let a = fill(m * k, &mut rng);
    let b = fill(k * n, &mut rng);
    let mut c = vec![0.0f32; m * n];

    gemm_acc(Form::NN, &mut c, m, n, &a, &b, k); // force pool init
    let spawned = pool::pool().threads_spawned();
    for _ in 0..1000 {
        gemm_acc(Form::NN, &mut c, m, n, &a, &b, k);
    }
    assert_eq!(
        pool::pool().threads_spawned(),
        spawned,
        "matmuls must reuse the persistent workers, not spawn threads"
    );
    assert_eq!(spawned, pool::pool().worker_count());
}
