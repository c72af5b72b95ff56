//! Property-style tests over the distributed substrate: randomized shapes,
//! payloads and group partitions, checked against serial ground truth.
//!
//! Cases are driven by the workspace's own seeded PRNG (deterministic, no
//! external property-testing framework) — each test sweeps a fixed grid of
//! structural parameters and draws the rest from per-case seeds.

use optimus::mesh::{Communicator, Group, Mesh, Mesh2d};
use optimus::summa::{collect_blocks, distribute, summa_nn, summa_nt, summa_tn};
use optimus::tensor::{matmul_nn, matmul_nt, matmul_tn, max_abs_diff, Rng, Tensor};

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, 1.0, &mut Rng::new(seed))
}

#[test]
fn summa_nn_matches_serial_for_random_shapes() {
    let mut case = Rng::new(0xD15);
    for q in 1usize..=3 {
        for _ in 0..8 {
            let (mb, kb, nb) = (1 + case.below(4), 1 + case.below(4), 1 + case.below(4));
            let seed = case.below(1000) as u64;
            let (m, k, n) = (mb * q, kb * q, nb * q);
            let a = rand_tensor(&[m, k], seed);
            let b = rand_tensor(&[k, n], seed + 1);
            let expect = matmul_nn(&a, &b);
            let blocks = Mesh2d::run(q, |g| summa_nn(g, &distribute(g, &a), &distribute(g, &b)));
            let got = collect_blocks(&blocks, q);
            assert!(
                max_abs_diff(got.as_slice(), expect.as_slice()) < 1e-3,
                "q={q} m={m} k={k} n={n} seed={seed}"
            );
        }
    }
}

#[test]
fn summa_nt_and_tn_match_serial_for_random_shapes() {
    let mut case = Rng::new(0xD16);
    for q in 2usize..=3 {
        for _ in 0..8 {
            let (mb, kb, nb) = (1 + case.below(3), 1 + case.below(3), 1 + case.below(3));
            let seed = case.below(1000) as u64;
            let (m, k, n) = (mb * q, kb * q, nb * q);
            let a = rand_tensor(&[m, k], seed);
            let b = rand_tensor(&[n, k], seed + 1);
            let expect = matmul_nt(&a, &b);
            let blocks = Mesh2d::run(q, |g| summa_nt(g, &distribute(g, &a), &distribute(g, &b)));
            assert!(
                max_abs_diff(collect_blocks(&blocks, q).as_slice(), expect.as_slice()) < 1e-3,
                "nt q={q} seed={seed}"
            );

            let a2 = rand_tensor(&[k, m], seed + 2);
            let b2 = rand_tensor(&[k, n], seed + 3);
            let expect2 = matmul_tn(&a2, &b2);
            let blocks2 = Mesh2d::run(q, |g| summa_tn(g, &distribute(g, &a2), &distribute(g, &b2)));
            assert!(
                max_abs_diff(collect_blocks(&blocks2, q).as_slice(), expect2.as_slice()) < 1e-3,
                "tn q={q} seed={seed}"
            );
        }
    }
}

#[test]
fn all_reduce_equals_elementwise_sum_for_any_group_partition() {
    let mut case = Rng::new(0xD17);
    for p in 2usize..=8 {
        for _ in 0..4 {
            let len = case.below(64);
            let seed = case.below(1000) as u64;
            // Split the world into two disjoint groups at a random boundary
            // and all-reduce within each; every member must hold its group's
            // sum.
            let cut = 1 + (seed as usize) % (p.max(2) - 1);
            let inputs: Vec<Vec<f32>> = (0..p)
                .map(|r| {
                    let mut rng = Rng::new(seed + r as u64);
                    (0..len).map(|_| rng.normal()).collect()
                })
                .collect();
            let inputs_ref = &inputs;
            let out = Mesh::run(p, move |ctx| {
                let (lo, hi) = if ctx.rank() < cut { (0, cut) } else { (cut, p) };
                let group = Group::new((lo..hi).collect());
                let mut data = inputs_ref[ctx.rank()].clone();
                ctx.all_reduce(&group, &mut data);
                data
            });
            #[allow(clippy::needless_range_loop)] // r is the rank under test
            for r in 0..p {
                let (lo, hi) = if r < cut { (0, cut) } else { (cut, p) };
                let expect: Vec<f32> = (0..len)
                    .map(|i| (lo..hi).map(|m| inputs[m][i]).sum())
                    .collect();
                assert!(
                    max_abs_diff(&out[r], &expect) < 1e-4,
                    "p={p} cut={cut} rank={r} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn broadcast_delivers_root_payload_from_any_root() {
    let mut case = Rng::new(0xD18);
    for p in 2usize..=9 {
        for _ in 0..3 {
            let root = case.below(p);
            let len = case.below(48);
            let seed = case.below(1000) as u64;
            let payload: Vec<f32> = {
                let mut rng = Rng::new(seed);
                (0..len).map(|_| rng.normal()).collect()
            };
            let payload_ref = &payload;
            let out = Mesh::run(p, move |ctx| {
                let g = Group::world(p);
                let mut data = if ctx.rank() == root {
                    payload_ref.clone()
                } else {
                    vec![0.0; payload_ref.len()]
                };
                ctx.broadcast(&g, root, &mut data);
                data
            });
            for d in out {
                assert_eq!(&d, &payload, "p={p} root={root} seed={seed}");
            }
        }
    }
}

#[test]
fn reduce_then_broadcast_equals_all_reduce() {
    let mut case = Rng::new(0xD19);
    for p in 2usize..=6 {
        for _ in 0..4 {
            let len = 1 + case.below(31);
            let seed = case.below(1000) as u64;
            let inputs: Vec<Vec<f32>> = (0..p)
                .map(|r| {
                    let mut rng = Rng::new(seed + 31 * r as u64);
                    (0..len).map(|_| rng.normal()).collect()
                })
                .collect();
            let inputs_ref = &inputs;
            let out = Mesh::run(p, move |ctx| {
                let g = Group::world(p);
                // Path A: all-reduce.
                let mut a = inputs_ref[ctx.rank()].clone();
                ctx.all_reduce(&g, &mut a);
                // Path B: reduce to 0 then broadcast.
                let mut b = inputs_ref[ctx.rank()].clone();
                ctx.reduce(&g, 0, &mut b);
                ctx.broadcast(&g, 0, &mut b);
                (a, b)
            });
            for (a, b) in out {
                assert!(max_abs_diff(&a, &b) < 1e-4, "p={p} seed={seed}");
            }
        }
    }
}

#[test]
fn all_gather_then_slice_is_identity() {
    let mut case = Rng::new(0xD1A);
    for p in 1usize..=6 {
        for _ in 0..3 {
            let len = 1 + case.below(15);
            let seed = case.below(1000) as u64;
            let out = Mesh::run(p, move |ctx| {
                let g = Group::world(p);
                let mut rng = Rng::new(seed + ctx.rank() as u64);
                let local: Vec<f32> = (0..len).map(|_| rng.normal()).collect();
                let gathered = ctx.all_gather(&g, &local);
                let mine = gathered[ctx.rank() * len..(ctx.rank() + 1) * len].to_vec();
                (local, mine)
            });
            for (local, mine) in out {
                assert_eq!(local, mine, "p={p} seed={seed}");
            }
        }
    }
}

#[test]
fn block_distribution_roundtrips() {
    let mut case = Rng::new(0xD1B);
    for q in 1usize..=4 {
        for _ in 0..4 {
            let (rb, cb) = (1 + case.below(4), 1 + case.below(4));
            let seed = case.below(1000) as u64;
            let t = rand_tensor(&[rb * q, cb * q], seed);
            let blocks = Mesh2d::run(q, |g| distribute(g, &t));
            assert_eq!(collect_blocks(&blocks, q), t, "q={q} seed={seed}");
        }
    }
}
