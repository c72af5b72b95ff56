//! Determinism guarantees: the whole stack (PRNG → parameter slicing →
//! threaded collectives → training) is bit-reproducible, which is what makes
//! the cross-scheme equivalence tests meaningful.

use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{Communicator, Group, Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, SerialModel};
use optimus::tensor::Rng;

fn data(n: usize, vocab: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    (
        (0..n).map(|_| rng.below(vocab)).collect(),
        (0..n).map(|_| rng.below(vocab)).collect(),
    )
}

#[test]
fn repeated_mesh_runs_are_bit_identical() {
    let cfg = OptimusConfig::tiny(2);
    let (tokens, labels) = data(cfg.batch * cfg.seq, cfg.vocab, 0);
    let run = || {
        Mesh2d::run(cfg.q, |g| {
            let mut m = OptimusModel::new(&cfg, 1, g);
            (0..3)
                .map(|_| m.train_step(g, &tokens, &labels, 0.2))
                .collect::<Vec<f32>>()
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "thread scheduling must not affect results");
}

#[test]
fn ring_all_reduce_is_deterministic_despite_threads() {
    // The ring fixes the reduction order, so f32 non-associativity cannot
    // introduce run-to-run noise.
    let run = || {
        Mesh::run(8, |ctx| {
            let g = Group::world(8);
            let mut data: Vec<f32> = (0..1000)
                .map(|i| ((ctx.rank() * 1000 + i) as f32).sin())
                .collect();
            ctx.all_reduce(&g, &mut data);
            data
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_models() {
    let cfg = ModelConfig::tiny();
    let (tokens, labels) = data(cfg.tokens(), cfg.vocab, 1);
    let l1 = SerialModel::new(cfg, 1).lm_loss(&tokens, &labels);
    let l2 = SerialModel::new(cfg, 2).lm_loss(&tokens, &labels);
    assert_ne!(l1, l2);
}

#[test]
fn mesh_size_does_not_change_the_math() {
    // The same model evaluated on 1, 4 and 9 simulated devices gives the
    // same loss (tolerances only from f32 reduction order).
    let cfg = ModelConfig {
        batch: 6,
        seq: 4,
        hidden: 12,
        heads: 6,
        vocab: 18,
        layers: 1,
        causal: false,
    };
    let (tokens, labels) = data(cfg.tokens(), cfg.vocab, 2);
    let reference = SerialModel::new(cfg, 3).lm_loss(&tokens, &labels);
    for q in [1usize, 2, 3] {
        let ocfg = OptimusConfig {
            q,
            batch: cfg.batch,
            seq: cfg.seq,
            hidden: cfg.hidden,
            heads: cfg.heads,
            vocab: cfg.vocab,
            layers: cfg.layers,
            causal: false,
            checkpoint: false,
            fused_attention: false,
        };
        let l = Mesh2d::run(q, |g| {
            OptimusModel::new(&ocfg, 3, g).lm_loss(g, &tokens, &labels)
        })[0];
        assert!((l - reference).abs() < 1e-4, "q={q}: {l} vs {reference}");
    }
}

#[test]
fn parameter_slicing_is_independent_of_device_count() {
    // Device (0,0)'s block of a 2x2 partition equals the union of the
    // corresponding finer blocks — guaranteed because blocks are sliced
    // from one deterministic full matrix, never generated per device.
    use optimus::tensor::init::{init_matrix, param_ids};
    let full = init_matrix(9, param_ids::EMBEDDING, &[12, 12], 0.02);
    let coarse = full.summa_block(0, 0, 2); // 6x6
    let fine = full.summa_block(0, 0, 3); // 4x4
    for r in 0..4 {
        for c in 0..4 {
            assert_eq!(coarse.at(r, c), fine.at(r, c));
        }
    }
}

#[test]
fn megatron_replicas_are_bit_identical_across_devices() {
    let cfg = ModelConfig::tiny();
    let (tokens, labels) = data(cfg.tokens(), cfg.vocab, 3);
    let mcfg = MegatronConfig::new(cfg, 2);
    let losses = Mesh::run(2, |ctx| {
        let mut m = MegatronModel::new(mcfg, 5, ctx);
        (0..3)
            .map(|_| m.train_step(ctx, &tokens, &labels, 0.1))
            .collect::<Vec<f32>>()
    });
    assert_eq!(losses[0], losses[1]);
}
