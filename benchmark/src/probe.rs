//! Times the `optimus_core` kernels the program's spans do not name, by
//! calling each public function at the exact shapes one training step uses
//! on one device, and scales the per-call medians by how often a step calls
//! them ([`CallPlan`]).
//!
//! Every rank runs the same call sequence, so the collectives inside the
//! 2D functions (LayerNorm statistics, cross-entropy) pair up across the
//! mesh exactly as they do inside a step. Rank 0's clock is the one read.

use std::hint::black_box;
use std::time::Instant;

use mesh::{Communicator, GridNd};
use optimus_core::embedding2d::{
    ce2d, embed2d_backward, embed2d_forward, lm_head2d_backward, lm_head2d_forward,
};
use optimus_core::{OptimusConfig, OptimusModel};
use serial::{attention_backward, attention_forward};
use tensor::ops::{gelu_backward, gelu_forward};
use tensor::{Rng, Tensor};

use crate::stats::median;

/// Timed calls per kernel (after one untimed warm-up call).
const REPS: usize = 5;

/// How often one step calls each kernel on one device.
#[derive(Clone, Copy, Debug)]
pub struct CallPlan {
    /// The per-microbatch model config the device's kernels see.
    pub cfg: OptimusConfig,
    /// Transformer layers this device runs.
    pub layers: usize,
    /// Microbatches per step.
    pub micro: usize,
    /// Whether the device embeds tokens (first pipeline stage).
    pub first: bool,
    /// Whether the device runs the final LayerNorm and the loss head.
    pub last: bool,
}

impl CallPlan {
    /// Forward passes per layer per microbatch: the forward itself plus the
    /// recompute inside backward when checkpointing.
    fn layer_fwds(&self) -> usize {
        1 + usize::from(self.cfg.checkpoint)
    }

    fn per_step(&self, per_micro: usize) -> f64 {
        (per_micro * self.micro) as f64
    }

    /// GEMM flops one step asks of this device (multiply-add = 2 flops):
    /// per layer the four SUMMA products (24·T·h²) and the attention
    /// scores and context (4·b·s²·h), three times for forward + backward,
    /// plus the recompute; the tied head (2·T·h·V) forward + backward.
    /// Divided evenly over the q×q mesh.
    pub fn gemm_flops(&self) -> f64 {
        let c = &self.cfg;
        let (t, h) = ((c.batch * c.seq) as f64, c.hidden as f64);
        let layer = 24.0 * t * h * h + 4.0 * c.batch as f64 * (c.seq * c.seq) as f64 * h;
        let passes = (2 + self.layer_fwds()) as f64;
        let head = if self.last {
            3.0 * 2.0 * t * h * c.vocab as f64
        } else {
            0.0
        };
        self.micro as f64 * (self.layers as f64 * layer * passes + head) / (c.q * c.q) as f64
    }
}

/// Per-step milliseconds of each kernel family on rank 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreMs {
    pub embed: f64,
    pub layernorm: f64,
    pub attention: f64,
    pub gelu: f64,
    pub loss_head: f64,
    pub update: f64,
}

/// Median seconds per call of `f` over [`REPS`] timed calls.
fn per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Times every kernel family at `plan`'s shapes. `model` is this device's
/// (stage) model, `tokens`/`labels` one microbatch's global token stream.
pub fn time_core<C: Communicator>(
    grid: &GridNd<C>,
    model: &mut OptimusModel,
    plan: &CallPlan,
    tokens: &[usize],
    labels: &[usize],
) -> CoreMs {
    let cfg = plan.cfg;
    let (rows, hb) = (cfg.local_rows(), cfg.local_cols());
    let tok = cfg.local_tokens(tokens, grid.row());
    let lab = cfg.local_tokens(labels, grid.row());
    let total_rows = cfg.batch * cfg.seq;
    let mut rng = Rng::new(11);
    let x = Tensor::randn(&[rows, hb], 1.0, &mut rng);
    let f1 = Tensor::randn(&[rows, 4 * hb], 1.0, &mut rng);
    let f1_grad = Tensor::randn(&[rows, 4 * hb], 1.0, &mut rng);
    let mut d_table = Tensor::zeros(&[model.table.rows(), model.table.cols()]);
    let (fwds, l) = (plan.layer_fwds(), plan.layers);
    let ms = 1e3;

    let embed = per_call(|| embed2d_forward(grid, &model.table, tok, cfg.vocab))
        * plan.per_step(usize::from(plan.first))
        + per_call(|| embed2d_backward(grid, &x, tok, cfg.vocab, &mut d_table))
            * plan.per_step(usize::from(plan.first));

    let ln = &model.layers[0].ln1;
    let (_, ln_cache) = ln.forward(grid, &x, cfg.hidden);
    let layernorm = per_call(|| ln.forward(grid, &x, cfg.hidden))
        * plan.per_step(2 * l * fwds + usize::from(plan.last))
        + per_call(|| ln.backward(grid, &x, &ln_cache, cfg.hidden))
            * plan.per_step(2 * l + usize::from(plan.last));

    let local = cfg.local_view();
    let (_, attn) = attention_forward(&local, &x, &x, &x);
    let attention = per_call(|| attention_forward(&local, &x, &x, &x)) * plan.per_step(l * fwds)
        + per_call(|| attention_backward(&local, &x, &x, &x, &x, &attn)) * plan.per_step(l);

    let gelu = per_call(|| gelu_forward(&f1)) * plan.per_step(l * fwds)
        + per_call(|| gelu_backward(&f1_grad, &f1)) * plan.per_step(l);

    let loss_head = per_call(|| {
        let logits = lm_head2d_forward(grid, &x, &model.table);
        let (_, dlogits) = ce2d(grid, &logits, lab, cfg.vocab, total_rows);
        lm_head2d_backward(grid, &dlogits, &x, &model.table, &mut d_table)
    }) * plan.per_step(usize::from(plan.last));

    // One SGD update per step, whatever the microbatch count; a zero
    // learning rate runs the same arithmetic without moving the model.
    let (_, grads) = model.lm_grads(grid, tokens, labels);
    let update = per_call(|| model.apply_sgd(&grads, 0.0));

    CoreMs {
        embed: embed * ms,
        layernorm: layernorm * ms,
        attention: attention * ms,
        gelu: gelu * ms,
        loss_head: loss_head * ms,
        update: update * ms,
    }
}
