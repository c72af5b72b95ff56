//! The workloads, their model and data, and the per-rank training
//! loop every live launch runs.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

use hybrid::{HybridSpec, HybridStage};
use mesh::{CommLog, CommOp, Communicator, GridNd};
use optimus_core::{OptimusConfig, OptimusModel};
use tensor::Rng;

use crate::probe::CallPlan;

/// The model every workload trains.
pub const MODEL: OptimusConfig = OptimusConfig {
    q: 1,
    batch: 8,
    seq: 64,
    hidden: 256,
    heads: 8,
    vocab: 256,
    layers: 2,
    causal: true,
    checkpoint: true,
    fused_attention: false,
};
/// Keeps the loss finite and falling for thousands of steps at
/// hidden=256; the CLI's default 0.5 diverges at this size.
pub const LR: f32 = 0.05;

/// How a workload's devices are arranged.
#[derive(Clone, Copy, Debug)]
pub enum Layout {
    /// A q×q SUMMA mesh running `OptimusModel::train_step`.
    Grid(usize),
    /// `hybrid::build` + `HybridStage::train_step`.
    Hybrid(HybridSpec),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub layout: Layout,
    /// [`MODEL`] with `q` set to the layout's tensor-mesh side.
    pub cfg: OptimusConfig,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "step_1x1",
        layout: Layout::Grid(1),
        cfg: MODEL,
    },
    Workload {
        name: "step_2x2",
        layout: Layout::Grid(2),
        cfg: OptimusConfig { q: 2, ..MODEL },
    },
    Workload {
        name: "hybrid_pp2_dp2",
        layout: Layout::Hybrid(HybridSpec {
            pp: 2,
            dp: 2,
            grid: [1, 1, 1],
            microbatches: 2,
        }),
        cfg: MODEL,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    pub fn devices(&self) -> usize {
        match self.layout {
            Layout::Grid(q) => q * q,
            Layout::Hybrid(s) => s.devices(),
        }
    }

    /// Tokens one step trains on (global batch × sequence).
    pub fn tokens_per_step(&self) -> usize {
        self.cfg.batch * self.cfg.seq
    }

    /// The kernel-call plan of `rank`'s share of one step.
    pub fn plan(&self, rank: usize) -> CallPlan {
        match self.layout {
            Layout::Grid(_) => CallPlan {
                cfg: self.cfg,
                layers: self.cfg.layers,
                micro: 1,
                first: true,
                last: true,
            },
            Layout::Hybrid(s) => {
                let (stage, _, _) = s.position(rank);
                CallPlan {
                    cfg: s.micro_cfg(&self.cfg),
                    layers: s.layers_per_stage(&self.cfg),
                    micro: s.microbatches,
                    first: stage == 0,
                    last: stage + 1 == s.pp,
                }
            }
        }
    }
}

/// One step's input: the full global token and label streams.
pub struct Batch {
    pub tokens: Vec<usize>,
    pub labels: Vec<usize>,
}

/// Distinct batches a run cycles through.
const BATCHES: usize = 8;

/// Uniform random tokens from `seed`; each label is the next token id, a
/// mapping the model can learn, so the loss falls during a run.
pub fn batches(cfg: &OptimusConfig, seed: u64) -> Vec<Batch> {
    let mut rng = Rng::new(seed ^ 0xBA7C4);
    (0..BATCHES)
        .map(|_| {
            let tokens: Vec<usize> = (0..cfg.batch * cfg.seq)
                .map(|_| rng.below(cfg.vocab))
                .collect();
            let labels = tokens.iter().map(|t| (t + 1) % cfg.vocab).collect();
            Batch { tokens, labels }
        })
        .collect()
}

/// One device's trainer.
pub enum Trainer {
    Grid(Box<OptimusModel>),
    Hybrid(Box<HybridStage>),
}

impl Trainer {
    /// Builds `ctx`'s shard and its tensor-mesh view: mesh launch is the
    /// caller's, model construction is this.
    pub fn build<'a, C: Communicator>(
        w: &Workload,
        ctx: &'a C,
        seed: u64,
    ) -> (Trainer, GridNd<'a, C>) {
        match w.layout {
            Layout::Grid(q) => {
                let grid = GridNd::with_shape(ctx, &[q, q]);
                let model = OptimusModel::new(&w.cfg, seed, &grid);
                (Trainer::Grid(Box::new(model)), grid)
            }
            Layout::Hybrid(spec) => {
                let (stage, grid) = hybrid::build(ctx, &spec, &w.cfg, seed);
                (Trainer::Hybrid(Box::new(stage)), grid)
            }
        }
    }

    pub fn step<C: Communicator>(&mut self, grid: &GridNd<C>, b: &Batch) -> f32 {
        match self {
            Trainer::Grid(m) => m.train_step(grid, &b.tokens, &b.labels, LR),
            Trainer::Hybrid(s) => s.train_step(grid, &b.tokens, &b.labels, LR),
        }
    }

    pub fn model(&mut self) -> &mut OptimusModel {
        match self {
            Trainer::Grid(m) => m,
            Trainer::Hybrid(s) => &mut s.model,
        }
    }

    /// Microbatches whose activations were live at once in the last step.
    pub fn peak_live_microbatches(&self) -> usize {
        match self {
            Trainer::Grid(_) => 1,
            Trainer::Hybrid(s) => s.peak_live_microbatches,
        }
    }
}

/// The communication one device did in one step, from its `CommLog`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Collective participations per `CommOp` kind, in `CommOp::KINDS` order.
    pub calls: [usize; CommOp::KINDS.len()],
    /// Point-to-point messages sent (link records).
    pub msgs: usize,
    /// f32 elements sent on links.
    pub link_elems: usize,
    /// Logical f32 elements of the collectives joined.
    pub logical_elems: usize,
}

impl Counts {
    pub fn of(log: &CommLog) -> Counts {
        let mut c = Counts {
            msgs: log.links.len(),
            link_elems: log.total_link_elems(),
            ..Counts::default()
        };
        for r in &log.ops {
            c.calls[r.op as usize] += 1;
            c.logical_elems += r.elems;
        }
        c
    }
}

/// When the ranks of a launch stop stepping.
///
/// Every step ends with a loss that all devices share, so no device can
/// finish step `i + 1` before rank 0 has finished step `i`. Rank 0 checks
/// the clock after each step; once the budget is spent it publishes
/// `last = i + 1`, which every other device reads before it starts step
/// `i + 2`. All devices therefore run the same number of steps.
pub struct Stop {
    last: AtomicUsize,
    budget: Duration,
    min_steps: usize,
}

impl Stop {
    /// Exactly `steps` steps.
    pub fn fixed(steps: usize) -> Stop {
        assert!(steps > 0);
        Stop {
            last: AtomicUsize::new(steps - 1),
            budget: Duration::MAX,
            min_steps: steps,
        }
    }

    /// At least `min_steps` steps, then until `seconds` have passed.
    pub fn timed(seconds: f64, min_steps: usize) -> Stop {
        Stop {
            last: AtomicUsize::new(MAX_STEPS - 1),
            budget: Duration::from_secs_f64(seconds),
            min_steps,
        }
    }

    fn go(&self, i: usize) -> bool {
        i <= self.last.load(SeqCst)
    }

    fn after_step(&self, i: usize, elapsed: Duration) {
        if i + 1 >= self.min_steps && elapsed >= self.budget {
            self.last.fetch_min(i + 1, SeqCst);
        }
    }
}

/// Hard cap on the steps of one launch.
const MAX_STEPS: usize = 20_000;

/// One step as one device saw it.
#[derive(Clone, Debug)]
pub struct StepRec {
    pub secs: f64,
    pub loss: f32,
    /// The step on the device's trace clock (zeros when untraced).
    pub window: (u64, u64),
    pub counts: Counts,
    /// Point-to-point time inside the step (timed launches of hybrid only).
    pub p2p_ns: u64,
    pub peak_live: usize,
}

/// Builds the device's trainer, then steps until `stop` says so.
/// Returns the instant the model was built and every step's record.
pub fn train_loop<C: Communicator>(
    w: &Workload,
    ctx: &C,
    seed: u64,
    batches: &[Batch],
    stop: &Stop,
    p2p_ns: &dyn Fn() -> u64,
) -> (Instant, Vec<StepRec>) {
    let (mut tr, grid) = Trainer::build(w, ctx, seed);
    let built = Instant::now();
    ctx.take_log();
    let mut steps = Vec::new();
    let start = Instant::now();
    for i in 0..MAX_STEPS {
        if !stop.go(i) {
            break;
        }
        let b = &batches[i % batches.len()];
        let (p0, w0) = (p2p_ns(), trace::now_ns());
        let t0 = Instant::now();
        let loss = tr.step(&grid, b);
        let secs = t0.elapsed().as_secs_f64();
        steps.push(StepRec {
            secs,
            loss,
            window: (w0, trace::now_ns()),
            counts: Counts::of(&ctx.take_log()),
            p2p_ns: p2p_ns() - p0,
            peak_live: tr.peak_live_microbatches(),
        });
        if ctx.rank() == 0 {
            stop.after_step(i, start.elapsed());
        }
    }
    (built, steps)
}

/// The serial reference's losses over the first `steps` batches.
pub fn serial_losses(w: &Workload, seed: u64, batches: &[Batch], steps: usize) -> Vec<f32> {
    let mut m = serial::SerialModel::new(w.cfg.model(), seed);
    (0..steps)
        .map(|i| {
            let b = &batches[i % batches.len()];
            m.train_step(&b.tokens, &b.labels, LR)
        })
        .collect()
}
