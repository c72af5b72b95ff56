//! Runs of the three live workloads: device threads on a real mesh.

use std::time::Instant;

use mesh::{DeviceCtx, Mesh};
use trace::DeviceTrace;

use crate::ledger::Timeline;
use crate::p2p::P2pTimed;
use crate::plan;
use crate::probe::{time_core, CoreMs};
use crate::report::{idle_frac, ledger_metrics, Checker, Report};
use crate::stats::median;
use crate::workload::{
    batches, serial_losses, train_loop, Batch, Layout, StepRec, Stop, Trainer, Workload,
};

/// Steps of each check launch, all compared with the serial reference and
/// with each other bitwise.
pub const CHECK_STEPS: usize = 2;
/// Launches a run makes only to set up and check (plus the timed one).
const CHECK_LAUNCHES: usize = 4;
/// Leading steps of a timed launch left out of its timings: the first
/// step sizes workspaces and warms the compute pool.
pub const WARMUP: usize = 2;
/// `loss_final` is the loss the step with this index reports, i.e. the
/// loss after this many updates.
pub const LOSS_STEP: usize = 20;
/// Timed steps a launch runs at least, so the tail percentile has ten
/// samples beyond it.
const MIN_TIMED: usize = 30;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    /// Per-device `metrics` registries on, for peak tensor memory.
    Metered,
    /// Wall-clock trace collectors on every device.
    Traced,
}

/// One mesh launch: set-up time, rank 0..p step records, traces.
pub struct Launch {
    pub setup_s: f64,
    pub ranks: Vec<Vec<StepRec>>,
    pub traces: Vec<DeviceTrace>,
    pub peak_bytes: u64,
}

impl Launch {
    /// Rank 0's step times after warm-up.
    pub fn timed_secs(&self) -> Vec<f64> {
        self.ranks[0][WARMUP..].iter().map(|s| s.secs).collect()
    }
}

fn launch(w: &Workload, mode: Mode, seed: u64, batches: &[Batch], stop: &Stop) -> Launch {
    let hybrid = matches!(w.layout, Layout::Hybrid(_));
    let body = |ctx: &DeviceCtx| {
        if hybrid && mode == Mode::Traced {
            let timed = P2pTimed::new(ctx);
            train_loop(w, &timed, seed, batches, stop, &|| timed.ns())
        } else {
            train_loop(w, ctx, seed, batches, stop, &|| 0)
        }
    };
    if mode == Mode::Metered {
        metrics::enable();
    }
    let t0 = Instant::now();
    let (outs, traces) = if mode == Mode::Traced {
        let (outs, _, traces) = Mesh::run_traced(w.devices(), body);
        (outs, traces)
    } else {
        (Mesh::run(w.devices(), body), Vec::new())
    };
    let built = outs
        .iter()
        .map(|(b, _)| *b)
        .max()
        .expect("at least one device");
    let peak_bytes = if mode == Mode::Metered {
        let snaps = metrics::drain();
        metrics::disable();
        snaps.iter().map(|s| s.peak_bytes).max().unwrap_or(0)
    } else {
        0
    };
    Launch {
        setup_s: (built - t0).as_secs_f64(),
        ranks: outs.into_iter().map(|(_, s)| s).collect(),
        traces,
        peak_bytes,
    }
}

/// The untraced run: check launches (set-up, correctness, peak memory),
/// then one timed launch for the end-to-end metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let batches = batches(&w.cfg, seed);
    let mut check = Checker::new(serial_losses(w, seed, &batches, CHECK_STEPS));
    let mut setups = Vec::new();
    let mut peak = 0u64;
    for _ in 0..CHECK_LAUNCHES {
        let l = launch(w, Mode::Metered, seed, &batches, &Stop::fixed(CHECK_STEPS));
        setups.push(l.setup_s);
        peak = peak.max(l.peak_bytes);
        check.launch(&l.ranks);
    }
    let timed = launch(
        w,
        Mode::Plain,
        seed,
        &batches,
        &Stop::timed(seconds, MIN_TIMED.max(LOSS_STEP + 1) + WARMUP),
    );
    setups.push(timed.setup_s);
    check.launch(&timed.ranks);

    let mut rep = Report::new(check);
    let secs = timed.timed_secs();
    let tps = rep.end_to_end(
        w,
        &secs,
        median(&setups),
        peak,
        timed.ranks[0][LOSS_STEP].loss,
    );
    if w.devices() > 1 {
        // Parallel efficiency against a short 1-device run of the same
        // model in this process; derived, not gated.
        let one = Workload {
            layout: Layout::Grid(1),
            cfg: optimus_core::OptimusConfig { q: 1, ..w.cfg },
            ..*w
        };
        let base = launch(&one, Mode::Plain, seed, &batches, &Stop::fixed(WARMUP + 6));
        let base_tps = one.tokens_per_step() as f64 / median(&base.timed_secs());
        let cores = bench::detected_cores().unwrap_or(1);
        let ideal = w.devices().min(cores) as f64;
        rep.note(format!(
            "parallel efficiency: {:.3} = ({tps:.1} / {base_tps:.1} tokens/s on 1x1) / min({} devices, {cores} cores)",
            tps / base_tps / ideal,
            w.devices()
        ));
    }
    rep
}

/// The traced run: an untraced and a traced launch of equal length (their
/// step-time ratio is the tracing overhead), a launch that times the core
/// kernels, and a dry-run of the same step for the planner metrics.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let batches = batches(&w.cfg, seed);
    let mut check = Checker::new(serial_losses(w, seed, &batches, CHECK_STEPS));
    let min = MIN_TIMED + WARMUP;
    let plain = launch(
        w,
        Mode::Plain,
        seed,
        &batches,
        &Stop::timed(0.4 * seconds, min),
    );
    check.launch(&plain.ranks);
    let traced = launch(
        w,
        Mode::Traced,
        seed,
        &batches,
        &Stop::timed(0.4 * seconds, min),
    );
    check.launch(&traced.ranks);
    let core = probe(w, seed, &batches);

    let mut rep = Report::new(check);
    plan::measure(w, seed, &batches[0], &mut rep);
    let timelines: Vec<Timeline> = traced.traces.iter().map(Timeline::new).collect();
    let r0 = &traced.ranks[0][WARMUP..];
    let steps: Vec<_> = r0.iter().map(|s| (&timelines[0], s.window)).collect();
    ledger_metrics(&mut rep, &w.plan(0), &steps);
    // The pipeline's idle share is set by its least busy stage.
    let idle = timelines
        .iter()
        .zip(&traced.ranks)
        .map(|(tl, steps)| median_of(&steps[WARMUP..], |s| idle_frac(tl, s.window)))
        .fold(0.0, f64::max);
    rep.set("hybrid.idle_frac", idle);
    rep.set("hybrid.p2p_ms", median_of(r0, |s| s.p2p_ns as f64 / 1e6));
    let peak_live = traced
        .ranks
        .iter()
        .flatten()
        .map(|s| s.peak_live)
        .max()
        .unwrap_or(0);
    rep.set("hybrid.peak_live_microbatches", peak_live as f64);
    rep.counts(&plain.ranks[0][0].counts);
    rep.core(&core);
    rep.set(
        "trace.overhead_frac",
        median(&traced.timed_secs()) / median(&plain.timed_secs()) - 1.0,
    );
    rep
}

fn median_of(steps: &[StepRec], f: impl Fn(&StepRec) -> f64) -> f64 {
    median(&steps.iter().map(f).collect::<Vec<_>>())
}

/// Times the core kernels on rank 0 of a fresh launch of the workload.
fn probe(w: &Workload, seed: u64, batches: &[Batch]) -> CoreMs {
    let outs = Mesh::run(w.devices(), |ctx| {
        let (mut tr, grid) = Trainer::build(w, ctx, seed);
        let plan = w.plan(ctx.rank());
        let n = plan.cfg.batch * plan.cfg.seq;
        let b = &batches[0];
        time_core(&grid, tr.model(), &plan, &b.tokens[..n], &b.labels[..n])
    });
    outs[0]
}
