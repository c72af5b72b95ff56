//! The planner's view of a workload: the same training step recorded on
//! the trace-only mesh (`Mesh::dry_run_with_logs`) and priced by the α-β
//! cost model under the fixed Frontera profile, as the CLI's `--dry-run`
//! projection does.

use std::cell::Cell;
use std::time::Instant;

use mesh::{Arrangement, CommLog, Communicator, Mesh, Topology};
use perf::{CostModel, HardwareProfile};

use crate::report::Report;
use crate::stats::median;
use crate::workload::{Batch, Counts, Layout, Trainer, Workload};

/// Recordings per measurement; the metrics are their medians.
const REPS: usize = 3;

/// The paper's Frontera profile (never a host calibration), with bunched
/// placement on a square mesh and rank-major placement otherwise.
fn cost_model(w: &Workload) -> CostModel {
    let profile = HardwareProfile::frontera_rtx5000();
    let p = w.devices();
    let gpn = profile.gpus_per_node.min(p);
    let topology = match w.layout {
        Layout::Grid(q) => Topology::new(q, gpn, Arrangement::Bunched),
        Layout::Hybrid(_) => Topology::flat(p, gpn),
    };
    CostModel::new(profile, topology)
}

/// Records one step per device on the trace-only mesh. Returns each
/// device's step log and the seconds spent building shards and recording.
fn record(w: &Workload, seed: u64, b: &Batch) -> (Vec<CommLog>, f64, f64) {
    let (init, rec) = (Cell::new(0.0), Cell::new(0.0));
    let (logs, _) = Mesh::dry_run_with_logs(w.devices(), |comm| {
        let t0 = Instant::now();
        let (mut tr, grid) = Trainer::build(w, comm, seed);
        init.set(init.get() + t0.elapsed().as_secs_f64());
        comm.take_log();
        let t1 = Instant::now();
        tr.step(&grid, b);
        rec.set(rec.get() + t1.elapsed().as_secs_f64());
        comm.take_log()
    });
    (logs, init.get(), rec.get())
}

/// Measures the planner on `w`'s step and checks it: every recording must
/// communicate exactly as the live step did (per device), and a
/// model-priced traced recording must reconcile with the cost model
/// through `perf::tracecheck`.
pub fn measure(w: &Workload, seed: u64, b: &Batch, rep: &mut Report) {
    let cost = cost_model(w);
    let (mut init, mut rec, mut price) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = 0;
    for _ in 0..REPS {
        let (logs, init_s, rec_s) = record(w, seed, b);
        let t0 = Instant::now();
        std::hint::black_box(cost.replay_max(&logs));
        price.push(t0.elapsed().as_secs_f64());
        init.push(init_s);
        rec.push(rec_s);
        ops = logs.iter().map(|l| l.ops.len()).sum();
        for (r, log) in logs.iter().enumerate() {
            rep.check
                .expect_counts(r, &Counts::of(log), "the dry-run of the step");
        }
    }
    let (_, _, traces) = Mesh::dry_run_traced(w.devices(), cost.ns_pricer(), |comm| {
        let (mut tr, grid) = Trainer::build(w, comm, seed);
        tr.step(&grid, b);
    });
    // The virtual clock stamps each op with the model's time rounded to
    // whole nanoseconds, so per collective kind the trace may differ from
    // the model by at most half a nanosecond per event.
    let totals = perf::tracecheck::op_totals(&cost, &traces);
    for t in &totals {
        if (t.measured_s - t.modeled_s).abs() > 0.5e-9 * t.count as f64 + 1e-15 {
            rep.check.problem(format!(
                "tracecheck: {} priced {:e} s in the trace vs {:e} s by the model",
                t.kind, t.measured_s, t.modeled_s
            ));
        }
    }
    rep.note(format!(
        "planner: tracecheck max relative gap {:.3e} over {} op events",
        perf::tracecheck::max_rel_gap(&totals),
        totals.iter().map(|t| t.count).sum::<usize>()
    ));
    rep.set("dryrun.init_ms", median(&init) * 1e3);
    rep.set("dryrun.record_ms", median(&rec) * 1e3);
    rep.set("perf.price_ms", median(&price) * 1e3);
    rep.set("dryrun.ops", ops as f64);
}
