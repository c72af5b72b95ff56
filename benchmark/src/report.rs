//! Correctness bookkeeping and the printed result.

use std::collections::BTreeMap;

use mesh::CommOp;

use crate::ledger::{Timeline, Window};
use crate::probe::{CallPlan, CoreMs};
use crate::stats::{failed_share, median, tail};
use crate::workload::{Counts, StepRec, Workload};

/// End-to-end metrics (untraced run), with units, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("tokens_per_s", "tokens/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MB"),
    ("loss_final", "nats"),
    ("steps_passed_frac", "share"),
];

/// Per-layer metrics (traced run), with units, in print order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("tensor.gemm_ms", "ms"),
    ("tensor.pack_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.pool_acquire_ms", "ms"),
    ("core.embed_ms", "ms"),
    ("core.layernorm_ms", "ms"),
    ("core.attention_ms", "ms"),
    ("core.gelu_ms", "ms"),
    ("core.loss_head_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.layer_fwd_ms", "ms"),
    ("core.layer_bwd_ms", "ms"),
    ("core.recompute_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("summa.nn_ms", "ms"),
    ("summa.nt_ms", "ms"),
    ("summa.tn_ms", "ms"),
    ("summa.non_gemm_ms", "ms"),
    ("mesh.calls.broadcast", "count"),
    ("mesh.calls.reduce", "count"),
    ("mesh.calls.all_reduce", "count"),
    ("mesh.calls.all_gather", "count"),
    ("mesh.calls.reduce_scatter", "count"),
    ("mesh.calls.barrier", "count"),
    ("mesh.msgs", "count"),
    ("mesh.link_bytes", "bytes"),
    ("mesh.wire_ratio", "ratio"),
    ("mesh.comm_wait_ms", "ms"),
    ("mesh.comm_pending_ms", "ms"),
    ("hybrid.idle_frac", "share"),
    ("hybrid.dp_sync_ms", "ms"),
    ("hybrid.p2p_ms", "ms"),
    ("hybrid.peak_live_microbatches", "count"),
    ("dryrun.record_ms", "ms"),
    ("dryrun.ops", "count"),
    ("dryrun.init_ms", "ms"),
    ("perf.price_ms", "ms"),
    ("trace.overhead_frac", "share"),
];

/// `mesh.calls.*` names, in `CommOp::KINDS` order.
const CALL_METRICS: [&str; CommOp::KINDS.len()] = [
    "mesh.calls.broadcast",
    "mesh.calls.reduce",
    "mesh.calls.all_reduce",
    "mesh.calls.all_gather",
    "mesh.calls.reduce_scatter",
    "mesh.calls.barrier",
];

/// Absolute loss tolerance against the serial reference (the one the
/// workspace's equivalence tests use).
const LOSS_TOL: f32 = 1e-4;

/// Counts attempted and failed steps and records why steps failed.
///
/// A step fails when any device reports a non-finite loss or one that
/// differs from rank 0's; when, among the first reference steps, its loss
/// is off the serial reference by more than [`LOSS_TOL`] or differs
/// bitwise from the first launch's; or when any device's communication
/// differs from what that device did in the first step it ran.
pub struct Checker {
    reference: Vec<f32>,
    trajectory: Option<Vec<f32>>,
    counts: Vec<Option<Counts>>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checker {
    pub fn new(reference: Vec<f32>) -> Checker {
        Checker {
            reference,
            trajectory: None,
            counts: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Checks every step of one launch (`ranks[r]` = rank r's steps).
    pub fn launch(&mut self, ranks: &[Vec<StepRec>]) {
        let k = self.reference.len();
        let losses: Vec<f32> = ranks[0].iter().map(|s| s.loss).collect();
        let trajectory = self
            .trajectory
            .get_or_insert_with(|| losses[..k].to_vec())
            .clone();
        for (i, &loss) in losses.iter().enumerate() {
            let mut why = Vec::new();
            if !loss.is_finite() {
                why.push(format!("non-finite loss {loss}"));
            }
            if ranks
                .iter()
                .any(|steps| steps[i].loss.to_bits() != loss.to_bits())
            {
                why.push("devices disagree on the loss".to_string());
            }
            if i < k {
                if (loss - self.reference[i]).abs() > LOSS_TOL {
                    why.push(format!("loss {loss} vs serial {}", self.reference[i]));
                }
                if loss.to_bits() != trajectory[i].to_bits() {
                    why.push(format!("loss {loss} vs first launch {}", trajectory[i]));
                }
            }
            for (r, steps) in ranks.iter().enumerate() {
                if !self.same_counts(r, &steps[i].counts) {
                    why.push(format!("rank {r} communication differs"));
                }
            }
            self.step(i, why);
        }
    }

    /// Records one step's verdict.
    pub fn step(&mut self, i: usize, why: Vec<String>) {
        self.attempted += 1;
        if !why.is_empty() {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(format!("step {i}: {}", why.join("; ")));
            }
        }
    }

    fn same_counts(&mut self, rank: usize, c: &Counts) -> bool {
        if self.counts.len() <= rank {
            self.counts.resize(rank + 1, None);
        }
        *self.counts[rank].get_or_insert(*c) == *c
    }

    /// Checks that another path to the same step (a dry-run, a traced
    /// launch) communicated exactly as the live step did.
    pub fn expect_counts(&mut self, rank: usize, c: &Counts, what: &str) {
        if !self.same_counts(rank, c) {
            self.problems
                .push(format!("rank {rank}: {what} communicates differently"));
        }
    }

    /// A failed check that is not a step.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// One run's result: checks, human-readable notes and metric values.
pub struct Report {
    pub check: Checker,
    notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(check: Checker) -> Report {
        Report {
            check,
            notes: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, v);
    }

    /// Sets the end-to-end metrics from a timed launch's step times (after
    /// warm-up); returns tokens per second.
    pub fn end_to_end(
        &mut self,
        w: &Workload,
        secs: &[f64],
        setup_s: f64,
        peak_bytes: u64,
        loss_final: f32,
    ) -> f64 {
        let tps = w.tokens_per_step() as f64 * secs.len() as f64 / secs.iter().sum::<f64>();
        let t = tail(secs).expect("a timed launch runs enough steps for a tail");
        self.note(format!(
            "step_ms_tail is p{} of {} steps ({} beyond it)",
            t.pct, t.n, t.beyond
        ));
        self.set("tokens_per_s", tps);
        self.set("step_ms_p50", median(secs) * 1e3);
        self.set("step_ms_tail", t.value * 1e3);
        self.set("setup_s", setup_s);
        self.set("peak_mem_mb", peak_bytes as f64 / 1e6);
        self.set("loss_final", loss_final as f64);
        self.set(
            "steps_passed_frac",
            1.0 - failed_share(self.check.attempted, self.check.failed),
        );
        tps
    }

    /// Rank 0's per-step communication counts.
    pub fn counts(&mut self, c: &Counts) {
        for (name, n) in CALL_METRICS.iter().zip(c.calls) {
            self.set(name, n as f64);
        }
        self.set("mesh.msgs", c.msgs as f64);
        self.set("mesh.link_bytes", (c.link_elems * 4) as f64);
        let ratio = if c.logical_elems == 0 {
            0.0
        } else {
            c.link_elems as f64 / c.logical_elems as f64
        };
        self.set("mesh.wire_ratio", ratio);
    }

    pub fn core(&mut self, c: &CoreMs) {
        self.set("core.embed_ms", c.embed);
        self.set("core.layernorm_ms", c.layernorm);
        self.set("core.attention_ms", c.attention);
        self.set("core.gelu_ms", c.gelu);
        self.set("core.loss_head_ms", c.loss_head);
        self.set("core.update_ms", c.update);
    }

    /// Prints the notes, then the result object as the last line.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        for p in &self.check.problems {
            println!("CHECK FAILED: {p}");
        }
        println!("{}", self.result_json(traced));
    }

    /// The result object: every metric of the run's table, in table order
    /// (one never set would read 0; every run sets them all).
    fn result_json(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                assert!(v.is_finite(), "{name} = {v}");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check.correct(),
            self.check.attempted,
            self.check.failed,
            metrics.join(", ")
        )
    }
}

/// Spans whose self time is work no finer span names.
fn container(name: &str) -> bool {
    matches!(name, "fwd" | "bwd" | "fwd.layer2d" | "bwd.layer2d")
}

/// Spans that hold compute only, for the pipeline idle share.
fn compute(name: &str) -> bool {
    matches!(name, "fwd.layer2d" | "bwd.layer2d" | "loss_head")
}

/// Share of window `w` no compute span covers.
pub fn idle_frac(tl: &Timeline, w: Window) -> f64 {
    1.0 - tl.covered(w, &compute) as f64 / (w.1 - w.0).max(1) as f64
}

/// Sets the span-derived per-layer metrics: medians over rank 0's steps
/// (`steps` pairs each step's timeline with its window).
pub fn ledger_metrics(rep: &mut Report, plan: &CallPlan, steps: &[(&Timeline, Window)]) {
    let per_step = |f: &dyn Fn(&Timeline, Window) -> u64| -> f64 {
        median(
            &steps
                .iter()
                .map(|(tl, w)| f(tl, *w) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let gemm = per_step(&|tl, w| tl.covered(w, &|n| n == "gemm.ukr"));
    rep.set("tensor.gemm_ms", gemm);
    rep.set(
        "tensor.pack_ms",
        per_step(&|tl, w| tl.covered(w, &|n| n == "gemm.pack_a" || n == "gemm.pack_b")),
    );
    rep.set(
        "tensor.gemm_gflops",
        if gemm > 0.0 {
            plan.gemm_flops() / (gemm * 1e-3) / 1e9
        } else {
            0.0
        },
    );
    rep.set(
        "tensor.pool_acquire_ms",
        per_step(&|tl, w| tl.covered(w, &|n| n == "pool.acquire")),
    );
    let layer = |n: &str| n == "fwd.layer2d";
    rep.set(
        "core.layer_fwd_ms",
        per_step(&|tl, w| tl.covered_under(w, &layer, &|n| n == "fwd")),
    );
    rep.set(
        "core.recompute_ms",
        per_step(&|tl, w| tl.covered_under(w, &layer, &|n| n == "bwd")),
    );
    rep.set(
        "core.layer_bwd_ms",
        per_step(&|tl, w| tl.covered(w, &|n| n == "bwd.layer2d")),
    );
    rep.set(
        "core.unattributed_ms",
        per_step(&|tl, w| tl.unattributed(w, &|n| !container(n))),
    );
    for (metric, span) in [
        ("summa.nn_ms", "summa.nn"),
        ("summa.nt_ms", "summa.nt"),
        ("summa.tn_ms", "summa.tn"),
    ] {
        rep.set(metric, per_step(&|tl, w| tl.covered(w, &|n| n == span)));
    }
    let summa = |n: &str| n.starts_with("summa.");
    rep.set(
        "summa.non_gemm_ms",
        per_step(&|tl, w| {
            tl.covered(w, &summa) - tl.covered_under(w, &|n| n.starts_with("gemm."), &summa)
        }),
    );
    rep.set(
        "mesh.comm_wait_ms",
        per_step(&|tl, w| tl.covered(w, &|n| n == "comm.wait")),
    );
    rep.set(
        "mesh.comm_pending_ms",
        per_step(&|tl, w| tl.covered(w, &|n| n == "comm.pending")),
    );
    rep.set(
        "hybrid.dp_sync_ms",
        per_step(&|tl, w| tl.op_time(w, &|m| m.axis == "dp")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use minjson::Json;

    fn names(j: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k: &str| match m.get(k).unwrap() {
            Json::Str(s) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        j.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, if key == "workloads" { "why" } else { "unit" }),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_benchmark_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = minjson::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&j, "end_to_end"), table(&END_TO_END));
        assert_eq!(names(&j, "per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names(&j, "workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_json_parses_and_carries_every_metric() {
        let mut check = Checker::new(Vec::new());
        check.step(0, Vec::new());
        check.step(1, vec!["bad".to_string()]);
        let mut rep = Report::new(check);
        rep.set("tokens_per_s", 1234.5678);
        for (traced, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let j = minjson::parse(&rep.result_json(traced)).unwrap();
            assert_eq!(j.get("correct").unwrap(), &Json::Bool(false));
            assert_eq!(j.get("attempted").unwrap().as_usize().unwrap(), 2);
            assert_eq!(j.get("failed").unwrap().as_usize().unwrap(), 1);
            let m = j.get("metrics").unwrap();
            for (name, unit) in table {
                let e = m.get(name).unwrap();
                assert_eq!(e.get("unit").unwrap(), &Json::Str(unit.to_string()));
                e.get("value").unwrap().as_f64().unwrap();
            }
        }
        let j = minjson::parse(&rep.result_json(false)).unwrap();
        let tps = j.get("metrics").unwrap().get("tokens_per_s").unwrap();
        assert_eq!(tps.get("value").unwrap().as_f64().unwrap(), 1234.5678);
    }
}
