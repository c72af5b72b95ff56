//! Per-step analysis of one device's trace: span durations, self times and
//! op events inside a step's time window.
//!
//! The program's spans nest like a call stack on each device thread, so the
//! direct children of a span cover disjoint parts of it. A span's *self
//! time* is its duration minus its children's; self times of distinct spans
//! are therefore disjoint, and their sum never exceeds the step.

use trace::{DeviceTrace, Event, OpMeta};

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in [`Timeline::spans`], if any.
    pub parent: Option<usize>,
    pub t0: u64,
    pub t1: u64,
    /// Summed duration of direct children.
    child_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.t1 - self.t0
    }

    pub fn self_ns(&self) -> u64 {
        self.dur().saturating_sub(self.child_ns)
    }
}

/// One collective op event.
#[derive(Clone, Debug)]
pub struct Op {
    pub t0: u64,
    pub t1: u64,
    pub meta: OpMeta,
}

/// A device's spans and ops, in program order.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    pub spans: Vec<Span>,
    pub ops: Vec<Op>,
}

/// A half-open step window `[t0, t1)` on a device's trace clock.
pub type Window = (u64, u64);

impl Timeline {
    pub fn new(dev: &DeviceTrace) -> Timeline {
        let mut tl = Timeline::default();
        // Span ids are assigned 1, 2, ... in open order, so id − 1 indexes
        // `spans`; the open stack maps the innermost id to its parent.
        let mut stack: Vec<usize> = Vec::new();
        for ev in &dev.events {
            match ev {
                Event::Enter {
                    span, name, t_ns, ..
                } => {
                    assert_eq!(*span as usize, tl.spans.len() + 1, "span ids out of order");
                    tl.spans.push(Span {
                        name,
                        parent: stack.last().copied(),
                        t0: *t_ns,
                        t1: *t_ns,
                        child_ns: 0,
                    });
                    stack.push(tl.spans.len() - 1);
                }
                Event::Exit { span, t_ns } => {
                    let i = stack.pop().expect("exit without enter");
                    assert_eq!(i + 1, *span as usize, "span exit out of order");
                    tl.spans[i].t1 = *t_ns;
                    if let Some(p) = tl.spans[i].parent {
                        let d = tl.spans[i].dur();
                        tl.spans[p].child_ns += d;
                    }
                }
                Event::Op {
                    t0_ns, t1_ns, meta, ..
                } => tl.ops.push(Op {
                    t0: *t0_ns,
                    t1: *t1_ns,
                    meta: meta.clone(),
                }),
            }
        }
        assert!(stack.is_empty(), "trace ended with open spans");
        tl
    }

    fn in_window(w: Window, t0: u64, t1: u64) -> bool {
        t0 >= w.0 && t1 <= w.1
    }

    fn spans_in(&self, w: Window) -> impl Iterator<Item = (usize, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| Self::in_window(w, s.t0, s.t1))
    }

    fn has_ancestor(&self, i: usize, pred: &dyn Fn(&str) -> bool) -> bool {
        let mut p = self.spans[i].parent;
        while let Some(j) = p {
            if pred(self.spans[j].name) {
                return true;
            }
            p = self.spans[j].parent;
        }
        false
    }

    /// Time covered by spans matching `pred` (outermost ones only, so a
    /// matching span nested in another is not counted twice), restricted
    /// to those with an ancestor matching `under`.
    pub fn covered_under(
        &self,
        w: Window,
        pred: &dyn Fn(&str) -> bool,
        under: &dyn Fn(&str) -> bool,
    ) -> u64 {
        self.spans_in(w)
            .filter(|(i, s)| {
                pred(s.name) && !self.has_ancestor(*i, pred) && self.has_ancestor(*i, under)
            })
            .map(|(_, s)| s.dur())
            .sum()
    }

    /// Time covered by spans matching `pred` (outermost ones only).
    pub fn covered(&self, w: Window, pred: &dyn Fn(&str) -> bool) -> u64 {
        self.spans_in(w)
            .filter(|(i, s)| pred(s.name) && !self.has_ancestor(*i, pred))
            .map(|(_, s)| s.dur())
            .sum()
    }

    /// Step time left after removing the self time of every span whose
    /// name `attributes` accepts: the time only container spans, or no
    /// span at all, account for. Never negative (self times are disjoint).
    pub fn unattributed(&self, w: Window, attributes: &dyn Fn(&str) -> bool) -> u64 {
        let named: u64 = self
            .spans_in(w)
            .filter(|(_, s)| attributes(s.name))
            .map(|(_, s)| s.self_ns())
            .sum();
        (w.1 - w.0).saturating_sub(named)
    }

    /// Summed duration of op events in the window accepted by `pred`.
    pub fn op_time(&self, w: Window, pred: &dyn Fn(&OpMeta) -> bool) -> u64 {
        self.ops
            .iter()
            .filter(|o| Self::in_window(w, o.t0, o.t1) && pred(&o.meta))
            .map(|o| o.t1 - o.t0)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(span: u32, parent: u32, name: &'static str, t: u64) -> Event {
        Event::Enter {
            span,
            parent,
            name,
            t_ns: t,
        }
    }

    fn exit(span: u32, t: u64) -> Event {
        Event::Exit { span, t_ns: t }
    }

    /// step 0..100: fwd [0, 60) holds layer [5, 55) which holds gemm
    /// [10, 30) and a nested gemm [12, 20); bwd [60, 95) holds gemm
    /// [70, 80); 95..100 is outside every span.
    fn sample() -> Timeline {
        Timeline::new(&DeviceTrace {
            rank: 0,
            events: vec![
                enter(1, 0, "fwd", 0),
                enter(2, 1, "layer", 5),
                enter(3, 2, "gemm", 10),
                enter(4, 3, "gemm", 12),
                exit(4, 20),
                exit(3, 30),
                exit(2, 55),
                exit(1, 60),
                enter(5, 0, "bwd", 60),
                enter(6, 5, "gemm", 70),
                Event::Op {
                    span: 6,
                    t0_ns: 72,
                    t1_ns: 75,
                    meta: OpMeta::collective("AllReduce", 2, 0, 1, 8, 8).with_axis("dp"),
                },
                exit(6, 80),
                exit(5, 95),
            ],
        })
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tl = sample();
        let by_name = |n: &str| -> Vec<u64> {
            tl.spans
                .iter()
                .filter(|s| s.name == n)
                .map(Span::self_ns)
                .collect()
        };
        assert_eq!(by_name("fwd"), vec![10]); // 60 - layer 50
        assert_eq!(by_name("layer"), vec![30]); // 50 - gemm 20
        assert_eq!(by_name("gemm"), vec![12, 8, 10]); // 20 - inner 8
        assert_eq!(by_name("bwd"), vec![25]);
        let total_self: u64 = tl.spans.iter().map(Span::self_ns).sum();
        assert_eq!(total_self, 95, "self times tile the spanned time");
    }

    #[test]
    fn covered_counts_nested_matches_once() {
        let tl = sample();
        let gemm = |n: &str| n == "gemm";
        assert_eq!(tl.covered((0, 100), &gemm), 30);
        assert_eq!(tl.covered_under((0, 100), &gemm, &|n| n == "fwd"), 20);
        assert_eq!(tl.covered_under((0, 100), &gemm, &|n| n == "bwd"), 10);
        // A window that excludes the backward pass.
        assert_eq!(tl.covered((0, 60), &gemm), 20);
    }

    #[test]
    fn unattributed_is_what_containers_and_the_root_hold() {
        let tl = sample();
        let containers = |n: &str| matches!(n, "fwd" | "bwd" | "layer");
        // fwd 10 + layer 30 + bwd 25 self, plus 5 outside any span.
        assert_eq!(tl.unattributed((0, 100), &|n| !containers(n)), 70);
        // Attributing everything leaves only the uncovered tail.
        assert_eq!(tl.unattributed((0, 100), &|_| true), 5);
        // Attributing nothing leaves the whole step.
        assert_eq!(tl.unattributed((0, 100), &|_| false), 100);
    }

    #[test]
    fn unattributed_never_goes_negative() {
        // Deep nesting with children filling their parents exactly, and
        // random-length siblings: the attributed self time can reach the
        // step but never pass it.
        let mut rng = tensor::Rng::new(3);
        for _ in 0..200 {
            let mut events = Vec::new();
            let (mut t, mut id) = (0u64, 0u32);
            let mut stack: Vec<u32> = Vec::new();
            for _ in 0..40 {
                t += rng.below(5) as u64;
                if !stack.is_empty() && rng.below(2) == 0 {
                    events.push(exit(stack.pop().unwrap(), t));
                } else {
                    id += 1;
                    let parent = stack.last().copied().unwrap_or(0);
                    events.push(enter(id, parent, "s", t));
                    stack.push(id);
                }
            }
            while let Some(s) = stack.pop() {
                t += rng.below(3) as u64;
                events.push(exit(s, t));
            }
            let tl = Timeline::new(&DeviceTrace { rank: 0, events });
            let w = (0, t);
            let attributed: u64 = tl.spans.iter().map(Span::self_ns).sum();
            assert!(attributed <= t);
            assert_eq!(tl.unattributed(w, &|_| true), t - attributed);
        }
    }

    #[test]
    fn op_time_filters_by_window_and_meta() {
        let tl = sample();
        assert_eq!(tl.op_time((0, 100), &|m| m.axis == "dp"), 3);
        assert_eq!(tl.op_time((0, 60), &|m| m.axis == "dp"), 0);
        assert_eq!(tl.op_time((0, 100), &|m| m.axis == "row"), 0);
    }
}
