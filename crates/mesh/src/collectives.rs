//! The collective layer both [`Communicator`] backends share.
//!
//! Every collective is a [`schedule`] plan per member. This module wraps
//! the plans once for both backends: the member and root checks, the
//! [`CommLog`] op record, one link record per `Send` at its packed length,
//! the trace op event, and the wire and algorithm choice the trait's
//! provided methods make through the installed [`crate::AlgoTable`] and
//! [`crate::WireTable`]. A backend supplies only a [`Transport`]: its log,
//! how it executes a plan (the live fabric moves and folds payloads; the
//! dry run moves nothing) and how it posts a non-blocking one.
//!
//! The menus (see [`crate::CollAlgo`]):
//!
//! * **Broadcast / Reduce** — binomial tree (`⌈log₂ g⌉` rounds of the full
//!   payload, the paper's Eq. 4) or a segmented pipelined chain.
//! * **AllReduce** — ring reduce-scatter + all-gather (the paper's Eq. 5),
//!   recursive halving/doubling, or tree reduce-to-0 + broadcast.
//! * **AllGather** — ring or Bruck.
//! * **ReduceScatter** — ring or recursive halving.
//! * **Barrier** — empty reduce + broadcast.
//!
//! All members of a group must call the same collective with the same
//! algorithm in the same order; ordering between distinct (sender,
//! receiver) pairs is guaranteed by the per-pair FIFO channels.

use crate::algo::{self, CollAlgo};
use crate::comm::Communicator;
use crate::group::Group;
use crate::nonblocking::{self, PendingColl, PendingInner};
use crate::schedule::{self, chunk_start, Fold, Plan};
use crate::stats::{group_shape, record_group_op, CommLog, CommOp};
use crate::wire::{self, packed_len, WireDtype};
use std::cell::RefCell;

/// What a backend supplies to run collectives; its point-to-point surface
/// is the [`Communicator`] it also implements.
pub(crate) trait Transport: Communicator {
    /// The backend's communication log.
    fn log(&self) -> &RefCell<CommLog>;

    /// Moves the payloads of this member's `plan` over `buf`; its link
    /// records are already logged (see [`run`]). The default moves nothing,
    /// which is all the dry run does.
    fn execute(&self, _plan: &Plan, _group: &Group, _buf: &mut [f32], _wire: Option<WireDtype>) {}

    /// Hands a non-blocking collective to the backend once its op and
    /// sends are logged; `plan` has at least one step. The default
    /// completes it at post, which is all the dry run can do.
    fn post(&self, _plan: Plan, _group: &Group, _w: WireDtype, buf: Vec<f32>) -> PendingInner {
        PendingInner::Ready(buf)
    }
}

/// `(group size, this member's index)`; panics if the caller is not in
/// `group`.
pub(crate) fn member<T: Transport>(t: &T, group: &Group) -> (usize, usize) {
    let me = group
        .index_of(t.rank())
        .unwrap_or_else(|| panic!("device {} is not in group {:?}", t.rank(), group));
    (group.len(), me)
}

/// [`member`] for a rooted collective, checking `root` first.
pub(crate) fn rooted<T: Transport>(t: &T, group: &Group, root: usize) -> (usize, usize) {
    let g = group.len();
    assert!(root < g, "root index {root} out of range for group of {g}");
    member(t, group)
}

pub(crate) fn record_op<T: Transport>(
    t: &T,
    op: CommOp,
    algo: CollAlgo,
    group: &Group,
    elems: usize,
) {
    record_group_op(&mut t.log().borrow_mut(), op, algo, group, elems);
}

/// Logs one link record per `Send` of `plan`, at its packed length.
pub(crate) fn record_sends<T: Transport>(t: &T, plan: &Plan, group: &Group, w: WireDtype) {
    let mut log = t.log().borrow_mut();
    for (to, elems) in plan.sends() {
        let to = group.rank_of(to);
        assert!(
            to < t.world_size(),
            "send to rank {to} out of range (p={})",
            t.world_size()
        );
        log.record_link(t.rank(), to, packed_len(elems, w));
    }
}

/// Runs this member's `plan` over `buf`: logs a link record per `Send`,
/// then has the backend execute it. `wire` is the collective's wire dtype,
/// or `None` for scatter and gather, whose messages are plain f32
/// point-to-point traffic outside the `coll_*_bytes` counters.
fn run<T: Transport>(t: &T, plan: &Plan, group: &Group, buf: &mut [f32], wire: Option<WireDtype>) {
    record_sends(t, plan, group, wire.unwrap_or_default());
    t.execute(plan, group, buf, wire);
}

/// O(1) total of elements sent so far (tracer wire attribution).
pub(crate) fn wire_total<T: Transport>(t: &T) -> usize {
    t.log().borrow().total_link_elems()
}

/// The trace metadata of one collective call.
pub(crate) fn op_meta(
    op: CommOp,
    algo: CollAlgo,
    w: WireDtype,
    group: &Group,
    elems: usize,
    wire_elems: usize,
) -> trace::OpMeta {
    let (group_size, group_first, group_stride) = group_shape(group);
    trace::OpMeta {
        kind: op.name(),
        group_size,
        group_first,
        group_stride,
        elems,
        wire_elems,
        axis: group.label(),
        algo: algo.name(),
        wire: w.name(),
    }
}

/// Runs one collective under a trace op event (when a collector is active).
///
/// `run` executes the collective and returns `(result, logical_elems)`; a
/// non-root scatter only learns its logical size from the wire. The
/// backend's link total, sampled before and after, attributes wire traffic
/// to the event.
fn traced<T: Transport, R>(
    t: &T,
    op: CommOp,
    algo: CollAlgo,
    w: WireDtype,
    group: &Group,
    run: impl FnOnce() -> (R, usize),
) -> R {
    if !trace::is_active() {
        return run().0;
    }
    let wire_before = wire_total(t);
    let timer = trace::op_begin();
    let (out, elems) = run();
    let wire_elems = wire_total(t) - wire_before;
    trace::op_end(timer, op_meta(op, algo, w, group, elems, wire_elems));
    out
}

/// Records and runs one table-selectable collective over `buf`, whose
/// logical payload is `elems`.
#[allow(clippy::too_many_arguments)]
fn collective<T: Transport>(
    t: &T,
    op: CommOp,
    algo: CollAlgo,
    w: WireDtype,
    group: &Group,
    plan: &Plan,
    buf: &mut [f32],
    elems: usize,
) {
    traced(t, op, algo, w, group, || {
        record_op(t, op, algo, group, elems);
        run(t, plan, group, buf, Some(w));
        ((), elems)
    })
}

/// Implements [`Communicator`] for a [`Transport`] whose type also has
/// inherent `rank`, `world_size`, `send`, `recv` and `recv_expect`.
macro_rules! impl_communicator {
    ($backend:ty) => {
        impl Communicator for $backend {
            fn rank(&self) -> usize {
                <$backend>::rank(self)
            }

            fn world_size(&self) -> usize {
                <$backend>::world_size(self)
            }

            fn send(&self, to: usize, data: Vec<f32>) {
                <$backend>::send(self, to, data)
            }

            fn recv(&self, from: usize) -> Vec<f32> {
                <$backend>::recv(self, from)
            }

            fn recv_expect(&self, from: usize, len: usize) -> Vec<f32> {
                <$backend>::recv_expect(self, from, len)
            }

            fn broadcast_algo_wire(
                &self,
                group: &Group,
                root: usize,
                data: &mut [f32],
                algo: CollAlgo,
                w: WireDtype,
            ) {
                let ((g, me), n) = (rooted(self, group, root), data.len());
                let plan = schedule::broadcast(algo, g, root, me, n);
                collective(self, CommOp::Broadcast, algo, w, group, &plan, data, n);
            }

            fn reduce_algo_wire(
                &self,
                group: &Group,
                root: usize,
                data: &mut [f32],
                algo: CollAlgo,
                w: WireDtype,
            ) {
                let ((g, me), n) = (rooted(self, group, root), data.len());
                let plan = schedule::reduce(algo, g, root, me, n);
                collective(self, CommOp::Reduce, algo, w, group, &plan, data, n);
            }

            fn ibroadcast(&self, group: &Group, root: usize, buf: Vec<f32>) -> PendingColl {
                nonblocking::post(self, CommOp::Broadcast, group, root, buf)
            }

            fn ireduce(&self, group: &Group, root: usize, buf: Vec<f32>) -> PendingColl {
                nonblocking::post(self, CommOp::Reduce, group, root, buf)
            }

            fn all_reduce_algo_wire(
                &self,
                group: &Group,
                data: &mut [f32],
                algo: CollAlgo,
                w: WireDtype,
            ) {
                let ((g, me), n) = (member(self, group), data.len());
                let plan = schedule::all_reduce(algo, g, me, n, Fold::Sum);
                collective(self, CommOp::AllReduce, algo, w, group, &plan, data, n);
            }

            fn all_reduce_max(&self, group: &Group, data: &mut [f32]) {
                let ((g, me), n) = (member(self, group), data.len());
                let algo = algo::select(CommOp::AllReduce, g, n);
                let w = wire::select(CommOp::AllReduce, g, n);
                let plan = schedule::all_reduce(algo, g, me, n, Fold::Max);
                collective(self, CommOp::AllReduce, algo, w, group, &plan, data, n);
            }

            fn all_gather_algo_wire(
                &self,
                group: &Group,
                local: &[f32],
                algo: CollAlgo,
                w: WireDtype,
            ) -> Vec<f32> {
                let ((g, me), n) = (member(self, group), local.len());
                let mut out = vec![0.0f32; n * g];
                out[me * n..(me + 1) * n].copy_from_slice(local);
                let plan = schedule::all_gather(algo, g, me, n);
                collective(self, CommOp::AllGather, algo, w, group, &plan, &mut out, n);
                out
            }

            fn reduce_scatter_algo_wire(
                &self,
                group: &Group,
                data: &mut [f32],
                algo: CollAlgo,
                w: WireDtype,
            ) -> Vec<f32> {
                let ((g, me), n) = (member(self, group), data.len());
                let plan = schedule::reduce_scatter(algo, g, me, n);
                collective(self, CommOp::ReduceScatter, algo, w, group, &plan, data, n);
                data[chunk_start(n, g, me)..chunk_start(n, g, me + 1)].to_vec()
            }

            fn scatter(&self, group: &Group, root: usize, data: &[f32]) -> Vec<f32> {
                let (g, me) = rooted(self, group, root);
                let (op, algo) = (CommOp::ReduceScatter, CollAlgo::Ring);
                traced(self, op, algo, WireDtype::F32, group, || {
                    if me != root {
                        // Non-roots pass no data, so they cannot size the
                        // plan's receive: the root's one message is the chunk.
                        let out = <$backend>::recv(self, group.rank_of(root));
                        let elems = out.len() * g;
                        record_op(self, op, algo, group, elems);
                        return (out, elems);
                    }
                    let n = data.len();
                    record_op(self, op, algo, group, n);
                    let mut buf = data.to_vec();
                    run(
                        self,
                        &schedule::scatter(g, root, me, n),
                        group,
                        &mut buf,
                        None,
                    );
                    (
                        buf[chunk_start(n, g, me)..chunk_start(n, g, me + 1)].to_vec(),
                        n,
                    )
                })
            }

            fn gather(&self, group: &Group, root: usize, local: &[f32]) -> Vec<f32> {
                let ((g, me), n) = (rooted(self, group, root), local.len());
                let (op, algo) = (CommOp::AllGather, CollAlgo::Ring);
                traced(self, op, algo, WireDtype::F32, group, || {
                    record_op(self, op, algo, group, n);
                    let plan = schedule::gather(g, root, me, n);
                    if me != root {
                        run(self, &plan, group, &mut local.to_vec(), None);
                        return (Vec::new(), n);
                    }
                    let mut out = vec![0.0f32; n * g];
                    out[me * n..(me + 1) * n].copy_from_slice(local);
                    run(self, &plan, group, &mut out, None);
                    (out, n)
                })
            }

            fn barrier(&self, group: &Group) {
                let (g, me) = member(self, group);
                let reduce = algo::select(CommOp::Reduce, g, 0);
                let bcast = algo::select(CommOp::Broadcast, g, 0);
                let plan = schedule::barrier(reduce, bcast, g, me);
                traced(
                    self,
                    CommOp::Barrier,
                    CollAlgo::Tree,
                    WireDtype::F32,
                    group,
                    || {
                        record_op(self, CommOp::Barrier, CollAlgo::Tree, group, 0);
                        record_op(self, CommOp::Reduce, reduce, group, 0);
                        record_op(self, CommOp::Broadcast, bcast, group, 0);
                        run(self, &plan, group, &mut [], Some(WireDtype::F32));
                        ((), 0)
                    },
                )
            }

            fn log_snapshot(&self) -> CommLog {
                self.log().borrow().clone()
            }

            fn take_log(&self) -> CommLog {
                let rank = <$backend>::rank(self);
                std::mem::replace(&mut self.log().borrow_mut(), CommLog::new(rank))
            }
        }
    };
}

impl_communicator!(crate::DeviceCtx);
impl_communicator!(crate::DryRunComm);

#[cfg(test)]
mod tests {
    use crate::schedule::chunk_start;
    use crate::{Communicator, Group, Mesh};

    #[test]
    fn broadcast_from_every_root() {
        for p in [2usize, 3, 4, 7, 8] {
            for root in 0..p {
                let out = Mesh::run(p, |ctx| {
                    let g = Group::world(p);
                    let mut data = if ctx.rank() == root {
                        vec![1.0, 2.0, 3.0]
                    } else {
                        vec![0.0; 3]
                    };
                    ctx.broadcast(&g, root, &mut data);
                    data
                });
                for (r, d) in out.iter().enumerate() {
                    assert_eq!(d, &vec![1.0, 2.0, 3.0], "p={p} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [2usize, 3, 5, 8] {
            for root in [0, p - 1] {
                let out = Mesh::run(p, |ctx| {
                    let g = Group::world(p);
                    let mut data = vec![ctx.rank() as f32 + 1.0; 4];
                    ctx.reduce(&g, root, &mut data);
                    data
                });
                let expected = (p * (p + 1) / 2) as f32;
                assert_eq!(out[root], vec![expected; 4], "p={p} root={root}");
            }
        }
    }

    #[test]
    fn all_reduce_sums_everywhere() {
        for p in [1usize, 2, 3, 4, 6, 9] {
            let out = Mesh::run(p, |ctx| {
                let g = Group::world(p);
                // Distinct per-rank payload with length not divisible by p.
                let mut data: Vec<f32> = (0..13).map(|i| (ctx.rank() * 100 + i) as f32).collect();
                ctx.all_reduce(&g, &mut data);
                data
            });
            let expected: Vec<f32> = (0..13)
                .map(|i| (0..p).map(|r| (r * 100 + i) as f32).sum())
                .collect();
            for (r, d) in out.iter().enumerate() {
                assert_eq!(d, &expected, "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn all_reduce_max_takes_maximum() {
        let p = 4;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data = vec![-(ctx.rank() as f32), ctx.rank() as f32];
            ctx.all_reduce_max(&g, &mut data);
            data
        });
        for d in out {
            assert_eq!(d, vec![0.0, 3.0]);
        }
    }

    #[test]
    fn all_gather_concatenates_in_group_order() {
        let p = 4;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            ctx.all_gather(&g, &[ctx.rank() as f32, 10.0 * ctx.rank() as f32])
        });
        for d in out {
            assert_eq!(d, vec![0.0, 0.0, 1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_member_its_chunk() {
        let p = 4;
        let n = 8; // 2 elements per chunk
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data: Vec<f32> = (0..n).map(|i| i as f32).collect();
            ctx.reduce_scatter(&g, &mut data)
        });
        for (r, d) in out.iter().enumerate() {
            let expected: Vec<f32> = (2 * r..2 * r + 2).map(|i| (i * p) as f32).collect();
            assert_eq!(d, &expected, "rank={r}");
        }
    }

    #[test]
    fn collectives_work_on_subgroups() {
        // Two disjoint row groups of a 2x2 mesh run broadcasts concurrently.
        let out = Mesh::run(4, |ctx| {
            let row = if ctx.rank() < 2 {
                Group::new(vec![0, 1])
            } else {
                Group::new(vec![2, 3])
            };
            let mut data = if ctx.rank() % 2 == 0 {
                vec![ctx.rank() as f32]
            } else {
                vec![0.0]
            };
            ctx.broadcast(&row, 0, &mut data);
            data[0]
        });
        assert_eq!(out, vec![0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn non_contiguous_group_all_reduce() {
        // A mesh *column* {1, 3} of a 2x2 mesh.
        let out = Mesh::run(4, |ctx| {
            if ctx.rank() % 2 == 1 {
                let col = Group::new(vec![1, 3]);
                let mut data = vec![ctx.rank() as f32];
                ctx.all_reduce(&col, &mut data);
                data[0]
            } else {
                -1.0
            }
        });
        assert_eq!(out, vec![-1.0, 4.0, -1.0, 4.0]);
    }

    #[test]
    fn scatter_distributes_root_chunks() {
        let p = 4;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let data: Vec<f32> = if ctx.rank() == 1 {
                (0..8).map(|i| i as f32).collect()
            } else {
                Vec::new()
            };
            ctx.scatter(&g, 1, &data)
        });
        for (r, chunk) in out.iter().enumerate() {
            let expect: Vec<f32> = (2 * r..2 * r + 2).map(|i| i as f32).collect();
            assert_eq!(chunk, &expect, "rank {r}");
        }
    }

    #[test]
    fn gather_reassembles_in_group_order() {
        let p = 3;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            ctx.gather(&g, 2, &[ctx.rank() as f32, 10.0 + ctx.rank() as f32])
        });
        assert!(out[0].is_empty());
        assert!(out[1].is_empty());
        assert_eq!(out[2], vec![0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn scatter_then_gather_roundtrips() {
        let p = 4;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let data: Vec<f32> = if ctx.rank() == 0 {
                (0..12).map(|i| (i as f32).sin()).collect()
            } else {
                Vec::new()
            };
            let chunk = ctx.scatter(&g, 0, &data);
            ctx.gather(&g, 0, &chunk)
        });
        let expect: Vec<f32> = (0..12).map(|i| (i as f32).sin()).collect();
        assert_eq!(out[0], expect);
    }

    #[test]
    fn barrier_completes() {
        let out = Mesh::run(5, |ctx| {
            let g = Group::world(5);
            for _ in 0..3 {
                ctx.barrier(&g);
            }
            true
        });
        assert_eq!(out, vec![true; 5]);
    }

    #[test]
    fn all_reduce_payload_smaller_than_group() {
        // n=2 < g=4: some ring chunks are empty; must still be correct.
        let out = Mesh::run(4, |ctx| {
            let g = Group::world(4);
            let mut data = vec![1.0f32, 2.0];
            ctx.all_reduce(&g, &mut data);
            data
        });
        for d in out {
            assert_eq!(d, vec![4.0, 8.0]);
        }
    }

    #[test]
    fn reduce_scatter_count_not_divisible_by_group() {
        // n=7 over g=4: near-equal ring chunks of sizes 1, 2, 2, 2
        // (boundaries from `chunk_start`). Every rank contributes the same
        // vector, so member i must receive its chunk scaled by g.
        let (p, n) = (4usize, 7usize);
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data: Vec<f32> = (0..n).map(|i| i as f32).collect();
            ctx.reduce_scatter(&g, &mut data)
        });
        for (r, d) in out.iter().enumerate() {
            let expect: Vec<f32> = (chunk_start(n, p, r)..chunk_start(n, p, r + 1))
                .map(|i| (i * p) as f32)
                .collect();
            assert_eq!(d, &expect, "rank={r}");
        }
    }

    #[test]
    fn reduce_scatter_payload_smaller_than_group() {
        // n=3 over g=5: two members own empty chunks; the ring must still
        // deliver the right (possibly empty) slice everywhere.
        let (p, n) = (5usize, 3usize);
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data: Vec<f32> = (0..n).map(|i| 1.0 + i as f32).collect();
            ctx.reduce_scatter(&g, &mut data)
        });
        for (r, d) in out.iter().enumerate() {
            let expect: Vec<f32> = (chunk_start(n, p, r)..chunk_start(n, p, r + 1))
                .map(|i| ((1 + i) * p) as f32)
                .collect();
            assert_eq!(d, &expect, "rank={r}");
        }
        assert!(out.iter().any(|d| d.is_empty()), "some chunk must be empty");
    }

    #[test]
    fn all_gather_local_len_not_divisible_by_group() {
        // Local blocks of 5 elements over a group of 3: 15-element result,
        // rank order preserved.
        let p = 3;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let local: Vec<f32> = (0..5).map(|k| (10 * ctx.rank() + k) as f32).collect();
            ctx.all_gather(&g, &local)
        });
        let expect: Vec<f32> = (0..p)
            .flat_map(|r| (0..5).map(move |k| (10 * r + k) as f32))
            .collect();
        for d in out {
            assert_eq!(d, expect);
        }
    }

    #[test]
    fn broadcast_then_reduce_roundtrip() {
        // broadcast(x) then reduce(sum) should yield g*x at the root.
        let p = 8;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data = if ctx.rank() == 0 {
                vec![2.5; 6]
            } else {
                vec![0.0; 6]
            };
            ctx.broadcast(&g, 0, &mut data);
            ctx.reduce(&g, 0, &mut data);
            data
        });
        assert_eq!(out[0], vec![20.0; 6]);
    }

    #[test]
    fn log_records_collectives() {
        let (_, logs) = Mesh::run_with_logs(4, |ctx| {
            let g = Group::world(4);
            let mut d = vec![0.0f32; 16];
            ctx.all_reduce(&g, &mut d);
            ctx.broadcast(&g, 0, &mut d);
        });
        for log in &logs {
            assert_eq!(log.op_count(crate::CommOp::AllReduce), 1);
            assert_eq!(log.op_elems(crate::CommOp::AllReduce), 16);
            assert_eq!(log.op_count(crate::CommOp::Broadcast), 1);
        }
        // Ring all-reduce wire traffic: each device sends 2(g-1)/g * n elems.
        let ar_link_elems: usize = logs[0]
            .links
            .iter()
            .take(6) // 2*(g-1) = 6 sends of n/g = 4 elements each
            .map(|l| l.elems)
            .sum();
        assert_eq!(ar_link_elems, 24);
    }
}
