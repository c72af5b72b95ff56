//! The pluggable collective surface.
//!
//! The distributed layers `summa`, `megatron`, `optimus-core` and `hybrid`
//! speak to their devices through this trait rather than a concrete
//! context, so the same program runs on two backends (`pipeline` is the
//! exception: its stage loop takes the live [`crate::DeviceCtx`] directly):
//!
//! * [`crate::DeviceCtx`] — the **live** backend: one OS thread per device,
//!   real data movement over channels, pooled per-hop scratch buffers.
//! * [`crate::DryRunComm`] — the **trace-only** backend: no threads, no data
//!   movement; it records the sends of each collective's schedule into the
//!   [`CommLog`], producing op/link streams identical to the live
//!   backend's so the `perf` cost model can price a step without running it.
//!
//! Both backends implement the trait through one shared layer
//! (`collectives.rs`): each collective is a per-member schedule
//! (`schedule.rs`) that the live fabric executes and the dry run records.
//! That layer also emits one [`trace`] op event per collective when a trace
//! collector is active on the calling thread (see
//! [`crate::Mesh::run_traced`] / [`crate::Mesh::dry_run_traced`]); untraced
//! runs pay a single thread-local read per collective.
//!
//! # Contract
//!
//! Implementations must preserve the live backend's logging discipline:
//! every collective appends exactly one [`crate::OpRecord`] per
//! participating device, and one [`crate::LinkRecord`] per point-to-point
//! send that device performs, in program order. Callers must follow the
//! deadlock discipline documented at the crate root (same collectives, same
//! groups, same order on every member), and — because the trace backend
//! cannot learn payload sizes from the wire — must pre-size non-root
//! `broadcast` buffers to the root's payload length.
//!
//! The contract is runnable: the same generic program produces identical
//! communication logs on both backends.
//!
//! ```
//! use mesh::{Communicator, Group, Mesh};
//!
//! fn program<C: Communicator>(comm: &C) -> Vec<mesh::OpRecord> {
//!     let world = Group::world(comm.world_size());
//!     // Every member calls the same collectives on the same groups in the
//!     // same program order (the deadlock discipline) ...
//!     let mut x = vec![comm.rank() as f32; 4];
//!     comm.all_reduce(&world, &mut x);
//!     // ... and non-root broadcast buffers are PRE-SIZED to the root's
//!     // payload length: the trace backend has no wire to learn it from.
//!     let mut y = vec![0.0f32; 3];
//!     comm.broadcast(&world, 0, &mut y);
//!     comm.log_snapshot().ops
//! }
//!
//! let (live, _) = Mesh::run_with_logs(4, |ctx| program(ctx));
//! let (dry, _) = Mesh::dry_run_with_logs(4, |c| program(c));
//! assert_eq!(live, dry); // op streams are identical, rank by rank
//! ```

use crate::algo::{self, CollAlgo};
use crate::group::Group;
use crate::nonblocking::PendingColl;
use crate::stats::{CommLog, CommOp};
use crate::wire::{self, WireDtype};

/// A device's handle to the communication fabric: identity, point-to-point
/// transfers, collectives, and the per-device communication log.
pub trait Communicator {
    /// This device's world rank.
    fn rank(&self) -> usize;

    /// Number of devices in the world.
    fn world_size(&self) -> usize;

    /// Point-to-point send (logged as a link record).
    fn send(&self, to: usize, data: Vec<f32>);

    /// Point-to-point receive (blocking on the live backend).
    fn recv(&self, from: usize) -> Vec<f32>;

    /// Point-to-point receive with a declared payload length.
    ///
    /// Semantically identical to [`Communicator::recv`] on the live backend
    /// (the declared `len` is checked against the wire payload). The trace
    /// backend replays ranks sequentially and therefore cannot satisfy a
    /// `recv` whose matching send happens on a *higher* rank (e.g. the
    /// backward hops of a 1F1B pipeline schedule); `recv_expect` lets it
    /// synthesize a zero payload of the declared length instead of
    /// panicking. Receives record nothing in the [`CommLog`] (only senders
    /// record link records), so logs stay byte-identical across backends —
    /// this is the p2p analogue of pre-sizing non-root broadcast buffers.
    ///
    /// A length mismatch panics, in release builds too.
    fn recv_expect(&self, from: usize, len: usize) -> Vec<f32> {
        checked_recv(self.rank(), from, len, self.recv(from))
    }

    /// Broadcast from group index `root`. Non-root buffers must be
    /// pre-sized to the root's payload length on both backends (no
    /// collective resizes the buffer). The algorithm is picked by the
    /// installed [`crate::AlgoTable`].
    fn broadcast(&self, group: &Group, root: usize, data: &mut [f32]) {
        let a = algo::select(CommOp::Broadcast, group.len(), data.len());
        self.broadcast_algo(group, root, data, a);
    }

    /// [`Communicator::broadcast`] with an explicit algorithm
    /// ([`CollAlgo::Tree`] or [`CollAlgo::Chain`]); wire precision picked by
    /// the installed [`crate::WireTable`].
    fn broadcast_algo(&self, group: &Group, root: usize, data: &mut [f32], algo: CollAlgo) {
        let w = wire::select(CommOp::Broadcast, group.len(), data.len());
        self.broadcast_algo_wire(group, root, data, algo, w);
    }

    /// [`Communicator::broadcast_algo`] at an explicit wire precision
    /// (see [`crate::WireDtype`]).
    fn broadcast_algo_wire(
        &self,
        group: &Group,
        root: usize,
        data: &mut [f32],
        algo: CollAlgo,
        w: WireDtype,
    );

    /// Sum-reduce to group index `root`. Non-root buffers hold partial
    /// sums afterwards and must be treated as scratch. The algorithm is
    /// picked by the installed [`crate::AlgoTable`].
    fn reduce(&self, group: &Group, root: usize, data: &mut [f32]) {
        let a = algo::select(CommOp::Reduce, group.len(), data.len());
        self.reduce_algo(group, root, data, a);
    }

    /// [`Communicator::reduce`] with an explicit algorithm
    /// ([`CollAlgo::Tree`] or [`CollAlgo::Chain`]); wire precision picked by
    /// the installed [`crate::WireTable`].
    fn reduce_algo(&self, group: &Group, root: usize, data: &mut [f32], algo: CollAlgo) {
        let w = wire::select(CommOp::Reduce, group.len(), data.len());
        self.reduce_algo_wire(group, root, data, algo, w);
    }

    /// [`Communicator::reduce_algo`] at an explicit wire precision.
    fn reduce_algo_wire(
        &self,
        group: &Group,
        root: usize,
        data: &mut [f32],
        algo: CollAlgo,
        w: WireDtype,
    );

    /// Non-blocking broadcast: posts the transfer and returns a
    /// [`PendingColl`] immediately; `wait()` yields the buffer. Non-root
    /// buffers must be pre-sized to the root's payload length on **both**
    /// backends (the logical size is recorded at post). Between post and
    /// wait, callers must not issue collectives sharing a (src, dst) pair
    /// with the in-flight tree. The default implementation completes
    /// synchronously; the live backend overrides it with a genuinely
    /// asynchronous transfer on the device's progress thread.
    fn ibroadcast(&self, group: &Group, root: usize, mut buf: Vec<f32>) -> PendingColl {
        self.broadcast(group, root, &mut buf);
        PendingColl::ready(CommOp::Broadcast, buf, None)
    }

    /// Non-blocking sum-reduce; see [`Communicator::ibroadcast`] for the
    /// pending-collective contract. Only the root's waited buffer holds the
    /// full sum.
    fn ireduce(&self, group: &Group, root: usize, mut buf: Vec<f32>) -> PendingColl {
        self.reduce(group, root, &mut buf);
        PendingColl::ready(CommOp::Reduce, buf, None)
    }

    /// All-reduce (sum); algorithm picked by the installed
    /// [`crate::AlgoTable`].
    fn all_reduce(&self, group: &Group, data: &mut [f32]) {
        let a = algo::select(CommOp::AllReduce, group.len(), data.len());
        self.all_reduce_algo(group, data, a);
    }

    /// [`Communicator::all_reduce`] with an explicit algorithm
    /// ([`CollAlgo::Ring`], [`CollAlgo::Halving`] or [`CollAlgo::Tree`]);
    /// wire precision picked by the installed [`crate::WireTable`].
    fn all_reduce_algo(&self, group: &Group, data: &mut [f32], algo: CollAlgo) {
        let w = wire::select(CommOp::AllReduce, group.len(), data.len());
        self.all_reduce_algo_wire(group, data, algo, w);
    }

    /// All-reduce (sum) at an explicit wire precision, algorithm picked by
    /// the installed [`crate::AlgoTable`] — the entry point compressed
    /// gradient syncs use (pair with [`crate::ErrorFeedback`]).
    fn all_reduce_wire(&self, group: &Group, data: &mut [f32], w: WireDtype) {
        let a = algo::select(CommOp::AllReduce, group.len(), data.len());
        self.all_reduce_algo_wire(group, data, a, w);
    }

    /// [`Communicator::all_reduce_algo`] at an explicit wire precision.
    ///
    /// Under a 16-bit dtype the result is **not** bitwise-equal across
    /// members (a chunk's owner combines full-precision locals while other
    /// members receive its quantized form); each element differs from the
    /// f32 result by at most one quantization error per wire hop on its
    /// reduction path.
    fn all_reduce_algo_wire(&self, group: &Group, data: &mut [f32], algo: CollAlgo, w: WireDtype);

    /// All-reduce (max) — for the distributed log-sum-exp.
    fn all_reduce_max(&self, group: &Group, data: &mut [f32]);

    /// All-gather: concatenation of every member's equal-length `local` in
    /// group order; algorithm picked by the installed [`crate::AlgoTable`].
    fn all_gather(&self, group: &Group, local: &[f32]) -> Vec<f32> {
        let a = algo::select(CommOp::AllGather, group.len(), local.len());
        self.all_gather_algo(group, local, a)
    }

    /// [`Communicator::all_gather`] with an explicit algorithm
    /// ([`CollAlgo::Ring`] or [`CollAlgo::Bruck`]); wire precision picked by
    /// the installed [`crate::WireTable`].
    fn all_gather_algo(&self, group: &Group, local: &[f32], algo: CollAlgo) -> Vec<f32> {
        let w = wire::select(CommOp::AllGather, group.len(), local.len());
        self.all_gather_algo_wire(group, local, algo, w)
    }

    /// [`Communicator::all_gather_algo`] at an explicit wire precision.
    fn all_gather_algo_wire(
        &self,
        group: &Group,
        local: &[f32],
        algo: CollAlgo,
        w: WireDtype,
    ) -> Vec<f32>;

    /// Reduce-scatter (sum): returns this member's chunk (`n·i/g`
    /// boundaries); algorithm picked by the installed [`crate::AlgoTable`].
    fn reduce_scatter(&self, group: &Group, data: &mut [f32]) -> Vec<f32> {
        let a = algo::select(CommOp::ReduceScatter, group.len(), data.len());
        self.reduce_scatter_algo(group, data, a)
    }

    /// [`Communicator::reduce_scatter`] with an explicit algorithm
    /// ([`CollAlgo::Ring`] or [`CollAlgo::Halving`]); wire precision picked
    /// by the installed [`crate::WireTable`].
    fn reduce_scatter_algo(&self, group: &Group, data: &mut [f32], algo: CollAlgo) -> Vec<f32> {
        let w = wire::select(CommOp::ReduceScatter, group.len(), data.len());
        self.reduce_scatter_algo_wire(group, data, algo, w)
    }

    /// [`Communicator::reduce_scatter_algo`] at an explicit wire precision.
    fn reduce_scatter_algo_wire(
        &self,
        group: &Group,
        data: &mut [f32],
        algo: CollAlgo,
        w: WireDtype,
    ) -> Vec<f32>;

    /// Scatter from group index `root` in ring-chunk boundaries.
    fn scatter(&self, group: &Group, root: usize, data: &[f32]) -> Vec<f32>;

    /// Gather to group index `root`: every member contributes an
    /// equal-length `local`, and the root gets them concatenated in group
    /// order; non-roots get an empty vector.
    fn gather(&self, group: &Group, root: usize, local: &[f32]) -> Vec<f32>;

    /// Barrier over a group.
    fn barrier(&self, group: &Group);

    /// Read-only snapshot of the accumulated communication log.
    fn log_snapshot(&self) -> CommLog;

    /// Extracts the accumulated communication log, resetting it.
    fn take_log(&self) -> CommLog;
}

/// A received payload, checked against the length its receiver declared.
pub(crate) fn checked_recv(rank: usize, from: usize, len: usize, data: Vec<f32>) -> Vec<f32> {
    assert_eq!(
        data.len(),
        len,
        "recv_expect at rank {rank} from {from}: declared {len} elems, the wire carried {}",
        data.len()
    );
    data
}
