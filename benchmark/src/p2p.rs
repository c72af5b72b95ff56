//! A pass-through [`Communicator`] that times point-to-point transfers.
//!
//! Sends and receives are not op events in the program's traces, so the
//! hybrid workload's traced run measures them here: every call goes
//! straight to the wrapped device, and `send`/`recv` add their wall time
//! to a running total.

use std::cell::Cell;
use std::time::Instant;

use mesh::{CollAlgo, CommLog, Communicator, Group, PendingColl, WireDtype};

pub struct P2pTimed<'a, C: Communicator> {
    inner: &'a C,
    ns: Cell<u64>,
}

impl<'a, C: Communicator> P2pTimed<'a, C> {
    pub fn new(inner: &'a C) -> Self {
        P2pTimed {
            inner,
            ns: Cell::new(0),
        }
    }

    /// Nanoseconds spent in `send`/`recv` so far.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        out
    }
}

impl<C: Communicator> Communicator for P2pTimed<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn send(&self, to: usize, data: Vec<f32>) {
        self.timed(|| self.inner.send(to, data))
    }
    fn recv(&self, from: usize) -> Vec<f32> {
        self.timed(|| self.inner.recv(from))
    }
    fn recv_expect(&self, from: usize, len: usize) -> Vec<f32> {
        self.timed(|| self.inner.recv_expect(from, len))
    }
    fn broadcast_algo_wire(
        &self,
        group: &Group,
        root: usize,
        data: &mut [f32],
        algo: CollAlgo,
        w: WireDtype,
    ) {
        self.inner.broadcast_algo_wire(group, root, data, algo, w)
    }
    fn reduce_algo_wire(
        &self,
        group: &Group,
        root: usize,
        data: &mut [f32],
        algo: CollAlgo,
        w: WireDtype,
    ) {
        self.inner.reduce_algo_wire(group, root, data, algo, w)
    }
    fn ibroadcast(&self, group: &Group, root: usize, buf: Vec<f32>) -> PendingColl {
        self.inner.ibroadcast(group, root, buf)
    }
    fn ireduce(&self, group: &Group, root: usize, buf: Vec<f32>) -> PendingColl {
        self.inner.ireduce(group, root, buf)
    }
    fn all_reduce_algo_wire(&self, group: &Group, data: &mut [f32], algo: CollAlgo, w: WireDtype) {
        self.inner.all_reduce_algo_wire(group, data, algo, w)
    }
    fn all_reduce_max(&self, group: &Group, data: &mut [f32]) {
        self.inner.all_reduce_max(group, data)
    }
    fn all_gather_algo_wire(
        &self,
        group: &Group,
        local: &[f32],
        algo: CollAlgo,
        w: WireDtype,
    ) -> Vec<f32> {
        self.inner.all_gather_algo_wire(group, local, algo, w)
    }
    fn reduce_scatter_algo_wire(
        &self,
        group: &Group,
        data: &mut [f32],
        algo: CollAlgo,
        w: WireDtype,
    ) -> Vec<f32> {
        self.inner.reduce_scatter_algo_wire(group, data, algo, w)
    }
    fn scatter(&self, group: &Group, root: usize, data: &[f32]) -> Vec<f32> {
        self.inner.scatter(group, root, data)
    }
    fn gather(&self, group: &Group, root: usize, local: &[f32]) -> Vec<f32> {
        self.inner.gather(group, root, local)
    }
    fn barrier(&self, group: &Group) {
        self.inner.barrier(group)
    }
    fn log_snapshot(&self) -> CommLog {
        self.inner.log_snapshot()
    }
    fn take_log(&self) -> CommLog {
        self.inner.take_log()
    }
}
