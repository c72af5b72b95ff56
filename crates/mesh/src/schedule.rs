//! Collective schedules as data.
//!
//! A [`Plan`] is one group member's part of one collective: an ordered list
//! of [`Step`]s over *group indices* and element ranges of the member's
//! buffer. There is exactly one generator per (collective, algorithm); three
//! consumers run what it returns:
//!
//! * the **live** fabric moves and folds the payloads
//!   (`fabric::Endpoint::execute`, over the device's pooled buffers);
//! * the **progress thread** and the wait-side steal of a non-blocking
//!   collective run the same interpreter on the queued plan;
//! * the **dry-run** backend only logs what every backend logs: one link
//!   record per `Send`, at its packed length.
//!
//! Live and dry-run op/link streams are therefore identical by
//! construction, and a new collective algorithm is one generator plus the
//! pure pairing test at the bottom of this file, which checks every
//! generator without threads.
//!
//! Every schedule is deterministic, and the order of its `Recv` steps is
//! its accumulation order (DESIGN.md §10).

use crate::algo::{chain_segments, CollAlgo};
use crate::wire::{self, WireDtype};

/// How a `Recv` combines the incoming range with the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fold {
    /// Overwrite (broadcast and gather hops).
    Copy,
    /// `buf = buf + incoming`.
    Sum,
    /// `buf = max(buf, incoming)`.
    Max,
}

impl Fold {
    /// Folds one received message (`msg`, at wire precision `w`) into `dst`.
    pub(crate) fn apply(self, dst: &mut [f32], msg: &[f32], w: WireDtype) {
        if w.is_f32() {
            match self {
                Fold::Copy => dst.copy_from_slice(msg),
                Fold::Sum => {
                    for (d, v) in dst.iter_mut().zip(msg) {
                        *d += v;
                    }
                }
                Fold::Max => {
                    for (d, v) in dst.iter_mut().zip(msg) {
                        *d = d.max(*v);
                    }
                }
            }
            return;
        }
        let n = dst.len();
        match self {
            Fold::Copy => wire::unpack_with(msg, n, w, |i, v| dst[i] = v),
            Fold::Sum => wire::unpack_with(msg, n, w, |i, v| dst[i] += v),
            Fold::Max => wire::unpack_with(msg, n, w, |i, v| dst[i] = dst[i].max(v)),
        }
    }
}

/// One step of a member's plan. Peers are group indices; `lo..hi` is an
/// element range of the member's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Send `buf[lo..hi]` to member `to` as one message.
    Send { to: usize, lo: usize, hi: usize },
    /// Receive one message of `hi − lo` elements from member `from` and
    /// fold it into `buf[lo..hi]`.
    Recv {
        from: usize,
        lo: usize,
        hi: usize,
        fold: Fold,
    },
}

/// One member's part of one collective.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Plan {
    pub steps: Vec<Step>,
    /// The steps address the buffer rotated left by this many elements:
    /// interpreters rotate before the first step and back after the last.
    /// Only Bruck's staging layout uses it.
    pub rotate: usize,
}

impl Plan {
    fn send(&mut self, to: usize, lo: usize, hi: usize) {
        self.steps.push(Step::Send { to, lo, hi });
    }

    fn recv(&mut self, from: usize, lo: usize, hi: usize, fold: Fold) {
        self.steps.push(Step::Recv { from, lo, hi, fold });
    }

    /// The `(to, elems)` of every `Send`, in order.
    pub(crate) fn sends(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.steps.iter().filter_map(|s| match *s {
            Step::Send { to, lo, hi } => Some((to, hi - lo)),
            Step::Recv { .. } => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Entry points: one per collective, dispatching on the algorithm.
// ---------------------------------------------------------------------------

/// Broadcast of `n` elements from group index `root`; every member's buffer
/// is the `n`-element payload.
pub(crate) fn broadcast(algo: CollAlgo, g: usize, root: usize, me: usize, n: usize) -> Plan {
    let (mut p, r) = (Plan::default(), Rel { g, root });
    match algo {
        CollAlgo::Tree => tree_broadcast(&mut p, r, me, n),
        CollAlgo::Chain => {
            let (up, down) = r.chain(me);
            chain(&mut p, n, up, down, Fold::Copy);
        }
        other => panic!("{other:?} is not a broadcast algorithm"),
    }
    p
}

/// Sum-reduce of `n` elements to group index `root`; only the root's
/// buffer holds the full sum afterwards.
pub(crate) fn reduce(algo: CollAlgo, g: usize, root: usize, me: usize, n: usize) -> Plan {
    let (mut p, r) = (Plan::default(), Rel { g, root });
    match algo {
        CollAlgo::Tree => tree_reduce(&mut p, r, me, n, Fold::Sum),
        // The chain reversed: partials flow root+g−1 → … → root, so each
        // element accumulates as `x_rel + (x_{rel+1} + …)`.
        CollAlgo::Chain => {
            let (up, down) = r.chain(me);
            chain(&mut p, n, down, up, Fold::Sum);
        }
        other => panic!("{other:?} is not a reduce algorithm"),
    }
    p
}

/// All-reduce of `n` elements under `fold` (`Sum` or `Max`).
pub(crate) fn all_reduce(algo: CollAlgo, g: usize, me: usize, n: usize, fold: Fold) -> Plan {
    let mut p = Plan::default();
    match algo {
        // The paper's Eq. 5: after the reduce-scatter steps chunk
        // `(me+1) mod g` is complete here; the all-gather steps circulate it.
        CollAlgo::Ring => {
            ring(&mut p, g, me, 0, fold, chunks(n, g));
            ring(&mut p, g, me, 1, Fold::Copy, chunks(n, g));
        }
        // The halving reduce-scatter, then the same rounds reversed as a
        // doubling all-gather (each receive becomes a send of the
        // now-complete range).
        CollAlgo::Halving => {
            let rounds = halving_rounds(g, me);
            for round in &rounds {
                round.reduce(&mut p, n, g, fold);
            }
            for round in rounds.iter().rev() {
                round.gather(&mut p, n, g);
            }
        }
        // Reduce to group index 0, then broadcast from it.
        CollAlgo::Tree => {
            let r = Rel { g, root: 0 };
            tree_reduce(&mut p, r, me, n, fold);
            tree_broadcast(&mut p, r, me, n);
        }
        other => panic!("{other:?} is not an all-reduce algorithm"),
    }
    p
}

/// All-gather of one `n`-element block per member. The buffer is the
/// `n·g` result, member `i`'s block at `i·n`; each member starts with its
/// own block in place.
pub(crate) fn all_gather(algo: CollAlgo, g: usize, me: usize, n: usize) -> Plan {
    let mut p = Plan::default();
    match algo {
        CollAlgo::Ring => ring(&mut p, g, me, 0, Fold::Copy, |i| (i * n, (i + 1) * n)),
        // Over the rotated staging layout (slot `j` holds the block of
        // member `(me + j) mod g`, the own block at slot 0), each
        // `bruck_rounds` round sends the first `cnt` blocks as one message
        // and appends `cnt` blocks after the `have` already held.
        CollAlgo::Bruck => {
            p.rotate = me * n;
            for (have, cnt) in bruck_rounds(g) {
                p.send((me + g - have) % g, 0, cnt * n);
                p.recv((me + have) % g, have * n, (have + cnt) * n, Fold::Copy);
            }
        }
        other => panic!("{other:?} is not an all-gather algorithm"),
    }
    p
}

/// Sum reduce-scatter of `n` elements: member `i` ends with the full sum of
/// chunk `i` (`chunk_start` boundaries) in its buffer.
pub(crate) fn reduce_scatter(algo: CollAlgo, g: usize, me: usize, n: usize) -> Plan {
    let mut p = Plan::default();
    match algo {
        // The all-reduce's first phase relabelled so that chunk `me`
        // (rather than `me+1`) completes locally.
        CollAlgo::Ring => ring(&mut p, g, me, g - 1, Fold::Sum, chunks(n, g)),
        CollAlgo::Halving => {
            for round in halving_rounds(g, me) {
                round.reduce(&mut p, n, g, Fold::Sum);
            }
        }
        other => panic!("{other:?} is not a reduce-scatter algorithm"),
    }
    p
}

/// Scatter of the root's `n` elements in `chunk_start` chunks: member `i`
/// receives chunk `i` into the same range of its own `n`-element buffer.
pub(crate) fn scatter(g: usize, root: usize, me: usize, n: usize) -> Plan {
    let (mut p, range) = (Plan::default(), chunks(n, g));
    if me == root {
        for i in (0..g).filter(|&i| i != root) {
            p.send(i, range(i).0, range(i).1);
        }
    } else {
        p.recv(root, range(me).0, range(me).1, Fold::Copy);
    }
    p
}

/// Gather of one `n`-element block per member to `root`. The root's buffer
/// is the `n·g` result (its own block in place at `root·n`); every other
/// member's buffer is just its own block.
pub(crate) fn gather(g: usize, root: usize, me: usize, n: usize) -> Plan {
    let mut p = Plan::default();
    if me == root {
        for i in (0..g).filter(|&i| i != root) {
            p.recv(i, i * n, (i + 1) * n, Fold::Copy);
        }
    } else {
        p.send(root, 0, n);
    }
    p
}

/// Barrier: an empty reduce to group index 0 followed by an empty
/// broadcast from it, each with its own algorithm.
pub(crate) fn barrier(reduce_algo: CollAlgo, bcast_algo: CollAlgo, g: usize, me: usize) -> Plan {
    let mut p = reduce(reduce_algo, g, 0, me, 0);
    p.steps.extend(broadcast(bcast_algo, g, 0, me, 0).steps);
    p
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Start offset of ring chunk `i` when splitting `n` elements into `g`
/// near-equal chunks.
pub(crate) fn chunk_start(n: usize, g: usize, i: usize) -> usize {
    (n * i) / g
}

/// The element range of each of the `g` ring chunks of `n` elements.
fn chunks(n: usize, g: usize) -> impl Fn(usize) -> (usize, usize) {
    move |i| (chunk_start(n, g, i), chunk_start(n, g, i + 1))
}

/// Root-relative coordinates of a rooted collective.
#[derive(Clone, Copy)]
struct Rel {
    g: usize,
    root: usize,
}

impl Rel {
    fn of(self, me: usize) -> usize {
        (me + self.g - self.root) % self.g
    }

    fn abs(self, rel: usize) -> usize {
        (rel + self.root) % self.g
    }

    /// Member `me`'s neighbours on the chain root → root+1 → …: the one
    /// toward the root and the one away from it.
    fn chain(self, me: usize) -> (Option<usize>, Option<usize>) {
        let rel = self.of(me);
        let up = (rel > 0).then(|| self.abs(rel - 1));
        (up, (rel + 1 < self.g).then(|| self.abs(rel + 1)))
    }

    /// Member `me`'s relative index `rel` and binomial-tree bit: the lowest
    /// set bit of `rel` (the group size rounded up to a power of two for
    /// the root). The parent is `rel − bit`.
    fn tree(self, me: usize) -> (usize, usize) {
        let rel = self.of(me);
        let bit = if rel == 0 {
            self.g.next_power_of_two()
        } else {
            rel & rel.wrapping_neg()
        };
        (rel, bit)
    }

    /// The tree children of `rel`, nearest first: `rel + 2^k` for every
    /// power of two below `bit` that stays inside the group.
    fn children(self, rel: usize, bit: usize) -> impl DoubleEndedIterator<Item = usize> {
        let g = self.g;
        (0..bit.trailing_zeros())
            .map(move |k| rel + (1 << k))
            .filter(move |&c| c < g)
    }
}

/// Binomial tree broadcast (the paper's Eq. 4): receive the payload from
/// the parent, then forward it to each child, farthest first.
fn tree_broadcast(p: &mut Plan, r: Rel, me: usize, n: usize) {
    let (rel, bit) = r.tree(me);
    if rel > 0 {
        p.recv(r.abs(rel - bit), 0, n, Fold::Copy);
    }
    for child in r.children(rel, bit).rev() {
        p.send(r.abs(child), 0, n);
    }
}

/// Binomial tree reduce, the broadcast reversed: fold each child's partial,
/// nearest first, then send the result to the parent. The receive order is
/// the accumulation order, which keeps overlapped and blocking reduces
/// bitwise identical.
fn tree_reduce(p: &mut Plan, r: Rel, me: usize, n: usize, fold: Fold) {
    let (rel, bit) = r.tree(me);
    for child in r.children(rel, bit) {
        p.recv(r.abs(child), 0, n, fold);
    }
    if rel > 0 {
        p.send(r.abs(rel - bit), 0, n);
    }
}

/// Segmented pipelined chain: each of the [`chain_segments`] segments is
/// received from `from` and folded, then forwarded to `to`, so hops overlap
/// across segments.
fn chain(p: &mut Plan, n: usize, from: Option<usize>, to: Option<usize>, fold: Fold) {
    let s = chain_segments(n);
    for j in 0..s {
        let (a, b) = (chunk_start(n, s, j), chunk_start(n, s, j + 1));
        if let Some(from) = from {
            p.recv(from, a, b, fold);
        }
        if let Some(to) = to {
            p.send(to, a, b);
        }
    }
}

/// `g−1` ring steps over the ranges `range(i)`, `i` a group index: step
/// `k` sends range `me + off − k` to the right neighbour, then folds range
/// `me + off − k − 1` from the left one (indices mod `g`).
fn ring(
    p: &mut Plan,
    g: usize,
    me: usize,
    off: usize,
    fold: Fold,
    range: impl Fn(usize) -> (usize, usize),
) {
    for k in 0..g.saturating_sub(1) {
        let ((s0, s1), (t0, t1)) = (
            range((me + off + 2 * g - k) % g),
            range((me + off + 2 * g - k - 1) % g),
        );
        p.send((me + 1) % g, s0, s1);
        p.recv((me + g - 1) % g, t0, t1, fold);
    }
}

/// One round of the recursive-halving reduce-scatter schedule for a single
/// member, as `(peer, chunk_lo, chunk_hi)` chunk ranges over the group.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HalvingRound {
    /// Sends, in order.
    sends: Vec<(usize, usize, usize)>,
    /// Receives, in order — the accumulation order (partner first, then
    /// the unpaired member's contribution).
    recvs: Vec<(usize, usize, usize)>,
}

impl HalvingRound {
    /// Appends this round's reduce-scatter steps: sends, then folding
    /// receives.
    fn reduce(&self, p: &mut Plan, n: usize, g: usize, fold: Fold) {
        let at = |c: usize| chunk_start(n, g, c);
        for &(peer, clo, chi) in &self.sends {
            p.send(peer, at(clo), at(chi));
        }
        for &(peer, clo, chi) in &self.recvs {
            p.recv(peer, at(clo), at(chi), fold);
        }
    }

    /// Appends this round's doubling (all-gather) steps, the reduce steps
    /// mirrored: send back each range received, then take each range sent.
    fn gather(&self, p: &mut Plan, n: usize, g: usize) {
        let at = |c: usize| chunk_start(n, g, c);
        for &(peer, clo, chi) in &self.recvs {
            p.send(peer, at(clo), at(chi));
        }
        for &(peer, clo, chi) in &self.sends {
            p.recv(peer, at(clo), at(chi), Fold::Copy);
        }
    }
}

/// The recursive-halving schedule for member `me` of a `g`-member group.
///
/// Classic Rabenseifner halving generalized to any `g`: the member range
/// splits into a lower half of `⌈len/2⌉` and an upper half of `⌊len/2⌋`;
/// upper member `u` pairs with lower member `u − ⌈len/2⌉` and the pair
/// exchanges the halves they are *not* responsible for. When the halves
/// are uneven, the one unpaired lower member donates its upper-range
/// contribution to the last upper member (receiving nothing that round —
/// other lower members carry the upper contributions it needs through
/// later rounds). After all rounds member `i` owns exactly chunk `i`.
fn halving_rounds(g: usize, me: usize) -> Vec<HalvingRound> {
    let mut rounds = Vec::new();
    let (mut lo, mut hi) = (0usize, g);
    while hi - lo > 1 {
        let low_size = (hi - lo).div_ceil(2);
        let mid = lo + low_size;
        let up_size = hi - mid;
        let mut round = HalvingRound {
            sends: Vec::new(),
            recvs: Vec::new(),
        };
        if me < mid {
            let l = me - lo;
            if l < up_size {
                let partner = mid + l;
                round.sends.push((partner, mid, hi));
                round.recvs.push((partner, lo, mid));
            } else {
                // Unpaired lower member: donate the upper-range partial to
                // the last upper member; receive nothing this round.
                round.sends.push((hi - 1, mid, hi));
            }
            hi = mid;
        } else {
            let partner = lo + (me - mid);
            round.sends.push((partner, lo, mid));
            round.recvs.push((partner, mid, hi));
            if me == hi - 1 && low_size > up_size {
                round.recvs.push((mid - 1, mid, hi));
            }
            lo = mid;
        }
        rounds.push(round);
    }
    rounds
}

/// The Bruck all-gather round schedule: `(have, cnt)` per round, where
/// `have` blocks are held before the round and the first `cnt` blocks of
/// the rotated buffer go to member `(me − have) mod g` while `cnt` blocks
/// arrive from `(me + have) mod g`.
fn bruck_rounds(g: usize) -> Vec<(usize, usize)> {
    let mut rounds = Vec::new();
    let mut have = 1usize;
    while have < g {
        let cnt = have.min(g - have);
        rounds.push((have, cnt));
        have += cnt;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CommOp;
    use crate::wire::packed_len;
    use std::collections::{HashMap, VecDeque};

    /// Every collective the generators cover, by the op that selects it.
    /// `Scatter` and `Gather` have no `CommOp` of their own.
    #[derive(Clone, Copy, Debug)]
    enum Coll {
        Op(CommOp),
        Scatter,
        Gather,
    }

    impl Coll {
        fn menu(self) -> &'static [CollAlgo] {
            match self {
                Coll::Op(op) => CollAlgo::menu(op),
                Coll::Scatter | Coll::Gather => &[CollAlgo::Ring],
            }
        }

        fn rooted(self) -> bool {
            matches!(
                self,
                Coll::Op(CommOp::Broadcast | CommOp::Reduce) | Coll::Scatter | Coll::Gather
            )
        }

        fn plan(
            self,
            algo: CollAlgo,
            fold: Fold,
            g: usize,
            root: usize,
            me: usize,
            n: usize,
        ) -> Plan {
            match self {
                Coll::Op(CommOp::Broadcast) => broadcast(algo, g, root, me, n),
                Coll::Op(CommOp::Reduce) => reduce(algo, g, root, me, n),
                Coll::Op(CommOp::AllReduce) => all_reduce(algo, g, me, n, fold),
                Coll::Op(CommOp::AllGather) => all_gather(algo, g, me, n),
                Coll::Op(CommOp::ReduceScatter) => reduce_scatter(algo, g, me, n),
                Coll::Op(CommOp::Barrier) => barrier(algo, algo, g, me),
                Coll::Scatter => scatter(g, root, me, n),
                Coll::Gather => gather(g, root, me, n),
            }
        }
    }

    const ALL: [Coll; 8] = [
        Coll::Op(CommOp::Broadcast),
        Coll::Op(CommOp::Reduce),
        Coll::Op(CommOp::AllReduce),
        Coll::Op(CommOp::AllGather),
        Coll::Op(CommOp::ReduceScatter),
        Coll::Op(CommOp::Barrier),
        Coll::Scatter,
        Coll::Gather,
    ];

    /// Not yet written. Folding it (or sending it into a sum) overflows,
    /// which panics in the debug builds tests run in.
    const UNSET: u64 = u64::MAX;

    /// Member `m`'s contribution at element `i`: base-16 digit `m` holds
    /// `1 + i mod 7`, so a sum shows per member whether its contribution
    /// arrived once, at the right element.
    fn val(m: usize, i: usize) -> u64 {
        (1 + (i % 7) as u64) << (4 * m)
    }

    /// The inputs and results of every collective on `g` members and `n`
    /// elements per block, computed once per `(g, n)`.
    struct Data {
        n: usize,
        /// `own[m]`: member `m`'s `n` elements.
        own: Vec<Vec<u64>>,
        sum: Vec<u64>,
        max: Vec<u64>,
        /// Every member's block, concatenated in group order.
        blocks: Vec<u64>,
    }

    impl Data {
        fn new(g: usize, n: usize) -> Data {
            let own: Vec<Vec<u64>> = (0..g)
                .map(|m| (0..n).map(|i| val(m, i)).collect())
                .collect();
            Data {
                n,
                sum: (0..n).map(|i| own.iter().map(|o| o[i]).sum()).collect(),
                max: own[g - 1].clone(),
                blocks: own.concat(),
                own,
            }
        }

        /// An `n·g` buffer holding only member `m`'s block.
        fn own_block(&self, m: usize) -> Vec<u64> {
            let mut b = vec![UNSET; self.blocks.len()];
            b[m * self.n..(m + 1) * self.n].copy_from_slice(&self.own[m]);
            b
        }

        /// The per-member input buffers of one collective.
        fn inputs(&self, c: Coll, root: usize) -> Vec<Vec<u64>> {
            (0..self.own.len())
                .map(|m| match c {
                    Coll::Op(CommOp::Broadcast) | Coll::Scatter if m != root => vec![UNSET; self.n],
                    Coll::Op(CommOp::AllGather) => self.own_block(m),
                    Coll::Gather if m == root => self.own_block(m),
                    _ => self.own[m].clone(),
                })
                .collect()
        }

        /// Asserts each member's result range holds exactly what the
        /// collective promises (so every element of it was written).
        fn check(&self, cell: &str, c: Coll, fold: Fold, root: usize, out: &[Vec<u64>]) {
            let (n, g) = (self.n, self.own.len());
            let total = if fold == Fold::Max {
                &self.max
            } else {
                &self.sum
            };
            for (m, buf) in out.iter().enumerate() {
                let chunk = chunk_start(n, g, m)..chunk_start(n, g, m + 1);
                let (got, want) = match c {
                    Coll::Op(CommOp::Broadcast) => (&buf[..], &self.own[root][..]),
                    Coll::Op(CommOp::Reduce) if m == root => (&buf[..], &total[..]),
                    Coll::Op(CommOp::AllReduce) => (&buf[..], &total[..]),
                    Coll::Op(CommOp::ReduceScatter) => (&buf[chunk.clone()], &total[chunk]),
                    Coll::Op(CommOp::AllGather) => (&buf[..], &self.blocks[..]),
                    Coll::Gather if m == root => (&buf[..], &self.blocks[..]),
                    Coll::Scatter => (&buf[chunk.clone()], &self.own[root][chunk]),
                    _ => continue,
                };
                assert!(got == want, "{cell}: member {m}'s result is wrong");
            }
        }
    }

    fn fold_u64(fold: Fold, dst: &mut [u64], msg: &[u64]) {
        match fold {
            Fold::Copy => dst.copy_from_slice(msg),
            Fold::Sum => dst.iter_mut().zip(msg).for_each(|(d, v)| *d += v),
            Fold::Max => dst.iter_mut().zip(msg).for_each(|(d, v)| *d = (*d).max(*v)),
        }
    }

    /// Runs every member's plan on one thread over per-pair FIFO queues
    /// (sends never block, like the mailbox fabric), asserting each receive
    /// finds a message of its declared length, that no member deadlocks and
    /// that no message is left unreceived.
    fn simulate(cell: &str, plans: &[Plan], mut bufs: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        let g = plans.len();
        let mut queues: HashMap<(usize, usize), VecDeque<Vec<u64>>> = HashMap::new();
        let mut pc = vec![0usize; g];
        for (buf, plan) in bufs.iter_mut().zip(plans) {
            buf.rotate_left(plan.rotate);
        }
        while (0..g).any(|m| pc[m] < plans[m].steps.len()) {
            let mut progressed = false;
            for m in 0..g {
                while let Some(&step) = plans[m].steps.get(pc[m]) {
                    match step {
                        Step::Send { to, lo, hi } => {
                            assert!(to < g && to != m, "{cell}: member {m} sends to {to}");
                            let msg = bufs[m][lo..hi].to_vec();
                            queues.entry((m, to)).or_default().push_back(msg);
                        }
                        Step::Recv { from, lo, hi, fold } => {
                            let Some(msg) = queues.get_mut(&(from, m)).and_then(|q| q.pop_front())
                            else {
                                break;
                            };
                            assert_eq!(msg.len(), hi - lo, "{cell}: member {m} <- {from}");
                            fold_u64(fold, &mut bufs[m][lo..hi], &msg);
                        }
                    }
                    pc[m] += 1;
                    progressed = true;
                }
            }
            assert!(progressed, "{cell}: deadlock at steps {pc:?}");
        }
        assert!(
            queues.values().all(VecDeque::is_empty),
            "{cell}: unreceived messages"
        );
        for (buf, plan) in bufs.iter_mut().zip(plans) {
            buf.rotate_right(plan.rotate);
        }
        bufs
    }

    /// The packed lengths of every message from `src` to `dst`, as `src`
    /// sends them and as `dst` expects them.
    fn pair_lengths(
        plans: &[Plan],
        src: usize,
        dst: usize,
        w: WireDtype,
    ) -> (Vec<usize>, Vec<usize>) {
        let sent = plans[src]
            .sends()
            .filter(|&(to, _)| to == dst)
            .map(|(_, elems)| packed_len(elems, w))
            .collect();
        let expected = plans[dst]
            .steps
            .iter()
            .filter_map(|s| match *s {
                Step::Recv { from, lo, hi, .. } if from == src => Some(packed_len(hi - lo, w)),
                _ => None,
            })
            .collect();
        (sent, expected)
    }

    /// Every generator, every algorithm on its menu, group sizes 1..=9,
    /// payloads around the group size and the chain segment size (2049
    /// splits in two, 65537 hits the 32-segment cap), every root and both
    /// wire widths: each pair's send and receive lengths match in order,
    /// the plans run to completion without deadlock, and every member's
    /// result range ends up written with exactly the collective's result.
    #[test]
    fn every_schedule_pairs_and_delivers() {
        for g in 1..=9usize {
            let mut sizes = vec![0, 1, g - 1, g + 1, 2049, 65537];
            sizes.sort_unstable();
            sizes.dedup();
            for n in sizes {
                let data = Data::new(g, n);
                for c in ALL {
                    let folds: &[Fold] = match c {
                        Coll::Op(CommOp::AllReduce) => &[Fold::Sum, Fold::Max],
                        _ => &[Fold::Sum],
                    };
                    let roots = if c.rooted() { 0..g } else { 0..1 };
                    for (&algo, root, &fold) in c
                        .menu()
                        .iter()
                        .flat_map(|a| roots.clone().map(move |r| (a, r)))
                        .flat_map(|(a, r)| folds.iter().map(move |f| (a, r, f)))
                    {
                        let cell = format!("{c:?} {algo:?} {fold:?} g={g} n={n} root={root}");
                        let plans: Vec<Plan> = (0..g)
                            .map(|me| c.plan(algo, fold, g, root, me, n))
                            .collect();
                        for w in [WireDtype::F32, WireDtype::Bf16] {
                            for (src, dst) in (0..g).flat_map(|s| (0..g).map(move |d| (s, d))) {
                                let (sent, expected) = pair_lengths(&plans, src, dst, w);
                                assert_eq!(sent, expected, "{cell} {w:?} {src}->{dst}");
                            }
                        }
                        let out = simulate(&cell, &plans, data.inputs(c, root));
                        data.check(&cell, c, fold, root, &out);
                    }
                }
            }
        }
    }

    /// The binomial trees keep the classic mask walk's peer order — the
    /// broadcast forwards farthest child first, the reduce folds nearest
    /// child first — since the reduce's receive order is its accumulation
    /// order. The walks below are the reference.
    #[test]
    fn tree_plans_follow_the_mask_walk() {
        for g in 1..=40usize {
            for root in 0..g {
                let abs = |rel: usize| (rel + root) % g;
                for me in 0..g {
                    let rel = (me + g - root) % g;
                    let mut mask = 1;
                    while mask < g && rel & mask == 0 {
                        mask <<= 1;
                    }
                    let mut want = Vec::new();
                    if rel > 0 {
                        want.push(Step::Recv {
                            from: abs(rel - mask),
                            lo: 0,
                            hi: 3,
                            fold: Fold::Copy,
                        });
                    }
                    let mut m = mask >> 1;
                    while m > 0 {
                        if rel + m < g {
                            want.push(Step::Send {
                                to: abs(rel + m),
                                lo: 0,
                                hi: 3,
                            });
                        }
                        m >>= 1;
                    }
                    assert_eq!(broadcast(CollAlgo::Tree, g, root, me, 3).steps, want);
                    let mut want = Vec::new();
                    let mut m = 1;
                    while m < g && rel & m == 0 {
                        if rel + m < g {
                            want.push(Step::Recv {
                                from: abs(rel + m),
                                lo: 0,
                                hi: 3,
                                fold: Fold::Sum,
                            });
                        }
                        m <<= 1;
                    }
                    if rel > 0 {
                        want.push(Step::Send {
                            to: abs(rel - m),
                            lo: 0,
                            hi: 3,
                        });
                    }
                    assert_eq!(reduce(CollAlgo::Tree, g, root, me, 3).steps, want);
                }
            }
        }
    }

    /// Bruck's staging rotation is a single message per round: `cnt·n`
    /// elements, however the blocks wrap around the group.
    #[test]
    fn bruck_sends_one_message_per_round() {
        for g in 1..=9usize {
            for me in 0..g {
                let plan = all_gather(CollAlgo::Bruck, g, me, 5);
                let sends: Vec<usize> = plan.sends().map(|(_, e)| e).collect();
                let want: Vec<usize> = bruck_rounds(g).iter().map(|&(_, cnt)| cnt * 5).collect();
                assert_eq!(sends, want, "g={g} me={me}");
                assert_eq!(plan.rotate, me * 5);
            }
        }
    }

    /// Symbolic replay of the halving reduce-scatter schedule: after all
    /// rounds, member `i`'s chunk `i` must hold exactly one contribution
    /// from every member (no drops, no double-adds), for any group size.
    #[test]
    fn halving_rounds_deliver_every_contribution_exactly_once() {
        for g in 1..=9usize {
            // state[m][c][src] = how many times member m's copy of chunk c
            // includes member src's contribution.
            let mut state = vec![vec![vec![0u32; g]; g]; g];
            for (m, row) in state.iter_mut().enumerate() {
                for chunk in row.iter_mut() {
                    chunk[m] = 1;
                }
            }
            let rounds: Vec<_> = (0..g).map(|m| halving_rounds(g, m)).collect();
            let depth = rounds.iter().map(|r| r.len()).max().unwrap_or(0);
            for r in 0..depth {
                // Snapshot sends at round start (each member sends before
                // it receives), then apply the accumulations.
                let mut inflight: Vec<(usize, usize, usize, Vec<Vec<u32>>)> = Vec::new();
                for (m, rs) in rounds.iter().enumerate() {
                    if let Some(round) = rs.get(r) {
                        for &(peer, clo, chi) in &round.sends {
                            inflight.push((m, peer, clo, state[m][clo..chi].to_vec()));
                        }
                    }
                }
                for (from, to, clo, payload) in inflight {
                    for (off, contrib) in payload.iter().enumerate() {
                        for (src, cnt) in contrib.iter().enumerate() {
                            state[to][clo + off][src] += cnt;
                        }
                    }
                    // The receiver must actually list this receive.
                    let listed = rounds[to][r]
                        .recvs
                        .iter()
                        .any(|&(p, lo, _)| p == from && lo == clo);
                    assert!(listed, "g={g}: send {from}->{to} round {r} unmatched");
                }
            }
            for (m, owned) in state.iter().enumerate() {
                assert_eq!(
                    owned[m],
                    vec![1u32; g],
                    "g={g} member {m}: chunk {m} must sum each contribution once"
                );
            }
        }
    }

    #[test]
    fn bruck_rounds_cover_the_group_in_log_rounds() {
        for g in 1..=9usize {
            let rounds = bruck_rounds(g);
            let total: usize = 1 + rounds.iter().map(|&(_, cnt)| cnt).sum::<usize>();
            assert_eq!(total, g, "g={g}: all blocks gathered");
            let ceil_log2 = (usize::BITS - 1 - g.next_power_of_two().leading_zeros()) as usize;
            assert!(rounds.len() <= ceil_log2.max(1), "g={g}: log rounds");
        }
    }
}
