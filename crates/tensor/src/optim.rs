//! Optimizers operating on flat parameter/gradient slices.
//!
//! Both distributed schemes update each parameter block on exactly one
//! device (Optimus even resets the gradient buffer immediately after the
//! update, method (2) of Section 3.2.3), so optimizers only ever see local
//! slices — the same code drives the serial, 1D and 2D models.
//!
//! Updates are purely elementwise, so they split into index blocks on the
//! shared compute pool ([`crate::pool`]); each parameter is written by
//! exactly one task, keeping updates bitwise independent of thread count.

use crate::pool::{self, SendPtr};

/// Plain (momentum-free) SGD update `p -= lr * g` over a flat slice, split
/// over the compute pool. The models' hand-rolled update loops route through
/// this so every optimizer path shares the pool.
pub fn sgd_update(params: &mut [f32], grads: &[f32], lr: f32) {
    assert_eq!(params.len(), grads.len());
    let n = params.len();
    let pp = SendPtr::new(params.as_mut_ptr());
    pool::parallel_row_blocks(n, pool::ELEM_CHUNK, |i0, i1| {
        // SAFETY: index ranges are disjoint per task.
        let ps = unsafe { std::slice::from_raw_parts_mut(pp.get().add(i0), i1 - i0) };
        for (p, g) in ps.iter_mut().zip(&grads[i0..i1]) {
            *p -= lr * g;
        }
    });
}

/// Plain SGD with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// SGD over `n` parameters.
    pub fn new(n: usize, lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: if momentum != 0.0 {
                vec![0.0; n]
            } else {
                Vec::new()
            },
        }
    }

    /// Applies one update: `p -= lr * (momentum-filtered) g`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        let n = params.len();
        let lr = self.lr;
        if self.momentum == 0.0 {
            sgd_update(params, grads, lr);
        } else {
            let pp = SendPtr::new(params.as_mut_ptr());
            assert_eq!(self.velocity.len(), params.len());
            let momentum = self.momentum;
            let vp = SendPtr::new(self.velocity.as_mut_ptr());
            pool::parallel_row_blocks(n, pool::ELEM_CHUNK, |i0, i1| {
                // SAFETY: index ranges are disjoint per task.
                let (ps, vs) = unsafe {
                    (
                        std::slice::from_raw_parts_mut(pp.get().add(i0), i1 - i0),
                        std::slice::from_raw_parts_mut(vp.get().add(i0), i1 - i0),
                    )
                };
                for ((p, g), v) in ps.iter_mut().zip(&grads[i0..i1]).zip(vs.iter_mut()) {
                    *v = momentum * *v + g;
                    *p -= lr * *v;
                }
            });
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam over `n` parameters with the usual defaults (`β₁=0.9, β₂=0.999`).
    pub fn new(n: usize, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Applies one Adam update.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(self.m.len(), params.len());
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let n = params.len();
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let pp = SendPtr::new(params.as_mut_ptr());
        let mp = SendPtr::new(self.m.as_mut_ptr());
        let vp = SendPtr::new(self.v.as_mut_ptr());
        pool::parallel_row_blocks(n, pool::ELEM_CHUNK, |i0, i1| {
            // SAFETY: index ranges are disjoint per task.
            let (ps, ms, vs) = unsafe {
                (
                    std::slice::from_raw_parts_mut(pp.get().add(i0), i1 - i0),
                    std::slice::from_raw_parts_mut(mp.get().add(i0), i1 - i0),
                    std::slice::from_raw_parts_mut(vp.get().add(i0), i1 - i0),
                )
            };
            for (((p, g), m), v) in ps
                .iter_mut()
                .zip(&grads[i0..i1])
                .zip(ms.iter_mut())
                .zip(vs.iter_mut())
            {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
    }

    /// Bytes of optimizer state per parameter (used by the memory model:
    /// Adam keeps two f32 moments).
    pub const STATE_BYTES_PER_PARAM: usize = 8;
}

/// A set of [`Adam`] states addressed by **stable visitation order**: a
/// model's update routine calls [`AdamSet::begin_step`] once, then
/// [`AdamSet::apply`] for every `(param, grad)` pair in a fixed order; the
/// k-th call of every step gets the k-th persistent state. This lets the
/// same optimizer code drive the serial, 1D-sliced and 2D-blocked models
/// without naming parameters.
#[derive(Clone, Debug)]
pub struct AdamSet {
    pub lr: f32,
    states: Vec<Adam>,
    cursor: usize,
}

impl AdamSet {
    pub fn new(lr: f32) -> Self {
        AdamSet {
            lr,
            states: Vec::new(),
            cursor: 0,
        }
    }

    /// Resets the visitation cursor; call exactly once per optimizer step.
    pub fn begin_step(&mut self) {
        self.cursor = 0;
    }

    /// Applies Adam to the next `(param, grad)` pair in visitation order.
    ///
    /// # Panics
    /// If the pair's length changed between steps (the visitation order must
    /// be stable).
    pub fn apply(&mut self, params: &mut [f32], grads: &[f32]) {
        if self.cursor == self.states.len() {
            self.states.push(Adam::new(params.len(), self.lr));
        }
        let state = &mut self.states[self.cursor];
        assert_eq!(
            state.m.len(),
            params.len(),
            "parameter {} changed size between steps — unstable visitation order",
            self.cursor
        );
        state.lr = self.lr;
        state.step(params, grads);
        self.cursor += 1;
    }

    /// Number of distinct parameters tracked so far.
    pub fn tracked(&self) -> usize {
        self.states.len()
    }

    /// Total optimizer-state bytes held (two f32 moments per parameter).
    pub fn state_bytes(&self) -> usize {
        self.states
            .iter()
            .map(|s| s.m.len() * Adam::STATE_BYTES_PER_PARAM)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_descends_quadratic() {
        // Minimise f(p) = 0.5 p^2 from p = 1.
        let mut p = vec![1.0f32];
        let mut opt = Sgd::new(1, 0.1, 0.0);
        for _ in 0..100 {
            let g = vec![p[0]];
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1e-3);
    }

    #[test]
    fn sgd_momentum_accumulates_velocity() {
        let mut p = vec![0.0f32];
        let mut opt = Sgd::new(1, 0.1, 0.9);
        opt.step(&mut p, &[1.0]);
        opt.step(&mut p, &[1.0]);
        // First step: v=1, p=-0.1. Second: v=1.9, p=-0.29.
        assert!((p[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut p = vec![5.0f32];
        let mut opt = Adam::new(1, 0.3);
        for _ in 0..200 {
            let g = vec![p[0]];
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1e-2, "p={}", p[0]);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction the first step has magnitude ~lr.
        let mut p = vec![0.0f32];
        let mut opt = Adam::new(1, 0.01);
        opt.step(&mut p, &[3.0]);
        assert!((p[0] + 0.01).abs() < 1e-5, "p={}", p[0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut opt = Sgd::new(2, 0.1, 0.0);
        let mut p = vec![0.0; 2];
        opt.step(&mut p, &[1.0]);
    }

    #[test]
    fn adamset_matches_independent_adams() {
        let mut set = AdamSet::new(0.1);
        let mut a1 = Adam::new(2, 0.1);
        let mut a2 = Adam::new(3, 0.1);
        let mut p_set = (vec![1.0f32, 2.0], vec![3.0f32, 4.0, 5.0]);
        let mut p_ind = p_set.clone();
        for step in 0..5 {
            let g1 = vec![0.1 * step as f32; 2];
            let g2 = vec![-0.2; 3];
            set.begin_step();
            set.apply(&mut p_set.0, &g1);
            set.apply(&mut p_set.1, &g2);
            a1.step(&mut p_ind.0, &g1);
            a2.step(&mut p_ind.1, &g2);
        }
        assert_eq!(p_set, p_ind);
        assert_eq!(set.tracked(), 2);
        assert_eq!(set.state_bytes(), (2 + 3) * 8);
    }

    #[test]
    #[should_panic(expected = "unstable visitation order")]
    fn adamset_rejects_size_changes() {
        let mut set = AdamSet::new(0.1);
        set.begin_step();
        set.apply(&mut [0.0, 0.0], &[1.0, 1.0]);
        set.begin_step();
        set.apply(&mut [0.0], &[1.0]);
    }
}
