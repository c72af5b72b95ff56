//! Collective microbenchmarks on the thread mesh: tree broadcast/reduce
//! (Eq. 4's algorithm) vs ring all-reduce (Eq. 5's), across group sizes and
//! payloads.

use bench::bench_fn;
use mesh::{Communicator, Group, Mesh};

fn bench_broadcast() {
    for p in [4usize, 9, 16] {
        for elems in [1024usize, 65_536] {
            bench_fn("broadcast", &format!("p{p}/{elems}"), 10, || {
                Mesh::run(p, |ctx| {
                    let g = Group::world(p);
                    let mut data = if ctx.rank() == 0 {
                        vec![1.0f32; elems]
                    } else {
                        Vec::new()
                    };
                    ctx.broadcast(&g, 0, &mut data);
                    data.len()
                })
            });
        }
    }
}

fn bench_all_reduce() {
    for p in [4usize, 9, 16] {
        for elems in [1024usize, 65_536] {
            bench_fn("all_reduce", &format!("p{p}/{elems}"), 10, || {
                Mesh::run(p, |ctx| {
                    let g = Group::world(p);
                    let mut data = vec![ctx.rank() as f32; elems];
                    ctx.all_reduce(&g, &mut data);
                    data[0]
                })
            });
        }
    }
}

fn bench_reduce_vs_all_reduce() {
    // The paper's Sec. 2.5 observation: reduce is a sub-task of all-reduce
    // yet the ring all-reduce moves less per device at large p.
    let p = 16;
    let elems = 65_536;
    bench_fn("reduce_vs_all_reduce_p16", "reduce", 10, || {
        Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data = vec![1.0f32; elems];
            ctx.reduce(&g, 0, &mut data);
        })
    });
    bench_fn("reduce_vs_all_reduce_p16", "all_reduce", 10, || {
        Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data = vec![1.0f32; elems];
            ctx.all_reduce(&g, &mut data);
        })
    });
}

fn main() {
    bench_broadcast();
    bench_all_reduce();
    bench_reduce_vs_all_reduce();
}
