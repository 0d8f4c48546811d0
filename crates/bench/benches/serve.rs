//! Criterion benches for the serve daemon's service core: cold vs
//! LRU-cached decompose, the cached point queries (`cluster-of`,
//! `distance-in-cluster`), both validation tiers, and the cooperative
//! cancellation latency of a deadline-carrying decompose.
//!
//! Everything drives [`ServeState::execute`] directly — the same code
//! path the daemon's worker thread runs, minus socket I/O — so the
//! rows isolate the service core the way `BENCH_serve.json` reports it.
//! The `cancel-5ms` row is the PR's acceptance probe: a decompose on
//! the 10404-node grid armed with a 5 ms budget must return
//! `err cancelled` in well under two deadlines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnd_bench::env_usize;
use sdnd_graph::Deadline;
use sdnd_serve::{Request, ServeState, SharedCounters};
use std::sync::Arc;
use std::time::Duration;

fn specs() -> Vec<(&'static str, &'static str)> {
    let n_max = env_usize("SDND_N", 1024);
    let mut out = vec![("grid-32x32", "grid:32x32")];
    if n_max >= 10404 {
        out.push(("grid-102x102", "grid:102x102"));
    }
    out
}

fn loaded_state(spec: &str) -> ServeState {
    let mut s = ServeState::new(8, Arc::new(SharedCounters::default()));
    let r = s.execute(
        &Request::Load {
            spec: spec.to_string(),
        },
        &Deadline::unarmed(),
    );
    assert!(r.starts_with("ok "), "{r}");
    s
}

/// A supply of freshly loaded states, one per timed iteration (warm-up
/// included), for the rows whose `decompose` must miss the LRU: the
/// cache key of a deterministic entry is the graph and the algorithm
/// alone, so a second `decompose` on one state would hit. The states are
/// loaded before timing starts; the supply loads more only if the
/// harness runs more than 16 iterations.
fn fresh_states(spec: &str) -> impl FnMut() -> ServeState + '_ {
    let mut pool: Vec<ServeState> = (0..16).map(|_| loaded_state(spec)).collect();
    move || pool.pop().unwrap_or_else(|| loaded_state(spec))
}

fn decompose(seed: u64) -> Request {
    Request::Decompose {
        algo: sdnd_core::registry::find_decompose("thm2.3").expect("registered"),
        eps: 0.5,
        seed,
    }
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    for (name, spec) in specs() {
        // Cold decompose: every iteration runs on a fresh state, so the
        // LRU always misses and the full carving pipeline runs.
        group.bench_with_input(
            BenchmarkId::new("cold-decompose", name),
            &spec,
            |b, spec| {
                let mut fresh = fresh_states(spec);
                b.iter(|| fresh().execute(&decompose(0), &Deadline::unarmed()))
            },
        );

        // Cached decompose: one fixed key, LRU hit every iteration.
        group.bench_with_input(
            BenchmarkId::new("cached-decompose", name),
            &spec,
            |b, spec| {
                let mut s = loaded_state(spec);
                s.execute(&decompose(0), &Deadline::unarmed());
                b.iter(|| s.execute(&decompose(0), &Deadline::unarmed()))
            },
        );

        // Point queries against the cached decomposition.
        group.bench_with_input(BenchmarkId::new("cluster-of", name), &spec, |b, spec| {
            let mut s = loaded_state(spec);
            s.execute(&decompose(0), &Deadline::unarmed());
            let mut v = 0usize;
            b.iter(|| {
                v = (v + 37) % 1024;
                s.execute(&Request::ClusterOf { v }, &Deadline::unarmed())
            })
        });

        group.bench_with_input(
            BenchmarkId::new("distance-in-cluster", name),
            &spec,
            |b, spec| {
                let mut s = loaded_state(spec);
                s.execute(&decompose(0), &Deadline::unarmed());
                let mut v = 0usize;
                b.iter(|| {
                    v = (v + 37) % 1024;
                    s.execute(
                        &Request::DistanceInCluster { u: v, v: v + 1 },
                        &Deadline::unarmed(),
                    )
                })
            },
        );

        // Both validation tiers over the cached decomposition.
        group.bench_with_input(
            BenchmarkId::new("validate-exact", name),
            &spec,
            |b, spec| {
                let mut s = loaded_state(spec);
                s.execute(&decompose(0), &Deadline::unarmed());
                b.iter(|| {
                    s.execute(
                        &Request::Validate {
                            tier: sdnd_serve::ValidateTier::Auto,
                        },
                        &Deadline::unarmed(),
                    )
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("validate-approx", name),
            &spec,
            |b, spec| {
                let mut s = loaded_state(spec);
                s.execute(&decompose(0), &Deadline::unarmed());
                b.iter(|| {
                    s.execute(
                        &Request::Validate {
                            tier: sdnd_serve::ValidateTier::Approx,
                        },
                        &Deadline::unarmed(),
                    )
                })
            },
        );

        // Cancellation latency: a 5 ms budget on a cold decompose, again
        // on fresh states (a decompose that beats the deadline is
        // cached). The measured time IS the cooperative-abort latency
        // (acceptance: at most 2x the deadline on the 10404-node grid).
        group.bench_with_input(BenchmarkId::new("cancel-5ms", name), &spec, |b, spec| {
            let mut fresh = fresh_states(spec);
            b.iter(|| {
                let r = fresh().execute(&decompose(0), &Deadline::within(Duration::from_millis(5)));
                assert!(
                    r.starts_with("err cancelled") || r.starts_with("ok "),
                    "{r}"
                );
                r
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
