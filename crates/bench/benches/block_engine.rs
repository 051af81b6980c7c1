//! Step-loop vs block-loop vs trace-loop wall time on the Figure-2 hot
//! loop.
//!
//! The Criterion timings measure simulator throughput only — the
//! simulated cycle counts are bit-identical across all three engines by
//! the translation engines' contract (asserted at startup below, and
//! gated by `perfcheck --blocks` / `perfcheck --traces`).

use camo_bench::perf::fig2_sample;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const ITERS: u64 = 5_000;

/// `(name, block_engine, trace_engine)` per engine, caches on in all.
const ENGINES: [(&str, bool, bool); 3] = [
    ("step_loop", false, false),
    ("block_loop", true, false),
    ("trace_loop", true, true),
];

fn bench(c: &mut Criterion) {
    let step = fig2_sample(ITERS, true, false, false);
    for (name, blocks, traces) in ENGINES {
        let s = fig2_sample(ITERS, true, blocks, traces);
        assert_eq!(
            (s.cycles, s.instructions),
            (step.cycles, step.instructions),
            "{name} must not change simulated counts"
        );
        println!(
            "{name}: {} simulated insns; block cache {} hits / {} misses; \
             trace tier {} hits / {} misses",
            s.instructions,
            s.stats.block_hits,
            s.stats.block_misses,
            s.stats.trace_hits,
            s.stats.trace_misses
        );
    }

    let mut group = c.benchmark_group("block_engine");
    for (name, blocks, traces) in ENGINES {
        group.bench_function(name, |b| {
            b.iter(|| black_box(fig2_sample(ITERS, true, blocks, traces)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
