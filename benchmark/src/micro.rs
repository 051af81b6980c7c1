//! Unit costs of the layers below `Cpu::run_block`, micro-timed through
//! their public functions. These are costs per call, not busy time: how
//! much of a workload's wall time each layer takes needs in-program spans.

use crate::util::quantile;
use camo_cpu::pac::PacUnit;
use camo_kernel::{KernelConfig, KernelImage};
use camo_mem::{AccessType, Memory, S1Attr, KERNEL_BASE};
use camo_qarma::QarmaKey;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call of each unit.
pub struct UnitCosts {
    pub mac_hit_ns: f64,
    pub mac_miss_ns: f64,
    pub translate_hit_ns: f64,
    pub translate_miss_ns: f64,
    pub decode_ns: f64,
    /// Whether every timed call moved its counter the expected way (a
    /// hit loop only hit, a miss loop only missed).
    pub counts_ok: bool,
}

/// Median over five batches of the mean cost of `n` calls of `f(i)`.
fn ns_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..n {
                f(i);
            }
            start.elapsed().as_secs_f64() * 1e9 / n as f64
        })
        .collect();
    quantile(&samples, 0.5)
}

pub fn measure() -> UnitCosts {
    const N: u64 = 200_000;
    let key = QarmaKey::new(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
    let mut pac = PacUnit::new();
    pac.mac(1, 2, key); // the one miss that fills the memo slot
    let hits0 = pac.memo_hits();
    let mac_hit_ns = ns_per_call(N, |_| {
        black_box(pac.mac(black_box(1), black_box(2), key));
    });
    let mut counts_ok = pac.memo_hits() - hits0 == 5 * N;
    let misses0 = pac.memo_misses();
    let mut next = 0x1000u64;
    let mac_miss_ns = ns_per_call(N / 10, |_| {
        next += 16; // a fresh pointer every call: the memo never has it
        black_box(pac.mac(black_box(next), black_box(2), key));
    });
    counts_ok &= pac.memo_misses() - misses0 == 5 * (N / 10);

    let mut mem = Memory::new();
    let table = mem.new_table();
    mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
    let ctx = mem.kernel_ctx(table);
    let va = |i: u64| KERNEL_BASE + ((i * 8) & 0xff8);
    mem.translate(&ctx, KERNEL_BASE, AccessType::Read)
        .expect("mapped page translates");
    let tlb_hits0 = mem.tlb_hits();
    let translate_hit_ns = ns_per_call(N, |i| {
        black_box(mem.translate(&ctx, black_box(va(i)), AccessType::Read).ok());
    });
    counts_ok &= mem.tlb_hits() - tlb_hits0 == 5 * N;
    let tlb_misses0 = mem.tlb_misses();
    let translate_miss_ns = ns_per_call(N, |i| {
        mem.tlb_flush();
        black_box(mem.translate(&ctx, black_box(va(i)), AccessType::Read).ok());
    });
    counts_ok &= mem.tlb_misses() - tlb_misses0 == 5 * N;

    // The words of the protected kernel image: real code plus the odd
    // data word that does not decode.
    let words = KernelImage::build(KernelConfig::default().codegen())
        .image()
        .to_words();
    let decode_ns = ns_per_call(N, |i| {
        black_box(camo_isa::decode(black_box(words[i as usize % words.len()])));
    });

    UnitCosts {
        mac_hit_ns,
        mac_miss_ns,
        translate_hit_ns,
        translate_miss_ns,
        decode_ns,
        counts_ok,
    }
}
