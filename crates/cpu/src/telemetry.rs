//! The zero-copy observability plane: periodic stat-delta windows over a
//! lock-free single-producer/single-consumer ring.
//!
//! The simulator's reporting has always been end-of-run snapshots —
//! [`CpuStats`] totals merged when a tenant finishes. This module adds the
//! *time axis*: an executor accumulates per-op [`CpuStats::delta_since`]
//! deltas into a [`StatWindow`] and seals one window every
//! [`TelemetryConfig::window_ops`] ops into a [`TelemetryRing`] shared with
//! whoever drains it (the fleet driver, a live dashboard, a load-aware
//! scheduler). Three properties carry the design:
//!
//! * **Observed execution is bit-identical.** The plane only *reads*
//!   deltas the executor already computes for its totals; it never
//!   touches simulated state, draws from an RNG, or reorders anything.
//!   The same A/B contract as `fast_caches`/`block_engine`/`trace_engine`
//!   applies, and `perfcheck --telemetry` gates it.
//! * **Lossless accounting under overflow.** [`TelemetryRing::try_push`]
//!   refuses when full rather than dropping or blocking; the emitter then
//!   *coalesces* — it keeps accumulating into its pending window and
//!   retries at the next boundary. Memory stays bounded by the ring, and
//!   the sum of all drained windows plus the final
//!   [`TelemetryEmitter::flush`] equals the end-of-run totals exactly.
//! * **Safe lock-free SPSC.** The whole crate forbids `unsafe`, so the
//!   ring is a `Vec<AtomicU64>` of fixed-width word-encoded windows with a
//!   monotonic producer tail (Release-published after the slot words are
//!   written) and a monotonic consumer head (Release-published after the
//!   slot words are read). Acquire loads on the opposite counter give the
//!   usual SPSC happens-before edges in both directions.
//!
//! The word codec ([`StatWindow::to_words`]/[`StatWindow::from_words`])
//! destructures [`CpuStats`] exhaustively, so adding a counter without
//! teaching the telemetry plane about it is a *compile* error, not a
//! silently truncated time series.

use crate::CpuStats;
use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of `u64` words a [`CpuStats`] occupies in the slot encoding —
/// one per counter field.
pub const STAT_WORDS: usize = 22;

/// Number of `u64` words one encoded [`StatWindow`] occupies: the five
/// window header fields plus [`STAT_WORDS`].
pub const WINDOW_WORDS: usize = 5 + STAT_WORDS;

/// Emission cadence and ring sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Ops accumulated per sealed window (the time-series resolution).
    pub window_ops: u64,
    /// Ring capacity in windows. Overflow coalesces (see the module
    /// docs), so this bounds memory and drain latency, not correctness.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window_ops: 16,
            capacity: 256,
        }
    }
}

/// One sealed observation window: the stat deltas a tenant accumulated
/// over (up to) [`TelemetryConfig::window_ops`] consecutive ops.
///
/// `ops` can exceed the configured cadence when the ring was full at a
/// boundary and the emitter coalesced; the accounting stays exact either
/// way. All fields are deltas over the window, not running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatWindow {
    /// Producer id from [`TelemetryRing::register`] (the fleet driver
    /// registers tenants in plan order, so this indexes the plan).
    pub tenant: u64,
    /// Position of this window in its tenant's series (0-based, dense:
    /// seq `n` is the `n`-th window the tenant emitted).
    pub seq: u64,
    /// Ops folded into the window.
    pub ops: u64,
    /// Syscalls served by those ops.
    pub syscalls: u64,
    /// Simulated cycles consumed by those ops.
    pub cycles: u64,
    /// Full counter deltas over the window (block/trace hit rates, TLB
    /// and icache hits, PAC memo hits, PAC failures, IPIs, ...).
    pub stats: CpuStats,
}

impl StatWindow {
    /// A fresh, empty window for `tenant` at series position `seq`.
    pub fn new(tenant: u64, seq: u64) -> StatWindow {
        StatWindow {
            tenant,
            seq,
            ..StatWindow::default()
        }
    }

    /// Folds one op's attribution into the window.
    pub fn record(&mut self, syscalls: u64, cycles: u64, delta: &CpuStats) {
        self.ops += 1;
        self.syscalls += syscalls;
        self.cycles += cycles;
        self.stats.merge(delta);
    }

    /// The slot encoding. The [`CpuStats`] destructuring is exhaustive on
    /// purpose: a new counter field fails to compile here until the codec
    /// (and therefore every drained time series) carries it.
    pub fn to_words(&self) -> [u64; WINDOW_WORDS] {
        let CpuStats {
            instructions,
            pac_signs,
            pac_auth_ok,
            pac_auth_fail,
            pac_auth_fail_instr,
            pac_auth_fail_data,
            key_writes,
            exceptions,
            tlb_hits,
            tlb_misses,
            icache_hits,
            icache_misses,
            pac_memo_hits,
            pac_memo_misses,
            ipis,
            block_hits,
            block_misses,
            block_invalidations,
            chain_follows,
            trace_hits,
            trace_misses,
            trace_invalidations,
        } = self.stats;
        [
            self.tenant,
            self.seq,
            self.ops,
            self.syscalls,
            self.cycles,
            instructions,
            pac_signs,
            pac_auth_ok,
            pac_auth_fail,
            pac_auth_fail_instr,
            pac_auth_fail_data,
            key_writes,
            exceptions,
            tlb_hits,
            tlb_misses,
            icache_hits,
            icache_misses,
            pac_memo_hits,
            pac_memo_misses,
            ipis,
            block_hits,
            block_misses,
            block_invalidations,
            chain_follows,
            trace_hits,
            trace_misses,
            trace_invalidations,
        ]
    }

    /// Decodes a slot written by [`StatWindow::to_words`].
    pub fn from_words(words: &[u64; WINDOW_WORDS]) -> StatWindow {
        StatWindow {
            tenant: words[0],
            seq: words[1],
            ops: words[2],
            syscalls: words[3],
            cycles: words[4],
            stats: CpuStats {
                instructions: words[5],
                pac_signs: words[6],
                pac_auth_ok: words[7],
                pac_auth_fail: words[8],
                pac_auth_fail_instr: words[9],
                pac_auth_fail_data: words[10],
                key_writes: words[11],
                exceptions: words[12],
                tlb_hits: words[13],
                tlb_misses: words[14],
                icache_hits: words[15],
                icache_misses: words[16],
                pac_memo_hits: words[17],
                pac_memo_misses: words[18],
                ipis: words[19],
                block_hits: words[20],
                block_misses: words[21],
                block_invalidations: words[22],
                chain_follows: words[23],
                trace_hits: words[24],
                trace_misses: words[25],
                trace_invalidations: words[26],
            },
        }
    }
}

/// The lock-free SPSC window ring one shard shares between its serve loop
/// (producer) and its drainer (consumer).
///
/// Single-producer / single-consumer is the contract, not an enforcement:
/// within a fleet shard every tenant's emitter runs on the shard's one
/// serve thread, and the drain runs on whichever single thread owns the
/// consumer side. Head and tail are monotonic u64 counters; slot `i` of a
/// window at position `p` lives at word `(p % capacity) * WINDOW_WORDS +
/// i`.
pub struct TelemetryRing {
    cfg: TelemetryConfig,
    slots: Vec<AtomicU64>,
    /// Consumer cursor: next window position to read.
    head: AtomicU64,
    /// Producer cursor: next window position to write.
    tail: AtomicU64,
    /// Monotonic producer-id allocator for [`TelemetryRing::register`].
    tenants: AtomicU64,
}

impl fmt::Debug for TelemetryRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryRing")
            .field("cfg", &self.cfg)
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .field("tenants", &self.tenants.load(Ordering::Relaxed))
            .finish()
    }
}

impl TelemetryRing {
    /// An empty ring sized by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity or a zero window cadence.
    pub fn new(cfg: TelemetryConfig) -> TelemetryRing {
        assert!(cfg.capacity > 0, "ring capacity must be positive");
        assert!(cfg.window_ops > 0, "window cadence must be positive");
        let mut slots = Vec::with_capacity(cfg.capacity * WINDOW_WORDS);
        slots.resize_with(cfg.capacity * WINDOW_WORDS, || AtomicU64::new(0));
        TelemetryRing {
            cfg,
            slots,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            tenants: AtomicU64::new(0),
        }
    }

    /// The sizing/cadence the ring was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Capacity in windows.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Windows currently buffered (racy by nature; exact when quiescent).
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring is empty (same caveat as [`TelemetryRing::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocates the next producer id. The fleet driver registers tenants
    /// in plan order, so ids index the plan's tenant list on that shard.
    pub fn register(&self) -> u64 {
        self.tenants.fetch_add(1, Ordering::Relaxed)
    }

    /// Producer side: publishes one window unless the ring is full.
    /// Returns `false` (and writes nothing) when full — the caller keeps
    /// accumulating and retries, so nothing is ever silently dropped.
    pub fn try_push(&self, window: &StatWindow) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        // Acquire on head: the consumer Release-stored it *after* reading
        // the slot we are about to overwrite, so our writes cannot race
        // its reads.
        let head = self.head.load(Ordering::Acquire);
        if tail - head >= self.cfg.capacity as u64 {
            return false;
        }
        let base = (tail % self.cfg.capacity as u64) as usize * WINDOW_WORDS;
        for (i, word) in window.to_words().iter().enumerate() {
            self.slots[base + i].store(*word, Ordering::Relaxed);
        }
        // Release on tail publishes the slot words to a consumer that
        // Acquire-loads the new tail.
        self.tail.store(tail + 1, Ordering::Release);
        true
    }

    /// Consumer side: takes the oldest buffered window, if any.
    pub fn pop(&self) -> Option<StatWindow> {
        let head = self.head.load(Ordering::Relaxed);
        // Acquire on tail pairs with the producer's Release: once we see
        // tail > head, the slot words at head are fully written.
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let base = (head % self.cfg.capacity as u64) as usize * WINDOW_WORDS;
        let mut words = [0u64; WINDOW_WORDS];
        for (i, word) in words.iter_mut().enumerate() {
            *word = self.slots[base + i].load(Ordering::Relaxed);
        }
        // Release on head hands the slot back to the producer.
        self.head.store(head + 1, Ordering::Release);
        Some(StatWindow::from_words(&words))
    }

    /// Consumer side: drains every currently buffered window into `out`.
    pub fn drain_into(&self, out: &mut Vec<StatWindow>) {
        while let Some(window) = self.pop() {
            out.push(window);
        }
    }
}

/// The producer half a [`crate::CpuStats`]-attributing executor holds:
/// accumulates per-op deltas, seals windows on cadence, and coalesces
/// across full-ring boundaries.
#[derive(Debug)]
pub struct TelemetryEmitter {
    ring: Arc<TelemetryRing>,
    window_ops: u64,
    pending: StatWindow,
    /// Window boundaries that found the ring full and folded onward —
    /// observability for sizing, not a loss count (nothing is dropped).
    coalesced: u64,
}

impl TelemetryEmitter {
    /// Registers a new producer on `ring` and starts its first window.
    pub fn new(ring: Arc<TelemetryRing>) -> TelemetryEmitter {
        let tenant = ring.register();
        let window_ops = ring.config().window_ops;
        TelemetryEmitter {
            ring,
            window_ops,
            pending: StatWindow::new(tenant, 0),
            coalesced: 0,
        }
    }

    /// This emitter's producer id on the ring.
    pub fn tenant(&self) -> u64 {
        self.pending.tenant
    }

    /// Boundaries at which a full ring forced coalescing so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Folds one op's attribution in; seals and publishes the pending
    /// window when the cadence is reached (coalescing if the ring is
    /// full).
    pub fn record(&mut self, syscalls: u64, cycles: u64, delta: &CpuStats) {
        self.pending.record(syscalls, cycles, delta);
        if self.pending.ops >= self.window_ops {
            if self.ring.try_push(&self.pending) {
                self.pending = StatWindow::new(self.pending.tenant, self.pending.seq + 1);
            } else if self.pending.ops.is_multiple_of(self.window_ops) {
                // Count distinct full boundaries, not the per-op retries
                // between them — this is a ring-sizing signal.
                self.coalesced += 1;
            }
        }
    }

    /// End-of-run flush: returns the final partial window directly
    /// (bypassing the ring, so delivery cannot fail) and resets. `None`
    /// when every recorded op is already published.
    pub fn flush(&mut self) -> Option<StatWindow> {
        if self.pending.ops == 0 {
            return None;
        }
        let out = self.pending;
        self.pending = StatWindow::new(out.tenant, out.seq + 1);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats value with every field distinct — the completeness probe.
    fn distinct_stats(base: u64) -> CpuStats {
        let mut n = base;
        let mut next = || {
            n += 1;
            n
        };
        CpuStats {
            instructions: next(),
            pac_signs: next(),
            pac_auth_ok: next(),
            pac_auth_fail: next(),
            pac_auth_fail_instr: next(),
            pac_auth_fail_data: next(),
            key_writes: next(),
            exceptions: next(),
            tlb_hits: next(),
            tlb_misses: next(),
            icache_hits: next(),
            icache_misses: next(),
            pac_memo_hits: next(),
            pac_memo_misses: next(),
            ipis: next(),
            block_hits: next(),
            block_misses: next(),
            block_invalidations: next(),
            chain_follows: next(),
            trace_hits: next(),
            trace_misses: next(),
            trace_invalidations: next(),
        }
    }

    fn window(tenant: u64, seq: u64, base: u64) -> StatWindow {
        StatWindow {
            tenant,
            seq,
            ops: base + 100,
            syscalls: base + 200,
            cycles: base + 300,
            stats: distinct_stats(base * 1000),
        }
    }

    #[test]
    fn codec_roundtrips_and_covers_every_field() {
        let w = window(7, 9, 3);
        let words = w.to_words();
        assert_eq!(StatWindow::from_words(&words), w);
        // Every field value is distinct, so a codec that dropped or
        // duplicated a field would repeat a word here.
        let mut sorted = words.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), WINDOW_WORDS, "codec collapsed a field");
    }

    #[test]
    fn push_pop_roundtrip_in_order() {
        let ring = TelemetryRing::new(TelemetryConfig {
            window_ops: 4,
            capacity: 8,
        });
        for i in 0..5 {
            assert!(ring.try_push(&window(0, i, i + 1)));
        }
        assert_eq!(ring.len(), 5);
        for i in 0..5 {
            assert_eq!(ring.pop(), Some(window(0, i, i + 1)));
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_refuses_and_wraps_after_drain() {
        let ring = TelemetryRing::new(TelemetryConfig {
            window_ops: 4,
            capacity: 2,
        });
        assert!(ring.try_push(&window(0, 0, 1)));
        assert!(ring.try_push(&window(0, 1, 2)));
        assert!(!ring.try_push(&window(0, 2, 3)), "full ring must refuse");
        assert_eq!(ring.pop(), Some(window(0, 0, 1)));
        assert!(ring.try_push(&window(0, 2, 3)), "freed slot is reusable");
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out, vec![window(0, 1, 2), window(0, 2, 3)]);
    }

    #[test]
    fn emitter_seals_on_cadence_and_coalesces_when_full() {
        let ring = Arc::new(TelemetryRing::new(TelemetryConfig {
            window_ops: 2,
            capacity: 1,
        }));
        let mut em = TelemetryEmitter::new(Arc::clone(&ring));
        let delta = distinct_stats(0);
        // First boundary publishes; second finds the ring full and
        // coalesces; flush returns the remainder.
        for _ in 0..5 {
            em.record(1, 10, &delta);
        }
        assert_eq!(em.coalesced(), 1);
        let first = ring.pop().expect("first window published");
        assert_eq!((first.seq, first.ops), (0, 2));
        let rest = em.flush().expect("pending remainder");
        assert_eq!((rest.seq, rest.ops), (1, 3), "coalesced window kept all");
        assert_eq!(first.ops + rest.ops, 5, "no op lost");
        let mut sum = first.stats;
        sum.merge(&rest.stats);
        let mut expect = CpuStats::default();
        for _ in 0..5 {
            expect.merge(&delta);
        }
        assert_eq!(sum, expect, "window sums reproduce the totals exactly");
        assert_eq!(em.flush(), None, "flush drains the pending window");
    }

    #[test]
    fn registration_ids_are_dense_and_ordered() {
        let ring = TelemetryRing::new(TelemetryConfig::default());
        assert_eq!(ring.register(), 0);
        assert_eq!(ring.register(), 1);
        assert_eq!(ring.register(), 2);
    }
}
