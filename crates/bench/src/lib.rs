//! Measurement helpers behind the benchmark harness and the `reproduce`
//! binary.
//!
//! Every table and figure of the paper's evaluation has a measurement
//! function here; the Criterion benches in `benches/` and the `reproduce`
//! report binary both build on these.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use camo_analysis as analysis;
pub use camo_attacks as attacks;
pub use camo_codegen as codegen;
pub use camo_core as core;
pub use camo_lmbench as lmbench;
pub use camo_smp as smp;
pub use camo_workloads as workloads;

pub mod json;

/// Figure 2: per-call overhead of the three modifier schemes.
pub mod fig2 {
    use camo_codegen::{CfiScheme, CodegenConfig, FunctionBuilder, Program};
    use camo_cpu::Cpu;
    use camo_isa::{Insn, Reg};
    use camo_mem::{Memory, S1Attr, KERNEL_BASE};

    /// Result of one scheme's measurement.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CallCost {
        /// The measured scheme.
        pub scheme: CfiScheme,
        /// Cycles per call of an empty function (call + prologue +
        /// epilogue + return + loop upkeep).
        pub cycles_per_call: f64,
        /// The same at the paper's 1.2 GHz evaluation clock.
        pub ns_per_call: f64,
    }

    /// Builds the Figure-2 call-loop machine for `scheme`: an instrumented
    /// empty function plus an uninstrumented driver loop, loaded and ready
    /// to run. Returns the machine and the driver's entry VA.
    ///
    /// Shared by [`measure`] and the `perfcheck` wall-clock harness.
    ///
    /// # Panics
    ///
    /// Panics if image building fails (a harness bug).
    pub fn build_call_loop(scheme: CfiScheme) -> (Cpu, Memory, u64) {
        let cfg = CodegenConfig {
            scheme,
            protect_pointers: false,
            compat_v80: false,
        };
        let mut program = Program::new(cfg);
        program.push(FunctionBuilder::new("empty", cfg).build());
        // The benchmark loop itself is uninstrumented (it is the
        // measurement harness, like the paper's timer loop).
        let mut driver = FunctionBuilder::new("driver", cfg).naked();
        driver.ins(Insn::mov(Reg::x(19), Reg::LR)); // save LR across the BLs
        driver.ins(Insn::mov(Reg::x(20), Reg::x(0)));
        driver.call("empty"); // loop head at index 2
        driver.ins(Insn::SubImm {
            rd: Reg::x(20),
            rn: Reg::x(20),
            imm12: 1,
            shifted: false,
        });
        driver.ins(Insn::Cbnz {
            rt: Reg::x(20),
            offset: -8,
        });
        driver.ins(Insn::mov(Reg::LR, Reg::x(19)));
        driver.ins(Insn::ret());
        program.push(driver.build());
        let image = program.link(KERNEL_BASE);

        let mut mem = Memory::new();
        let table = mem.new_table();
        let bytes = image.to_bytes();
        for (page, chunk) in bytes.chunks(4096).enumerate() {
            let frame = mem.map_new(
                table,
                KERNEL_BASE + page as u64 * 4096,
                S1Attr::kernel_text(),
            );
            mem.phys_mut().write_bytes(frame.base(), chunk).unwrap();
        }
        // A stack page for the frame records.
        let stack_va = KERNEL_BASE + 0x10_0000;
        mem.map_new(table, stack_va, S1Attr::kernel_data());

        let mut cpu = Cpu::default();
        cpu.state
            .set_sysreg(camo_isa::SysReg::Ttbr0El1, table.raw());
        cpu.state
            .set_sysreg(camo_isa::SysReg::Ttbr1El1, table.raw());
        cpu.state
            .set_pauth_key(camo_isa::PauthKey::IA, camo_qarma::QarmaKey::new(11, 12));
        cpu.state
            .set_pauth_key(camo_isa::PauthKey::IB, camo_qarma::QarmaKey::new(13, 14));
        cpu.state.sp_el1 = stack_va + 4096 - 64;
        let driver_va = image.symbol("driver").expect("driver symbol");
        (cpu, mem, driver_va)
    }

    /// Measures the per-call cost of an empty function under `scheme`
    /// by running a simulated call loop of `iters` iterations.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (a harness bug).
    pub fn measure(scheme: CfiScheme, iters: u64) -> CallCost {
        let (mut cpu, mut mem, driver_va) = build_call_loop(scheme);
        let result = cpu
            .call(&mut mem, driver_va, &[iters], 64 * iters + 1024)
            .expect("benchmark loop runs");
        CallCost {
            scheme,
            cycles_per_call: result.cycles as f64 / iters as f64,
            ns_per_call: result.cycles as f64 / iters as f64 / 1.2,
        }
    }

    /// Measures all four schemes (baseline + the Figure 2 contenders).
    pub fn all(iters: u64) -> Vec<CallCost> {
        [
            CfiScheme::None,
            CfiScheme::SpOnly,
            CfiScheme::Camouflage,
            CfiScheme::Parts,
        ]
        .into_iter()
        .map(|s| measure(s, iters))
        .collect()
    }
}

/// §6.1.1: key-switch cost in cycles per key.
pub mod key_switch {
    use camo_core::Machine;
    use camo_kernel::layout::KEYSETTER_VA;

    /// The two directions of a key switch plus their average.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct KeySwitchCost {
        /// Cycles/key to install the kernel keys via the XOM setter.
        pub install_per_key: f64,
        /// Cycles/key to restore the user keys from `thread_struct`.
        pub restore_per_key: f64,
        /// The average — the paper's "9 cycles per key" quantity.
        pub avg_per_key: f64,
    }

    /// Measures on a freshly booted protected machine, averaging `n` runs.
    ///
    /// # Panics
    ///
    /// Panics if boot or the kernel calls fail.
    pub fn measure(n: u64) -> KeySwitchCost {
        let mut machine = Machine::protected().expect("boot");
        let kernel = machine.kernel_mut();
        let restore_va = kernel.symbol("restore_user_keys");
        let mut install = 0u64;
        let mut restore = 0u64;
        for _ in 0..n {
            install += kernel.kexec(KEYSETTER_VA, &[]).expect("setter").cycles;
            restore += kernel.kexec(restore_va, &[]).expect("restore").cycles;
        }
        let keys = 3.0 * n as f64;
        let install_per_key = install as f64 / keys;
        let restore_per_key = restore as f64 / keys;
        KeySwitchCost {
            install_per_key,
            restore_per_key,
            avg_per_key: (install_per_key + restore_per_key) / 2.0,
        }
    }
}

/// A repeatable wall-clock measurement: a host rate to maximise and a
/// fingerprint of simulated counts that must not move between repeats.
pub trait Sample {
    /// Simulated instructions per host second (higher is better).
    fn rate(&self) -> f64;
    /// Simulated `(cycles, instructions)`, deterministic in the inputs.
    fn fingerprint(&self) -> (u64, u64);
}

/// Best of `repeats` runs: keeps the highest [`Sample::rate`] (the
/// minimum wall time is the least host-contaminated estimate).
///
/// # Panics
///
/// Panics if two repeats disagree on [`Sample::fingerprint`] — that is a
/// determinism bug, not host noise.
pub fn best_of<T: Sample>(repeats: usize, mut run: impl FnMut() -> T) -> T {
    let first = run();
    (1..repeats).fold(first, |best, _| {
        let next = run();
        assert_eq!(
            next.fingerprint(),
            best.fingerprint(),
            "simulation must be deterministic across repeats"
        );
        if next.rate() > best.rate() {
            next
        } else {
            best
        }
    })
}

/// Two arms of an A/B: the toggled knob on and off.
#[derive(Debug)]
pub struct Ab<T> {
    /// Knob on.
    pub on: T,
    /// Knob off.
    pub off: T,
}

impl<T: Sample> Ab<T> {
    /// Measures both arms best-of-`repeats`, off arm first so the on arm
    /// cannot benefit from a warmer host. `run(on)` measures one arm.
    pub fn measure(repeats: usize, mut run: impl FnMut(bool) -> T) -> Ab<T> {
        let off = best_of(repeats, || run(false));
        let on = best_of(repeats, || run(true));
        Ab { on, off }
    }

    /// On-arm rate over off-arm rate.
    pub fn speedup(&self) -> f64 {
        self.on.rate() / self.off.rate().max(1e-9)
    }

    /// Whether both arms simulated the same cycles and instructions.
    pub fn identical(&self) -> bool {
        self.on.fingerprint() == self.off.fingerprint()
    }
}

/// Wall-clock throughput of the simulator itself (the `perfcheck` binary).
///
/// Everything else in this crate measures *simulated cycles* — the paper's
/// quantity, unaffected by the fast-path caches by design. This module
/// measures *host seconds per simulated step*: the thing the software TLB,
/// decoded-instruction cache and warm QARMA schedules exist to improve.
pub mod perf {
    use super::{fig2, Sample};
    use camo_codegen::CfiScheme;
    use camo_core::{Machine, ProtectionLevel};
    use camo_cpu::CpuStats;
    use camo_kernel::SYSCALLS;
    use camo_lmbench::workload_config;
    use std::time::Instant;

    /// One wall-clock measurement of a workload.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PerfSample {
        /// Simulated instructions retired.
        pub instructions: u64,
        /// Simulated cycles consumed (must not depend on any engine knob).
        pub cycles: u64,
        /// Host wall-clock seconds.
        pub wall_secs: f64,
        /// The measured core's counters after the run: PAC memo, TLB,
        /// block and trace cache activity.
        pub stats: CpuStats,
    }

    impl PerfSample {
        /// Simulated instructions per host second.
        pub fn steps_per_sec(&self) -> f64 {
            self.instructions as f64 / self.wall_secs.max(1e-9)
        }
    }

    impl Sample for PerfSample {
        fn rate(&self) -> f64 {
            self.steps_per_sec()
        }

        fn fingerprint(&self) -> (u64, u64) {
            (self.cycles, self.instructions)
        }
    }

    /// The one Figure-2 wall-clock harness behind every A/B: builds the
    /// call loop (Camouflage scheme), applies the cache, block-engine and
    /// trace-engine knobs, runs `iters` iterations, and samples.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (a harness bug).
    pub fn fig2_sample(iters: u64, caches: bool, blocks: bool, traces: bool) -> PerfSample {
        let (mut cpu, mut mem, driver_va) = fig2::build_call_loop(CfiScheme::Camouflage);
        cpu.set_block_engine(blocks);
        cpu.set_trace_engine(traces);
        cpu.set_caching(caches);
        mem.set_caching(caches);
        let start = Instant::now();
        let result = cpu
            .call(&mut mem, driver_va, &[iters], 64 * iters + 1024)
            .expect("benchmark loop runs");
        PerfSample {
            instructions: result.instructions,
            cycles: result.cycles,
            wall_secs: start.elapsed().as_secs_f64(),
            stats: cpu.stats(),
        }
    }

    /// The lmbench syscall mix (every modeled syscall, `reps` rounds each)
    /// on a fully protected machine booted from `seed`, with the caches on
    /// or off. The block engine is pinned off: BENCH_2 measures the
    /// caches alone.
    ///
    /// # Panics
    ///
    /// Panics if boot or a syscall fails (a harness bug).
    pub fn syscall_mix(reps: u64, caches: bool, seed: u64) -> PerfSample {
        let mut cfg = workload_config(ProtectionLevel::Full);
        cfg.fast_caches = caches;
        cfg.block_engine = false;
        cfg.seed = seed;
        let mut machine = Machine::with_config(cfg).expect("boot");
        let kernel = machine.kernel_mut();
        let tid = kernel.current_task().tid;
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        let start = Instant::now();
        for spec in SYSCALLS {
            let out = kernel
                .run_user(tid, "stub", reps, spec.nr, 3)
                .expect("syscall mix runs");
            instructions += out.instructions;
            cycles += out.cycles;
        }
        PerfSample {
            instructions,
            cycles,
            wall_secs: start.elapsed().as_secs_f64(),
            stats: machine.kernel().cpu().stats(),
        }
    }
}

/// The multi-tenant fleet measurement behind every fleet-level
/// `perfcheck` family.
///
/// One harness: [`measure`](fleet::measure) runs a
/// [`FleetPlan`](camo_smp::FleetPlan) on the work-stealing pool and
/// sequentially and cross-checks them bit for bit. Every A/B (block
/// engine, trace tier, telemetry, adversarial arms) is the same plan
/// with one field edited. The documented contract for every emitted
/// field lives in `BENCHMARKS.md`.
pub mod fleet {
    use super::{Ab, Sample};
    use camo_smp::{FleetDriver, FleetPlan, FleetReport};
    use camo_workloads::TenantSpec;

    /// The standard four-tenant mix (`--smoke` shrinks it to two tenants
    /// for CI runners: the lmbench baseline plus the switch-heavy mix).
    pub fn standard_tenants(smoke: bool) -> Vec<TenantSpec> {
        if smoke {
            vec![
                TenantSpec::lmbench("web", 1_600),
                TenantSpec::tenant_mix("batch", 120),
            ]
        } else {
            vec![
                TenantSpec::lmbench("web", 8_000),
                TenantSpec::process_churn("build-farm", 240),
                TenantSpec::module_churn("driver-ci", 160),
                TenantSpec::tenant_mix("batch", 400),
            ]
        }
    }

    /// One fleet measurement: the same plan in both execution modes.
    #[derive(Debug)]
    pub struct FleetMeasurement {
        /// The pooled run (wall scaling on this host).
        pub parallel: FleetReport,
        /// The back-to-back run (isolated per-shard capacity).
        pub sequential: FleetReport,
        /// Whether both modes agreed bit for bit on every simulated
        /// quantity — totals, per-tenant stats, latency histograms.
        pub identical: bool,
    }

    impl Sample for FleetMeasurement {
        /// Isolated-shard capacity from the sequential run — free of
        /// host contention.
        fn rate(&self) -> f64 {
            self.sequential.capacity_steps_per_sec()
        }

        fn fingerprint(&self) -> (u64, u64) {
            (self.parallel.cycles, self.parallel.instructions)
        }
    }

    /// Runs `plan` on the pool and sequentially, and cross-checks the
    /// simulated outcome.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn measure(plan: &FleetPlan) -> FleetMeasurement {
        let parallel = FleetDriver::drive(plan).expect("parallel fleet runs");
        let sequential = FleetDriver::drive_sequential(plan).expect("sequential fleet runs");
        let identical = parallel.simulation_identical(&sequential);
        FleetMeasurement {
            parallel,
            sequential,
            identical,
        }
    }

    impl Ab<FleetMeasurement> {
        /// Whether the two arms agreed on every architectural quantity:
        /// totals, per-tenant counters ([`camo_cpu::CpuStats::arch_eq`]
        /// for the stats), and the per-tenant simulated-cycle latency
        /// histograms.
        pub fn arch_identical(&self) -> bool {
            arch_identical(&self.on.parallel, &self.off.parallel)
        }

        /// Whether parallel and sequential runs agreed within each arm.
        pub fn modes_identical(&self) -> bool {
            self.on.identical && self.off.identical
        }
    }

    /// Whether two fleet reports are architecturally identical —
    /// everything the simulation defines except the cache-observability
    /// counters (which legitimately differ across engines).
    pub fn arch_identical(a: &FleetReport, b: &FleetReport) -> bool {
        a.syscalls == b.syscalls
            && a.instructions == b.instructions
            && a.cycles == b.cycles
            && a.stats.arch_eq(&b.stats)
            && a.tenants.len() == b.tenants.len()
            && a.tenants.iter().zip(&b.tenants).all(|(x, y)| {
                x.name == y.name
                    && x.totals.ops == y.totals.ops
                    && x.totals.syscalls == y.totals.syscalls
                    && x.totals.instructions == y.totals.instructions
                    && x.totals.cycles == y.totals.cycles
                    && x.totals.stats.arch_eq(&y.totals.stats)
                    && x.totals.latency == y.totals.latency
            })
    }
}

/// The adversarial traffic plane (`perfcheck --fuzz`, `BENCH_6.json`).
///
/// Seeded fuzz tenants mount the [`camo_workloads::HostileOp`] attacks —
/// forged and replayed signed stack pointers, forged `f_ops`/work-callback
/// pointers, module-signing violations, direct physical writes to
/// translated code — *under load*, interleaved with benign tenants on the
/// same machines. Three property families are gated:
///
/// 1. **Attribution**: every hostile op produced exactly its declared
///    expected outcome (the right [`camo_cpu::pac::KeyClass`] failure on
///    the right sacrificial task, a module rejection, or coherent tamper
///    visibility) and nothing else.
/// 2. **Blast radius**: no benign tenant saw a §5.4 failure-policy event
///    in any of its op windows (false-positive rate 0), and each benign
///    tenant's simulated totals — ops, syscalls, instructions, cycles,
///    latency histogram, architectural counters — are bit-identical to an
///    isolated-baseline run of the same tenant alone on an identically
///    seeded fleet.
/// 3. **Engine invariance**: the whole adversarial plan produces
///    architecturally identical results with the translation engine on
///    and off (the on-arm runs both tiers — blocks *and* traces, the
///    production default), including the per-op hostile ledgers.
///
/// The §5.4 measurements the paper motivates — false-positive rate and
/// time-to-kill (simulated cycles from attack trigger to task kill) — are
/// reported alongside the gates.
pub mod fuzz {
    use super::fleet::{self, arch_identical, FleetMeasurement};
    use super::Ab;
    use camo_smp::{FleetPlan, FleetReport, TenantReport};
    use camo_workloads::{HostileOp, HostileTotals, TenantSpec};

    /// The benign side of the adversarial plan. Placed *first* in the
    /// plan so these tenants' long-lived tasks are spawned (and
    /// scheduler-placed) before any fuzz tenant exists — the precondition
    /// for the isolated-baseline identity gate.
    pub fn benign_tenants(smoke: bool) -> Vec<TenantSpec> {
        if smoke {
            vec![
                TenantSpec::lmbench("web", 800),
                TenantSpec::tenant_mix("batch", 60),
            ]
        } else {
            vec![
                TenantSpec::lmbench("web", 4_000),
                TenantSpec::tenant_mix("batch", 240),
            ]
        }
    }

    /// The fuzz tenants, always appended *after* the benign tenants.
    pub fn fuzz_tenants(smoke: bool) -> Vec<TenantSpec> {
        let ops = if smoke { 60 } else { 320 };
        vec![
            TenantSpec::fuzz("fuzz-0", ops),
            TenantSpec::fuzz("fuzz-1", ops),
        ]
    }

    /// One benign tenant's isolation verdict: does its service in the
    /// adversarial plan match, bit for bit, its service alone on an
    /// identically seeded fleet?
    #[derive(Debug)]
    pub struct IsolationCheck {
        /// Tenant name.
        pub name: String,
        /// Architectural identity of the mixed-run and isolated-run
        /// tenant reports.
        pub identical: bool,
    }

    /// Arch-level tenant-report identity: every simulated quantity except
    /// the cache-observability counters (same exclusion rule as
    /// [`arch_identical`]).
    fn tenant_arch_identical(a: &TenantReport, b: &TenantReport) -> bool {
        a.name == b.name
            && a.totals.ops == b.totals.ops
            && a.totals.syscalls == b.totals.syscalls
            && a.totals.instructions == b.totals.instructions
            && a.totals.cycles == b.totals.cycles
            && a.totals.stats.arch_eq(&b.totals.stats)
            && a.totals.latency == b.totals.latency
            && a.totals.hostile == b.totals.hostile
    }

    /// One engine arm: the adversarial plan plus the per-benign-tenant
    /// isolated baselines.
    #[derive(Debug)]
    pub struct FuzzArm {
        /// The mixed (benign + fuzz) plan, both execution modes.
        pub mixed: FleetMeasurement,
        /// Isolation verdict per benign tenant.
        pub isolation: Vec<IsolationCheck>,
    }

    impl FuzzArm {
        /// The merged adversarial ledger of every fuzz tenant.
        pub fn ledger(&self) -> HostileTotals {
            let mut total = HostileTotals::default();
            for t in &self.mixed.parallel.tenants {
                total.merge(&t.totals.hostile);
            }
            total
        }

        /// Gate 1: every hostile op matched its declaration (and at least
        /// one was mounted).
        pub fn all_hostile_matched(&self) -> bool {
            let ledger = self.ledger();
            ledger.attempted > 0 && ledger.matched == ledger.attempted
        }

        /// Gate 2a: zero §5.4 failure-policy events in benign windows,
        /// across every tenant (fuzz tenants' benign windows included).
        pub fn zero_false_positives(&self) -> bool {
            self.ledger().benign_pac_events == 0
        }

        /// Gate 2b: every benign tenant bit-identical to its isolated
        /// baseline.
        pub fn benign_isolated(&self) -> bool {
            !self.isolation.is_empty() && self.isolation.iter().all(|c| c.identical)
        }

        /// Per-op attribution table in [`HostileOp::ALL`] order:
        /// `(name, attempted, matched)`.
        pub fn per_op(&self) -> Vec<(&'static str, u64, u64)> {
            let ledger = self.ledger();
            HostileOp::ALL
                .iter()
                .map(|op| {
                    let recs = ledger.records.iter().filter(|r| r.op == *op);
                    let attempted = recs.clone().count() as u64;
                    let matched = recs.filter(|r| r.matched).count() as u64;
                    (op.name(), attempted, matched)
                })
                .collect()
        }
    }

    /// Runs one arm on `plan` (its own tenants are ignored): the mixed
    /// adversarial plan, then each benign tenant alone on an identically
    /// seeded fleet, comparing the tenant's report architecturally.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (the executor propagates only
    /// infrastructure errors; attack outcomes are recorded, not thrown).
    fn measure_arm(plan: &FleetPlan, smoke: bool) -> FuzzArm {
        let run = |tenants: Vec<TenantSpec>| {
            fleet::measure(&FleetPlan {
                tenants,
                ..plan.clone()
            })
        };
        let benign = benign_tenants(smoke);
        let mixed = run(benign.iter().cloned().chain(fuzz_tenants(smoke)).collect());
        let isolation = benign
            .into_iter()
            .map(|spec| {
                let name = spec.name.clone();
                let alone = run(vec![spec]);
                IsolationCheck {
                    identical: alone.identical
                        && tenant_arch_identical(
                            served(&mixed.parallel, &name),
                            served(&alone.parallel, &name),
                        ),
                    name,
                }
            })
            .collect();
        FuzzArm { mixed, isolation }
    }

    fn served<'r>(report: &'r FleetReport, name: &str) -> &'r TenantReport {
        report
            .tenants
            .iter()
            .find(|t| t.name == name)
            .expect("benign tenant served")
    }

    impl Ab<FuzzArm> {
        /// Gate 3: the two arms agree on every architectural quantity
        /// ([`arch_identical`]) and on every tenant's hostile ledger
        /// (records, time-to-kill, counts) — the block engine must not
        /// change a single attack outcome.
        pub fn arch_identical(&self) -> bool {
            let (a, b) = (&self.on.mixed.parallel, &self.off.mixed.parallel);
            arch_identical(a, b)
                && a.tenants
                    .iter()
                    .zip(&b.tenants)
                    .all(|(x, y)| x.totals.hostile == y.totals.hostile)
        }

        /// All gates at once.
        pub fn passes(&self) -> bool {
            [&self.on, &self.off].iter().all(|arm| {
                arm.mixed.identical
                    && arm.all_hostile_matched()
                    && arm.zero_false_positives()
                    && arm.benign_isolated()
            }) && self.arch_identical()
        }
    }

    /// Runs both block-engine arms on `plan`'s shape (engine off first,
    /// mirroring the other A/Bs). The §5.4 panic threshold is lifted: the
    /// gate, not the panic, judges every attack — a fuzz campaign
    /// necessarily exceeds any sane production threshold.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails.
    pub fn measure(plan: &FleetPlan, smoke: bool) -> Ab<FuzzArm> {
        let arm = |block_engine| {
            let plan = FleetPlan {
                block_engine,
                pac_panic_threshold: Some(u32::MAX),
                ..plan.clone()
            };
            measure_arm(&plan, smoke)
        };
        let off = arm(false);
        let on = arm(true);
        Ab { on, off }
    }
}

/// The streaming-stats-plane A/B (`perfcheck --telemetry`, `BENCH_8.json`).
///
/// Telemetry is the strictest knob in the whole A/B family: unlike the
/// block and trace engines it has **no** architectural surface at all,
/// so the identity gate here is full bit-identity — every one of the 22
/// `CpuStats` counters, including the observability ones the engine A/Bs
/// legitimately exempt. The off arm must additionally stay silent
/// (no time series anywhere), and the on arm must account losslessly
/// (window sums ≡ end-of-run totals per tenant).
pub mod telemetry {
    use super::fleet::FleetMeasurement;
    use super::Ab;
    use camo_cpu::CpuStats;
    use camo_smp::FleetReport;

    /// Whether the two arms are **bit-identical** in everything the
    /// simulation defines: totals, all 22 stat counters (full equality,
    /// not [`CpuStats::arch_eq`]), and per-tenant totals including the
    /// latency histograms. Telemetry observes the run; it must not
    /// perturb even an observability counter.
    pub fn fully_identical(ab: &Ab<FleetMeasurement>) -> bool {
        let (a, b) = (&ab.on.parallel, &ab.off.parallel);
        a.syscalls == b.syscalls
            && a.instructions == b.instructions
            && a.cycles == b.cycles
            && a.stats == b.stats
            && a.tenants.len() == b.tenants.len()
            && a.tenants
                .iter()
                .zip(&b.tenants)
                .all(|(x, y)| x.name == y.name && x.totals == y.totals)
    }

    /// Whether a report carries no time series at all — the off arm's
    /// obligation.
    pub fn silent(report: &FleetReport) -> bool {
        report.tenants.iter().all(|t| t.series.is_empty())
    }

    /// One tenant's series verdict for the BENCH_8 report.
    #[derive(Debug, Clone)]
    pub struct SeriesCheck {
        /// Tenant name.
        pub name: String,
        /// Windows in the tenant's time series.
        pub windows: usize,
        /// Whether the window sums reproduce the end-of-run totals
        /// (ops, syscalls, cycles, and every stat counter) exactly.
        pub sums_exact: bool,
    }

    impl SeriesCheck {
        /// The gate: a non-empty series whose sums are exact.
        pub fn complete(&self) -> bool {
            self.windows > 0 && self.sums_exact
        }
    }

    /// Per-tenant lossless-accounting checks: sums every tenant's
    /// series and compares it against the end-of-run totals.
    pub fn series_checks(report: &FleetReport) -> Vec<SeriesCheck> {
        report
            .tenants
            .iter()
            .map(|t| {
                let mut stats = CpuStats::default();
                let (mut ops, mut syscalls, mut cycles) = (0u64, 0u64, 0u64);
                for w in &t.series {
                    ops += w.ops;
                    syscalls += w.syscalls;
                    cycles += w.cycles;
                    stats.merge(&w.stats);
                }
                SeriesCheck {
                    name: t.name.clone(),
                    windows: t.series.len(),
                    sums_exact: ops == t.totals.ops
                        && syscalls == t.totals.syscalls
                        && cycles == t.totals.cycles
                        && stats == t.totals.stats,
                }
            })
            .collect()
    }

    /// Wall-clock cost of running the plane: `1 − on/off` capacity
    /// ratio from the isolated-shard sequential runs, clamped at zero
    /// (host noise can make the on arm *faster*). Reported against a 2%
    /// budget, never gated: it is a ratio of millisecond runs.
    pub fn drain_overhead(ab: &Ab<FleetMeasurement>) -> f64 {
        (1.0 - ab.speedup()).max(0.0)
    }
}

/// The work-stealing fleet scheduler benchmark (`perfcheck --fleet-steal`,
/// `BENCH_9.json`).
///
/// The BENCH_4 tenant mix scaled out to a dense population — 64 tenants
/// on 8 single-core shards (16 on 4 with `--smoke`) with mixed weights
/// and cycle budgets — served by the work-stealing host pool at several
/// worker counts. Four properties, all deterministic:
///
/// 1. **Bit-identity under stealing**: every pooled run, at every worker
///    count, is `simulation_identical` to the sequential oracle.
/// 2. **Worker invariance**: the pooled runs agree with each other
///    pairwise — perturbing the host schedule (1, 2, N, 2N workers)
///    moves nothing simulated.
/// 3. **Telemetry under migration**: with the stats plane on, every
///    tenant's window sums reproduce its end-of-run totals even though
///    shard tasks migrated between workers mid-run.
/// 4. **Latency**: the fleet-wide p99 simulated-cycle op latency is
///    deterministic in the plan and gated against a fixed target.
pub mod steal {
    use camo_smp::{FleetDriver, FleetPlan, FleetReport};
    use camo_workloads::TenantSpec;

    /// Shard counts (full / `--smoke`). Dense-tenant plans pin
    /// `cpus_per_shard` to 1: every tenant lives on every shard, and the
    /// kernel's task-stack region bounds the per-machine task population.
    pub const SHARDS: usize = 8;
    /// `--smoke` shard count.
    pub const SMOKE_SHARDS: usize = 4;

    /// The dense tenant mix: 64 tenants (16 with `smoke`), mostly
    /// single-task lmbench traffic with a capped sprinkling of
    /// multi-task churn tenants, weights rotating 1–4 and sporadic
    /// per-sweep cycle budgets so the weighted-fair and throttling paths
    /// are all exercised under stealing.
    pub fn dense_tenants(smoke: bool) -> Vec<TenantSpec> {
        let count = if smoke { 16 } else { 64 };
        let mut tenants = Vec::with_capacity(count);
        for i in 0..count {
            let name = format!("tenant-{i:02}");
            let mut spec = match i % 16 {
                // Multi-task tenants are capped (3 per 16) so every
                // machine stays inside the kernel's fixed stack-stride
                // region even at 64 tenants.
                3 => TenantSpec::process_churn(name, 4),
                7 => TenantSpec::module_churn(name, 3),
                11 => TenantSpec::tenant_mix(name, 5),
                _ => TenantSpec::lmbench(name, if smoke { 60 } else { 120 }),
            };
            spec = spec.with_weight(1 + (i as u32 % 4));
            if i % 5 == 4 {
                spec = spec.with_cycle_budget(2_000 + 500 * (i as u64 % 4));
            }
            tenants.push(spec);
        }
        tenants
    }

    /// The worker counts the invariance gate perturbs: 1, 2, N, 2N
    /// (N = the pool's default on this host), deduplicated and sorted.
    pub fn worker_counts(plan: &FleetPlan) -> Vec<usize> {
        let n = FleetDriver::default_workers(plan);
        let mut counts = vec![1, 2, n, 2 * n];
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    /// One full BENCH_9 measurement.
    #[derive(Debug)]
    pub struct StealMeasurement {
        /// The dense plan that was run (telemetry on).
        pub plan: FleetPlan,
        /// The sequential oracle.
        pub sequential: FleetReport,
        /// The worker counts exercised, aligned with `pooled`.
        pub counts: Vec<usize>,
        /// One pooled run per worker count.
        pub pooled: Vec<FleetReport>,
    }

    impl StealMeasurement {
        /// Gate 1: every pooled run bit-identical to the oracle.
        pub fn bit_identical(&self) -> bool {
            self.pooled
                .iter()
                .all(|r| r.simulation_identical(&self.sequential))
        }

        /// Gate 2: the pooled runs pairwise identical across worker
        /// counts.
        pub fn worker_invariant(&self) -> bool {
            self.pooled
                .windows(2)
                .all(|w| w[0].simulation_identical(&w[1]))
        }

        /// The pooled run at the host's default worker count (the last
        /// de-duplicated entry ≤ N; in practice the N-worker run).
        pub fn pooled_default(&self) -> &FleetReport {
            let n = FleetDriver::default_workers(&self.plan);
            self.counts
                .iter()
                .position(|&w| w == n)
                .map(|i| &self.pooled[i])
                .unwrap_or(&self.pooled[0])
        }

        /// Fleet-wide p99 simulated-cycle op latency: the worst tenant's
        /// p99. Deterministic in the plan, so it gates on every host.
        pub fn p99(&self) -> u64 {
            self.sequential
                .tenants
                .iter()
                .map(|t| t.totals.latency.p99())
                .max()
                .unwrap_or(0)
        }
    }

    /// Runs the full measurement: the sequential oracle once, then one
    /// pooled run per worker count.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn measure(shards: usize, seed: u64, smoke: bool) -> StealMeasurement {
        let mut plan = FleetPlan::new(shards, seed, dense_tenants(smoke));
        plan.cpus_per_shard = 1;
        // Telemetry on: gate 3 needs the drain path live under stealing.
        plan.telemetry = true;
        let sequential = FleetDriver::drive_sequential(&plan).expect("sequential oracle runs");
        let counts = worker_counts(&plan);
        let pooled = counts
            .iter()
            .map(|&w| FleetDriver::drive_with_workers(&plan, w).expect("pooled fleet runs"))
            .collect();
        StealMeasurement {
            plan,
            sequential,
            counts,
            pooled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_codegen::CfiScheme;
    use camo_smp::FleetPlan;
    use camo_workloads::TenantSpec;

    #[test]
    fn fig2_ordering_matches_paper() {
        // Figure 2: Clang's SP-only < Camouflage < PARTS; all above the
        // uninstrumented baseline.
        let costs = fig2::all(50);
        let get = |s: CfiScheme| {
            costs
                .iter()
                .find(|c| c.scheme == s)
                .unwrap()
                .cycles_per_call
        };
        let none = get(CfiScheme::None);
        let sp = get(CfiScheme::SpOnly);
        let camo = get(CfiScheme::Camouflage);
        let parts = get(CfiScheme::Parts);
        assert!(none < sp, "{none} < {sp}");
        assert!(sp < camo, "{sp} < {camo}");
        assert!(camo < parts, "{camo} < {parts}");
    }

    #[test]
    fn fleet_measurement_is_simulation_identical() {
        let mut plan = FleetPlan::new(
            2,
            0xBE4C4,
            vec![
                TenantSpec::lmbench("web", 64),
                TenantSpec::tenant_mix("batch", 8),
            ],
        );
        plan.cpus_per_shard = 2;
        let m = fleet::measure(&plan);
        assert!(m.identical, "fleet execution mode leaked into simulation");
        assert_eq!(m.parallel.syscalls, m.sequential.syscalls);
        assert!(m
            .parallel
            .tenants
            .iter()
            .all(|t| t.totals.latency.p99() > 0));
    }

    #[test]
    fn fuzz_gate_is_clean_on_a_small_fleet() {
        let mut plan = FleetPlan::new(2, 0xF022, Vec::new());
        plan.cpus_per_shard = 2;
        let ab = fuzz::measure(&plan, true);
        assert!(ab.passes(), "the smoke adversarial plan must gate clean");
        let ledger = ab.on.ledger();
        assert!(ledger.attempted > 0, "fuzz tenants mounted attacks");
        assert_eq!(ledger.matched, ledger.attempted);
        assert_eq!(ledger.benign_pac_events, 0);
        assert_eq!(ledger.false_positive_rate(), 0.0);
        assert!(
            ledger.time_to_kill.count() > 0 && ledger.time_to_kill.p50() > 0,
            "killing attacks fed the time-to-kill distribution"
        );
        // The per-op table accounts for every record, and both arms tell
        // the same story.
        let per_op: u64 = ab.on.per_op().iter().map(|(_, a, _)| a).sum();
        assert_eq!(per_op, ledger.attempted);
        assert_eq!(ab.on.ledger(), ab.off.ledger());
    }

    #[test]
    fn best_of_keeps_the_fastest_and_ab_compares_arms() {
        struct Fake(f64, u64);
        impl Sample for Fake {
            fn rate(&self) -> f64 {
                self.0
            }
            fn fingerprint(&self) -> (u64, u64) {
                (self.1, 0)
            }
        }
        let mut rates = [3.0, 9.0, 5.0].into_iter();
        let best = best_of(3, || Fake(rates.next().unwrap(), 7));
        assert_eq!((best.0, best.1), (9.0, 7));
        let ab = Ab::measure(1, |on| Fake(if on { 6.0 } else { 2.0 }, 7));
        assert_eq!(ab.speedup(), 3.0);
        assert!(ab.identical());
    }

    #[test]
    #[should_panic(expected = "deterministic across repeats")]
    fn best_of_rejects_a_nondeterministic_simulation() {
        let mut cycles = 0u64;
        best_of(2, || {
            cycles += 1;
            perf::PerfSample {
                instructions: 1,
                cycles,
                wall_secs: 1.0,
                stats: camo_cpu::CpuStats::default(),
            }
        });
    }

    #[test]
    fn key_switch_is_about_nine_cycles_per_key() {
        let cost = key_switch::measure(5);
        assert!(
            cost.avg_per_key > 6.0 && cost.avg_per_key < 14.0,
            "≈9 cycles/key (§6.1.1), got {:.2}",
            cost.avg_per_key
        );
    }
}
