//! `lmbench` and `fleet_mix`: tenants served by `FleetDriver::drive`.
//! Each timed rep is one drive of the workload's plan, boot included.
//!
//! The traced run replays the same plan shard by shard through the public
//! `Cluster::boot` + `TenantRun::{new, step}` in the plan's sweep order
//! (unit weights and no budgets make a sweep plain round-robin), and for
//! `lmbench` once more through `Kernel::run_user`. A replica whose
//! simulated totals differ from the untraced drive's is not reported.

use crate::micro;
use crate::util::{
    arch_fields, failed_ops, peak_rss_mib, quantile, repeat, setup_time, throughput, Digest, Phase,
    Rep, SetupSchedule, Tracer,
};
use crate::Outcome;
use camo_cpu::CpuStats;
use camo_kernel::{KernelConfig, KernelError};
use camo_smp::{shard_seed, Cluster, FleetDriver, FleetPlan, FleetReport};
use camo_workloads::{
    tenant_stream_seed, Op, Quota, TenantRun, TenantSpec, TenantTotals, Workload,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lmbench,
    FleetMix,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Lmbench => "lmbench",
            Kind::FleetMix => "fleet_mix",
        }
    }
}

/// Syscalls the `lmbench` tenant serves per drive.
const LMBENCH_SYSCALLS: u64 = 10_000;
/// The BENCH_4 tenants with quotas rebalanced so that `web` takes at most
/// half of the `TenantRun::step` busy time and every other tenant at least
/// a tenth (checked by the traced run).
const FLEET_QUOTAS: [(&str, u64); 4] = [
    ("web", 4_800),
    ("build-farm", 585),
    ("driver-ci", 1_800),
    ("batch", 1_440),
];
/// Set-ups per untraced run, one before the timed phase and the rest
/// spread through it.
const SETUPS: usize = 30;

fn plan(kind: Kind, seed: u64) -> FleetPlan {
    match kind {
        Kind::Lmbench => {
            let mut plan =
                FleetPlan::new(1, seed, vec![TenantSpec::lmbench("web", LMBENCH_SYSCALLS)]);
            plan.workers = Some(1);
            plan
        }
        Kind::FleetMix => {
            let [web, farm, ci, batch] = FLEET_QUOTAS;
            let mut plan = FleetPlan::new(
                4,
                seed,
                vec![
                    TenantSpec::lmbench(web.0, web.1),
                    TenantSpec::process_churn(farm.0, farm.1),
                    TenantSpec::module_churn(ci.0, ci.1),
                    TenantSpec::tenant_mix(batch.0, batch.1),
                ],
            );
            plan.cpus_per_shard = 2;
            // One worker interleaves the four shard tasks on one host
            // thread. With a worker per vCPU of a 2-vCPU shared host, a
            // drive's wall time followed the neighbours on either vCPU:
            // the third-fastest rep of runs of the same code spread by up
            // to 27%.
            plan.workers = Some(1);
            plan
        }
    }
}

/// One shard's simulated totals, from a drive or from a replica.
#[derive(Debug, Clone, PartialEq)]
struct ShardTotals {
    shard: usize,
    syscalls: u64,
    instructions: u64,
    cycles: u64,
    stats: CpuStats,
    sweeps: u64,
    tenants: Vec<(String, TenantTotals)>,
}

fn shard_totals(report: &FleetReport) -> Vec<ShardTotals> {
    report
        .shards
        .iter()
        .map(|s| ShardTotals {
            shard: s.shard,
            syscalls: s.syscalls,
            instructions: s.instructions,
            cycles: s.cycles,
            stats: s.stats,
            sweeps: s.sweeps,
            tenants: s
                .tenants
                .iter()
                .map(|t| (t.name.clone(), t.totals.clone()))
                .collect(),
        })
        .collect()
}

/// The architectural digest of a drive: instructions, cycles, syscalls,
/// sweeps, every tenant's `arch_eq` counters and latency histogram. The
/// cache counters are left out, so every engine setting must agree.
fn digest(shards: &[ShardTotals]) -> u64 {
    let mut d = Digest::new();
    for s in shards {
        d.words(&[
            s.shard as u64,
            s.syscalls,
            s.instructions,
            s.cycles,
            s.sweeps,
        ])
        .words(&arch_fields(&s.stats));
        for (name, t) in &s.tenants {
            d.bytes(name.as_bytes())
                .words(&[t.ops, t.syscalls, t.instructions, t.cycles])
                .words(&arch_fields(&t.stats))
                .bytes(format!("{:?}", t.latency).as_bytes());
        }
    }
    d.finish()
}

fn ops_of(shards: &[ShardTotals]) -> u64 {
    shards
        .iter()
        .flat_map(|s| &s.tenants)
        .map(|(_, t)| t.ops)
        .sum()
}

/// Host-side pool figures of one drive: idle share, shard imbalance,
/// busy-time rate, steals, migrations.
fn pool_figures(r: &FleetReport) -> [f64; 5] {
    let busy: Vec<f64> = r.shards.iter().map(|s| s.wall_secs).collect();
    let total: f64 = busy.iter().sum();
    let max = busy.iter().copied().fold(0.0, f64::max);
    [
        1.0 - total / (r.exec.workers as f64 * r.wall_secs),
        max / (total / busy.len() as f64),
        r.instructions as f64 / total,
        r.exec.steals as f64,
        r.exec.migrations as f64,
    ]
}

/// The kernel configuration `FleetDriver` boots shard `shard` with.
fn shard_config(
    plan: &FleetPlan,
    shard: usize,
    workloads: &[Box<dyn Workload + Send>],
) -> KernelConfig {
    let mut cfg = KernelConfig::with_protection(plan.protection);
    cfg.cpus = plan.cpus_per_shard;
    cfg.seed = shard_seed(plan.seed, shard);
    cfg.fast_caches = plan.fast_caches;
    cfg.block_engine = plan.block_engine;
    cfg.trace_engine = plan.trace_engine;
    cfg.telemetry = plan.telemetry;
    if let Some(threshold) = plan.pac_panic_threshold {
        cfg.pac_panic_threshold = threshold;
    }
    for (name, alu, mem) in workloads.iter().flat_map(|w| w.user_blocks()) {
        if !cfg.user_blocks.iter().any(|(n, _, _)| *n == name) {
            cfg.user_blocks.push((name, alu, mem));
        }
    }
    cfg
}

/// What a syscall-denominated quota lets a step serve, and what the step
/// used up of it — the scheduler's clamp and accounting.
fn clamp(quota: Quota, remaining: u64) -> Option<u64> {
    matches!(quota, Quota::Syscalls(_)).then_some(remaining)
}

fn used(quota: Quota, syscalls: u64, remaining: u64) -> u64 {
    match quota {
        Quota::Ops(_) => 1,
        Quota::Syscalls(_) => syscalls.max(1).min(remaining),
    }
}

/// Replays shard `shard` through `Cluster::boot` and
/// `TenantRun::{new, step}`, one span per call.
fn replay_shard(
    plan: &FleetPlan,
    shard: usize,
    tracer: &mut Tracer,
    parent: u32,
) -> Result<ShardTotals, KernelError> {
    let workloads: Vec<_> = plan.tenants.iter().map(TenantSpec::build).collect();
    let cfg = shard_config(plan, shard, &workloads);
    let start = tracer.now();
    let mut cluster = Cluster::boot(cfg)?;
    tracer.record("Cluster::boot", parent, 0, start);
    let mut tenants = Vec::new();
    for (i, (spec, workload)) in plan.tenants.iter().zip(workloads).enumerate() {
        let start = tracer.now();
        let seed = tenant_stream_seed(plan.seed, shard, &spec.name);
        let run = TenantRun::new(spec.name.clone(), workload, cluster.kernel_mut(), seed)?;
        tracer.record("TenantRun::new", parent, i as u64, start);
        tenants.push((run, spec.quota, spec.quota.share(plan.shards, shard)));
    }
    let mut sweeps = 0;
    while tenants.iter().any(|(_, _, remaining)| *remaining > 0) {
        sweeps += 1;
        for (i, (run, quota, remaining)) in tenants.iter_mut().enumerate() {
            if *remaining == 0 {
                continue;
            }
            let start = tracer.now();
            let report = run.step(cluster.kernel_mut(), clamp(*quota, *remaining))?;
            tracer.record("TenantRun::step", parent, i as u64, start);
            *remaining -= used(*quota, report.syscalls, *remaining);
        }
    }
    let mut totals = ShardTotals {
        shard,
        syscalls: 0,
        instructions: 0,
        cycles: 0,
        stats: CpuStats::default(),
        sweeps,
        tenants: Vec::new(),
    };
    for (run, _, _) in tenants {
        let name = run.name().to_string();
        let t = run.into_totals();
        totals.syscalls += t.syscalls;
        totals.instructions += t.instructions;
        totals.cycles += t.cycles;
        totals.stats.merge(&t.stats);
        totals.tenants.push((name, t));
    }
    Ok(totals)
}

/// Simulated totals of the `Kernel::run_user` replica of a one-shard,
/// one-tenant lmbench plan: syscalls, instructions, cycles, arch counters.
type RunUserTotals = (u64, u64, u64, [u64; 9]);

fn run_user_digest(t: &RunUserTotals) -> u64 {
    Digest::new().words(&[t.0, t.1, t.2]).words(&t.3).finish()
}

/// Replays the lmbench tenant's op stream straight through
/// `Kernel::run_user`, as `TenantRun` applies `Op::Syscall`.
fn replay_run_user(
    plan: &FleetPlan,
    tracer: &mut Tracer,
    parent: u32,
) -> Result<RunUserTotals, KernelError> {
    let spec = &plan.tenants[0];
    let mut workload = spec.build();
    let cfg = shard_config(plan, 0, std::slice::from_ref(&workload));
    let mut cluster = Cluster::boot(cfg)?;
    let kernel = cluster.kernel_mut();
    let tid = kernel.spawn(&format!("{}-0", spec.name))?;
    let mut rng = StdRng::seed_from_u64(tenant_stream_seed(plan.seed, 0, &spec.name));
    let snapshot = |k: &camo_kernel::Kernel| {
        let mut s = CpuStats::default();
        for cpu in k.cpus() {
            s.merge(&cpu.stats());
        }
        (s, k.cpus().iter().map(|c| c.cycles()).sum::<u64>())
    };
    let (stats0, cycles0) = snapshot(kernel);
    let mut remaining = spec.quota.share(1, 0);
    let mut syscalls = 0;
    while remaining > 0 {
        let Op::Syscall { nr, arg0, batch } = workload.next_op(&mut rng) else {
            unreachable!("the lmbench mix only issues syscalls")
        };
        let start = tracer.now();
        let out = kernel.run_user(tid, "stub", batch.min(remaining).max(1), nr, arg0)?;
        tracer.record("Kernel::run_user", parent, out.syscalls, start);
        syscalls += out.syscalls;
        remaining -= used(spec.quota, out.syscalls, remaining);
    }
    let (stats, cycles) = snapshot(kernel);
    let delta = stats.delta_since(&stats0);
    Ok((
        syscalls,
        delta.instructions,
        cycles - cycles0,
        arch_fields(&delta),
    ))
}

/// One replica of the whole plan, shard after shard on this thread.
fn replica(plan: &FleetPlan, plan_ops: u64, tracer: &mut Tracer) -> (Rep, Vec<ShardTotals>) {
    let start = Instant::now();
    let rep = tracer.open("replica", 0, 0);
    let mut shards = Vec::new();
    for shard in 0..plan.shards {
        let id = tracer.open("shard", rep, shard as u64);
        let result = replay_shard(plan, shard, tracer, id);
        tracer.close(id);
        match result {
            Ok(totals) => shards.push(totals),
            Err(_) => break,
        }
    }
    tracer.close(rep);
    let rep = Rep {
        ops: plan_ops,
        insns: shards.iter().map(|s| s.instructions).sum(),
        wall: start.elapsed().as_secs_f64(),
        digest: (shards.len() == plan.shards).then(|| digest(&shards)),
    };
    (rep, shards)
}

/// One drive, timed from outside. A drive that fails is charged
/// `plan_ops`, the ops a successful drive of the plan serves.
fn drive(plan: &FleetPlan, plan_ops: u64) -> (Rep, Option<FleetReport>) {
    let start = Instant::now();
    let result = FleetDriver::drive(plan);
    let wall = start.elapsed().as_secs_f64();
    match result {
        Ok(report) => {
            let shards = shard_totals(&report);
            let rep = Rep {
                ops: ops_of(&shards),
                insns: report.instructions,
                wall,
                digest: Some(digest(&shards)),
            };
            (rep, Some(report))
        }
        Err(_) => (
            Rep {
                ops: plan_ops,
                insns: 0,
                wall,
                digest: None,
            },
            None,
        ),
    }
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let plan = plan(kind, seed);
    // The traced run's drives use the default pool, so that the smp
    // figures see stealing and migrations; the simulated totals do not
    // depend on the worker count.
    let mut timed = plan.clone();
    if trace {
        timed.workers = None;
    }
    let threads = timed
        .workers
        .unwrap_or_else(|| FleetDriver::default_workers(&timed));
    // A set-up is one warm-up drive: it builds the images, boots every
    // shard and runs `TenantRun::new`, and the first one in the process
    // pays its first-touch costs.
    let (first, report) = drive(&plan, 0);
    if report.is_none() {
        return Outcome::setup_failed(1, "warm-up drive returned a KernelError");
    }
    let plan_ops = first.ops;
    // Read at a fixed point: drives fragment the heap a little more each
    // time, so a read after the timed phase would depend on how many reps
    // the host managed.
    let peak_rss = peak_rss_mib();
    let mut setups = vec![first];

    let passes = match (trace, kind) {
        (false, _) => 1.0,
        (true, Kind::Lmbench) => 3.0,
        (true, Kind::FleetMix) => 2.0,
    };
    let mut schedule = SetupSchedule::new(seconds, if trace { 0 } else { SETUPS - 1 });
    let phase = Phase::start();
    let mut pools = Vec::new();
    let mut last = None;
    let reps = repeat(seconds / passes, 3, || {
        if schedule.due() {
            setups.push(drive(&plan, plan_ops).0);
        }
        let (rep, report) = drive(&timed, plan_ops);
        if let Some(r) = &report {
            pools.push(pool_figures(r));
        }
        last = report.or(last.take());
        rep
    });
    let cpu_util = phase.cpu_util(threads);
    let mut reference_plan = plan.clone();
    reference_plan.fast_caches = false;
    reference_plan.block_engine = false;
    reference_plan.trace_engine = false;
    let reference = drive(&reference_plan, plan_ops).0.digest;

    let mut out = Outcome::default();
    out.set("peak_rss_mib", peak_rss);
    if reference.is_none() {
        out.errors.push("reference interpreter drive failed".into());
    }
    out.count(&reps, reference);
    out.count(&setups, reference);
    out.rep_note("drives", &reps);
    out.set("host.cpu_util", cpu_util);
    let Some(report) = last else {
        out.errors.push("every timed drive failed".into());
        return out;
    };
    if !trace {
        out.set("steps_per_sec", throughput(&reps));
        out.set("sim_cycles_per_op", report.cycles as f64 / plan_ops as f64);
        out.set(
            "setup_s",
            setup_time(&setups.iter().map(|s| s.wall).collect::<Vec<_>>()),
        );
        return out;
    }

    let pool_median = |i: usize| quantile(&pools.iter().map(|p| p[i]).collect::<Vec<_>>(), 0.5);
    for (i, name) in [
        "smp.pool_idle_frac",
        "smp.shard_imbalance",
        "smp.busy_steps_per_sec",
        "smp.steals",
        "smp.migrations",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, pool_median(i));
    }
    out.set(
        "smp.sweeps",
        report.shards.iter().map(|s| s.sweeps).sum::<u64>() as f64,
    );
    out.counters(&report.stats, plan_ops, report.syscalls);
    out.unit_costs(&micro::measure());

    // Replicas alternate with the tracer on and off, so both arms of the
    // overhead comparison see the same host conditions; both must
    // reproduce the untraced drive bit for bit.
    let expected = shard_totals(&report);
    let mut tracer = Tracer::new();
    let mut identical = true;
    let (traced, untraced): (Vec<Rep>, Vec<Rep>) = repeat(seconds / passes, 3, || {
        let mut arm = |tracer: &mut Tracer, enabled: bool| {
            tracer.enabled = enabled;
            let (rep, shards) = replica(&plan, plan_ops, tracer);
            identical &= shards == expected;
            rep
        };
        (arm(&mut tracer, true), arm(&mut tracer, false))
    })
    .into_iter()
    .unzip();
    tracer.enabled = true;
    out.count(&traced, reference);
    out.count(&untraced, reference);
    if !identical {
        out.replica_diverged("TenantRun replica diverged from the FleetDriver report");
    } else {
        tenant_spans(&mut out, &tracer, &plan.tenants);
        out.set(
            "trace.overhead_frac",
            1.0 - throughput(&traced) / throughput(&untraced),
        );
        let pool_rate = quantile(&pools.iter().map(|p| p[2]).collect::<Vec<_>>(), 0.95);
        out.notes.push(format!(
            "untraced one-thread replica / FleetDriver shard busy rate (p95s): {:.3}",
            throughput(&untraced) / pool_rate
        ));
    }

    if kind == Kind::Lmbench {
        let shard = &expected[0];
        let want = (
            shard.syscalls,
            shard.instructions,
            shard.cycles,
            arch_fields(&shard.stats),
        );
        let run_user = repeat(seconds / passes, 3, || {
            let start = Instant::now();
            let rep = tracer.open("run_user_replica", 0, 0);
            let got = replay_run_user(&plan, &mut tracer, rep);
            tracer.close(rep);
            Rep {
                ops: 1,
                insns: got.as_ref().map_or(0, |g| g.1),
                wall: start.elapsed().as_secs_f64(),
                digest: got.ok().map(|g| run_user_digest(&g)),
            }
        });
        if failed_ops(&run_user, Some(run_user_digest(&want))) == 0 {
            let (ns, _) = tracer.total("Kernel::run_user");
            let syscalls = shard.syscalls * run_user.len() as u64;
            out.set("kernel.syscall_ns", ns as f64 / syscalls as f64);
        } else {
            let what = "Kernel::run_user replica diverged from the FleetDriver report";
            out.errors.push(what.into());
            out.unavailable
                .insert("kernel.syscall_ns".into(), what.into());
        }
    }
    out.write_trace(&tracer, kind.name());
    out
}

/// Per-tenant step latency and busy share, boot and tenant set-up times,
/// from the replica's spans.
fn tenant_spans(out: &mut Outcome, tracer: &Tracer, tenants: &[TenantSpec]) {
    let mut steps: Vec<Vec<f64>> = vec![Vec::new(); tenants.len()];
    let mut setup_by_shard = std::collections::BTreeMap::<u32, u64>::new();
    let mut boots = Vec::new();
    for s in &tracer.spans {
        match s.name {
            "TenantRun::step" => steps[s.tag as usize].push(s.dur_ns as f64 / 1e3),
            "TenantRun::new" => *setup_by_shard.entry(s.parent).or_default() += s.dur_ns,
            "Cluster::boot" => boots.push(s.dur_ns as f64 / 1e6),
            _ => {}
        }
    }
    let busy: f64 = steps.iter().flatten().sum();
    let mut balanced = true;
    for (spec, us) in tenants.iter().zip(&steps) {
        let share = us.iter().sum::<f64>() / busy;
        let name = &spec.name;
        out.set(format!("workloads.{name}.step_us_p50"), quantile(us, 0.50));
        out.set(format!("workloads.{name}.step_us_p99"), quantile(us, 0.99));
        out.set(format!("workloads.{name}.busy_frac"), share);
        out.notes.push(format!(
            "workloads.{name}: {} steps traced, busy share {share:.3}",
            us.len()
        ));
        balanced &= if name == "web" {
            share <= 0.5
        } else {
            share >= 0.1
        };
    }
    if tenants.len() > 1 && !balanced {
        out.notes.push(
            "quota balance missed: web should take at most 1/2 of the step busy time \
             and every other tenant at least 1/10"
                .into(),
        );
    }
    let setups: Vec<f64> = setup_by_shard.values().map(|&ns| ns as f64 / 1e6).collect();
    out.set("workloads.setup_ms", quantile(&setups, 0.5));
    out.set("kernel.boot_ms", quantile(&boots, 0.5));
}
