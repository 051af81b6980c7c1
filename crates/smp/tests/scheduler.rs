//! Determinism torture tests for the work-stealing fleet scheduler.
//!
//! The contract under test: the *host* schedule — worker count, steal
//! order, where each slice runs — is invisible to the *simulated*
//! schedule. For any plan (any shard count, tenant mix, priority vector,
//! cycle budgets, mid-run tenant exits), a work-stealing drive at any
//! worker count is bit-identical to the sequential oracle on cycles,
//! architectural counters, and all telemetry counters.
//!
//! Every property here is seeded through the vendored proptest's
//! per-test deterministic RNG (`test_runner::rng_for`), so CI explores
//! the same cases on every machine. Fleet cases boot real machines, so
//! the expensive properties cap their case count (still overridable
//! downward via `PROPTEST_CASES`).

use camo_smp::{FleetDriver, FleetPlan, FleetReport};
use camo_workloads::TenantSpec;
use proptest::prelude::*;
use proptest::strategy::TestRng;

/// `PROPTEST_CASES`, capped: fleet properties boot `shards` machines per
/// drive, so they run fewer cases than a pure in-memory property would.
fn cases(cap: u32) -> u32 {
    proptest::test_runner::cases().min(cap)
}

/// Samples a random fleet plan: 1–16 shards, 1–64 tenants with mixed
/// workloads, weights 1–4, sporadic cycle budgets, telemetry on (so the
/// identity covers every telemetry counter), 1–2 cores per shard.
///
/// Large tenant counts pin `cpus_per_shard` to 1 and cap the number of
/// multi-task mixes so the per-machine task population stays inside the
/// kernel's fixed stack-stride region.
fn sample_plan(rng: &mut TestRng, case: u32) -> FleetPlan {
    let shards = (1usize..=16).sample(rng);
    let cpus = (1usize..=2).sample(rng);
    let max_tenants = if cpus == 2 { 24 } else { 64 };
    let tenant_count = (1usize..=max_tenants).sample(rng);
    let mut tenants = Vec::with_capacity(tenant_count);
    let mut heavy = 0usize; // multi-task mixes admitted so far
    for idx in 0..tenant_count {
        let name = format!("t{idx}");
        let kind = (0u8..=3).sample(rng);
        let mut spec = if heavy < 6 && kind > 0 {
            heavy += 1;
            match kind {
                1 => TenantSpec::process_churn(name, (2u64..=8).sample(rng)),
                2 => TenantSpec::module_churn(name, (2u64..=6).sample(rng)),
                _ => TenantSpec::tenant_mix(name, (2u64..=8).sample(rng)),
            }
        } else {
            TenantSpec::lmbench(name, (4u64..=32).sample(rng))
        };
        spec = spec.with_weight((1u32..=4).sample(rng));
        if idx % 3 == 2 {
            spec = spec.with_cycle_budget((500u64..=5000).sample(rng));
        }
        tenants.push(spec);
    }
    let mut plan = FleetPlan::new(shards, 0x9000 + u64::from(case), tenants);
    plan.cpus_per_shard = cpus;
    plan.telemetry = true;
    plan
}

/// Asserts the full bit-identity the scheduler promises, with pointed
/// messages for the pieces `simulation_identical` folds together.
fn assert_identical(label: &str, a: &FleetReport, b: &FleetReport) {
    assert_eq!(a.cycles, b.cycles, "{label}: cycles diverged");
    assert_eq!(
        a.instructions, b.instructions,
        "{label}: instructions diverged"
    );
    assert_eq!(a.stats, b.stats, "{label}: merged CpuStats diverged");
    for (x, y) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(
            x.series, y.series,
            "{label}: tenant {} telemetry series diverged",
            x.name
        );
        assert_eq!(
            x.sched, y.sched,
            "{label}: tenant {} schedule record diverged",
            x.name
        );
    }
    assert!(
        a.simulation_identical(b),
        "{label}: simulation_identical failed"
    );
}

/// Satellite 1: for random plans across the whole parameter space, the
/// work-stealing drive is bit-identical to the sequential oracle on
/// cycles, arch counters, and every telemetry counter.
#[test]
fn steal_schedule_matches_sequential_oracle() {
    let mut rng = proptest::test_runner::rng_for("steal_schedule_matches_sequential_oracle");
    for case in 0..cases(8) {
        let plan = sample_plan(&mut rng, case);
        let workers = (1usize..=5).sample(&mut rng);
        let oracle = FleetDriver::drive_sequential(&plan).expect("oracle runs");
        let steal = FleetDriver::drive_with_workers(&plan, workers).expect("steal pool runs");
        assert_eq!(steal.exec.workers, workers);
        assert_identical(
            &format!(
                "case {case}: {} shards x {} tenants, {workers} workers",
                plan.shards,
                plan.tenants.len()
            ),
            &steal,
            &oracle,
        );
    }
}

/// A fixed mixed plan with weights, budgets, and an adversarial tenant —
/// the shape the stress and drain properties share.
fn stress_plan(seed: u64) -> FleetPlan {
    let mut plan = FleetPlan::new(
        4,
        seed,
        vec![
            TenantSpec::lmbench("web", 96).with_weight(3),
            TenantSpec::lmbench("api", 64).with_cycle_budget(4_000),
            TenantSpec::process_churn("build-farm", 8),
            TenantSpec::module_churn("driver-ci", 6).with_weight(2),
            TenantSpec::tenant_mix("batch", 10).with_cycle_budget(2_500),
            TenantSpec::fuzz("fuzz-0", 12),
        ],
    );
    plan.cpus_per_shard = 2;
    plan.telemetry = true;
    // The fuzz tenant *expects* PAC failures; raise the §5.4 panic
    // threshold so the run measures the policy instead of halting on it.
    plan.pac_panic_threshold = Some(u32::MAX);
    plan
}

/// Satellite 2: the same plan across 8 runs with perturbed worker counts
/// (1, 2, N, 2N) produces identical reports — host-schedule-dependent
/// nondeterminism the 1:1 model could never exhibit would surface here.
#[test]
fn worker_count_perturbation_is_invisible() {
    let plan = stress_plan(0x57EA1);
    let n = FleetDriver::default_workers(&plan);
    let oracle = FleetDriver::drive_sequential(&plan).expect("oracle runs");
    let counts = [1, 2, n, 2 * n, 1, 2, n, 2 * n];
    for (run, workers) in counts.into_iter().enumerate() {
        let report = FleetDriver::drive_with_workers(&plan, workers).expect("pool runs");
        assert_identical(
            &format!("run {run} with {workers} workers"),
            &report,
            &oracle,
        );
    }
}

/// Idle workers steal from each other constantly when the pool has far
/// more workers than shards; a worker that held its own deque's lock
/// while locking a victim's would deadlock against a peer doing the
/// reverse. The drives run on a helper thread so a hang fails the test
/// instead of wedging the suite.
#[test]
fn oversubscribed_pool_never_deadlocks() {
    let plan = FleetPlan::new(
        2,
        0xDEAD_10CC,
        vec![
            TenantSpec::lmbench("web", 32),
            TenantSpec::tenant_mix("batch", 4),
        ],
    );
    let (done, finished) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        for _ in 0..20 {
            FleetDriver::drive_with_workers(&plan, 8).expect("pool runs");
        }
        done.send(()).ok();
    });
    match finished.recv_timeout(std::time::Duration::from_secs(30)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("20 drives of a 2-shard plan at 8 workers still running after 30 s")
        }
        // Finished, or the helper panicked: joining surfaces either.
        _ => helper.join().expect("every drive completed"),
    }
}

/// Satellite 3a: a tenant whose quota drains mid-run leaves the rotation
/// and frees its weighted-fair share to the residue — without skewing
/// any other tenant's simulated service. Other tenants' totals are
/// bit-identical to a plan in which the early-exiting tenant never
/// existed (name-seeded streams make this exact).
#[test]
fn drained_tenant_frees_share_without_skewing_others() {
    let survivors = vec![
        TenantSpec::lmbench("web", 96).with_weight(2),
        TenantSpec::tenant_mix("batch", 12),
    ];
    let mut with_spike = survivors.clone();
    // Heavy weight + tiny quota: the spike grabs a large share per sweep
    // and drains within the first few sweeps.
    with_spike.push(TenantSpec::process_churn("spike", 4).with_weight(4));

    let mut base = FleetPlan::new(2, 0xD0A1, survivors);
    base.cpus_per_shard = 2;
    let mut spiked = FleetPlan::new(2, base.seed, with_spike);
    spiked.cpus_per_shard = 2;

    let oracle = FleetDriver::drive_sequential(&spiked).expect("spiked plan runs");
    let steal = FleetDriver::drive_with_workers(&spiked, 3).expect("steal pool runs");
    assert_identical("spiked plan", &steal, &oracle);

    let spike = oracle
        .tenants
        .iter()
        .find(|t| t.name == "spike")
        .expect("spike served");
    let web = oracle.tenants.iter().find(|t| t.name == "web").unwrap();
    assert_eq!(spike.totals.ops, 4, "spike quota hit exactly");
    assert!(
        spike.sched.drained_sweep.is_some(),
        "spike drained mid-run and left the rotation"
    );
    assert!(
        web.sched.sweeps_served > spike.sched.sweeps_served,
        "survivors kept being served after the spike drained"
    );

    // The spike's existence — its service, its drain, the residue
    // reweighting — must not move a single architectural quantity of
    // the surviving tenants.
    let baseline = FleetDriver::drive_sequential(&base).expect("baseline runs");
    for x in &baseline.tenants {
        let y = oracle
            .tenants
            .iter()
            .find(|t| t.name == x.name)
            .expect("survivor served in both plans");
        assert_eq!(x.totals.ops, y.totals.ops, "{} ops", x.name);
        assert_eq!(x.totals.syscalls, y.totals.syscalls, "{} syscalls", x.name);
        assert_eq!(
            x.totals.instructions, y.totals.instructions,
            "{} instructions",
            x.name
        );
        assert_eq!(x.totals.cycles, y.totals.cycles, "{} cycles", x.name);
        assert!(
            x.totals.stats.arch_eq(&y.totals.stats),
            "{}: architectural counters moved when the spike tenant drained",
            x.name
        );
    }
}

/// Satellite 3b: an adversarial tenant whose sacrificial tasks are
/// killed by the §5.4 policy and reclaimed by `Kernel::reap_task` drains
/// exactly like a benign one: every hostile op matches its declared
/// outcome (the matrix-24 discipline), benign tenants are bit-identical
/// to an attack-free baseline, and the whole thing is steal-invariant.
#[test]
fn reaped_hostile_tenant_drains_cleanly() {
    let benign = vec![
        TenantSpec::lmbench("web", 64),
        TenantSpec::tenant_mix("batch", 10).with_weight(2),
    ];
    let mut hostile = benign.clone();
    hostile.push(TenantSpec::fuzz("fuzz-0", 18).with_weight(3));

    let mut base = FleetPlan::new(2, 0xFA22, benign);
    base.cpus_per_shard = 2;
    base.pac_panic_threshold = Some(u32::MAX);
    let mut attacked = FleetPlan::new(2, base.seed, hostile);
    attacked.cpus_per_shard = 2;
    attacked.pac_panic_threshold = Some(u32::MAX);

    let oracle = FleetDriver::drive_sequential(&attacked).expect("attacked plan runs");
    let steal = FleetDriver::drive_with_workers(&attacked, 2).expect("steal pool runs");
    assert_identical("attacked plan", &steal, &oracle);

    let fuzz = oracle
        .tenants
        .iter()
        .find(|t| t.name == "fuzz-0")
        .expect("fuzz tenant served");
    assert!(fuzz.totals.hostile.attempted > 0, "attacks were mounted");
    assert_eq!(
        fuzz.totals.hostile.matched, fuzz.totals.hostile.attempted,
        "every hostile op matched its declared outcome"
    );
    for record in &fuzz.totals.hostile.records {
        assert!(record.matched, "hostile op {:?} misattributed", record.op);
    }
    assert!(
        fuzz.sched.drained_sweep.is_some(),
        "the fuzz tenant drained (its kills were reaped, not leaked)"
    );

    // Benign tenants: bit-identical to the attack-free baseline.
    let baseline = FleetDriver::drive_sequential(&base).expect("baseline runs");
    for x in &baseline.tenants {
        let y = oracle.tenants.iter().find(|t| t.name == x.name).unwrap();
        assert_eq!(x.totals.cycles, y.totals.cycles, "{} cycles", x.name);
        assert_eq!(x.totals.ops, y.totals.ops, "{} ops", x.name);
        assert!(
            x.totals.stats.arch_eq(&y.totals.stats),
            "{}: attacks next door moved architectural counters",
            x.name
        );
        assert_eq!(
            x.totals.hostile.benign_pac_events, 0,
            "{}: false positive under adversarial co-tenancy",
            x.name
        );
    }
}

/// Weighted fair queueing is exact: a weight-w tenant is served w op
/// slots per sweep, so an ops-quota tenant drains at `ceil(quota / w)`.
#[test]
fn weighted_fair_queueing_serves_proportionally() {
    let plan = FleetPlan::new(
        1,
        0x3FA1,
        vec![
            TenantSpec::tenant_mix("heavy", 30).with_weight(3),
            TenantSpec::tenant_mix("light", 30),
        ],
    );
    let report = FleetDriver::drive(&plan).expect("plan runs");
    let heavy = report.tenants.iter().find(|t| t.name == "heavy").unwrap();
    let light = report.tenants.iter().find(|t| t.name == "light").unwrap();
    assert_eq!(heavy.sched.drained_sweep, Some(10), "30 ops at 3 per sweep");
    assert_eq!(light.sched.drained_sweep, Some(30), "30 ops at 1 per sweep");
    assert_eq!(heavy.sched.ops_served, 30);
    assert_eq!(report.shards[0].sweeps, 30, "the shard ran to the slowest");
}

/// Cycle budgets throttle deterministically: a budgeted tenant skips
/// whole sweeps while its simulated-cycle credit is exhausted, still
/// completes its quota, and the throttle schedule is bit-identical
/// across drive modes.
#[test]
fn cycle_budgets_throttle_deterministically() {
    let plan = {
        let mut plan = FleetPlan::new(
            1,
            0xB4D9,
            vec![
                // Ops cost thousands of cycles; a 300-cycle budget forces
                // multi-sweep pay-back between ops.
                TenantSpec::tenant_mix("capped", 8).with_cycle_budget(300),
                TenantSpec::lmbench("web", 48),
            ],
        );
        plan.telemetry = true;
        plan
    };
    let oracle = FleetDriver::drive_sequential(&plan).expect("oracle runs");
    let steal = FleetDriver::drive_with_workers(&plan, 2).expect("pool runs");
    assert_identical("budgeted plan", &steal, &oracle);

    let capped = oracle.tenants.iter().find(|t| t.name == "capped").unwrap();
    assert_eq!(capped.totals.ops, 8, "throttling defers, never starves");
    assert!(
        capped.sched.throttled_sweeps > 0,
        "the budget actually throttled ({} sweeps served, {} throttled)",
        capped.sched.sweeps_served,
        capped.sched.throttled_sweeps
    );
    // Throttle decisions are simulated-cycle-driven, so the schedule
    // record itself is part of the bit-identity (checked above); the
    // shard also ran more sweeps than the unthrottled tenant needed.
    assert!(oracle.shards[0].sweeps > capped.sched.sweeps_served);
}

/// The host-side execution profile reports the pool shape without ever
/// entering the simulated identity.
#[test]
fn exec_profile_reflects_drive_mode() {
    let plan = stress_plan(0xE9EC);
    let seq = FleetDriver::drive_sequential(&plan).expect("sequential runs");
    assert_eq!(seq.exec.workers, 1);
    assert_eq!(seq.exec.steals, 0);
    let pooled = FleetDriver::drive_with_workers(&plan, 3).expect("pool runs");
    assert_eq!(pooled.exec.workers, 3);
    // Different exec profiles, identical simulation.
    assert_identical("exec profile modes", &pooled, &seq);
}
