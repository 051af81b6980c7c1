//! The metric registry: every metric the benchmark reports, with its unit,
//! direction, layer and the end-to-end metric (and workload) it is
//! predicted to move. `BENCHMARK.json` is generated from these tables
//! (`--describe`), so later changes can cite a metric by name.

/// One workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "hot_loop",
        why: "Figure-2 call loop on one bare core: the cpu engine and the PAC memo on warm read-only code; \
              control for kernel, workloads and smp",
    },
    Workload {
        name: "lmbench",
        why: "Figure-3 syscall mix as one tenant on a 1-core shard: syscall entry/exit, key install/restore, \
              host upcalls; control for smp and churn paths",
    },
    Workload {
        name: "fleet_mix",
        why: "four churning tenants on 4 shards x 2 cores, one pool worker: scheduler slices, spawn/exit, \
              module load, invalidations, fresh keys, TLB misses",
    },
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The crate (layer) the metric describes, or `end_to_end`/`host`.
    pub layer: &'static str,
    /// Which end-to-end metric, on which workload, it should move; for
    /// end-to-end metrics, what it measures.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end_to_end",
        moves,
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        moves,
    }
}

pub const END_TO_END: &[Metric] = &[
    e2e(
        "steps_per_sec",
        "1/s",
        "higher",
        0.25,
        "simulated instructions / host wall seconds of one timed rep, the third-fastest rep of the run",
    ),
    e2e(
        "sim_cycles_per_op",
        "cycles/op",
        "lower",
        0.05,
        "simulated cycles per call (hot_loop) or per tenant op; deterministic, the modelled-design number",
    ),
    e2e(
        "setup_s",
        "s",
        "lower",
        0.25,
        "seconds of one set-up (image build, boot, TenantRun::new, warm-up pass), 10th percentile of 30 spread through the run",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        "lower",
        0.15,
        "peak resident memory of the benchmark process, read after the first set-up",
    ),
    e2e(
        "ok_op_frac",
        "frac",
        "higher",
        0.001,
        "1 - failed_op_frac: ops without a KernelError whose rep digest matches the engines-off reference",
    ),
];

const SMP_POOL: &str = "steps_per_sec on fleet_mix through slice overhead (timed drives use one worker; \
                        these figures come from default-pool drives); no change on hot_loop or lmbench";
const TENANT: &str = "steps_per_sec on fleet_mix weighted by busy_frac (web also on lmbench)";
const ENGINE_HITS: &str = "steps_per_sec on hot_loop (hits)";
const ENGINE_WRITES: &str = "steps_per_sec on fleet_mix (invalidations and builds)";
const PAC: &str = "steps_per_sec on hot_loop (hits) and fleet_mix (misses)";
const MEM: &str = "steps_per_sec on fleet_mix (driven by build-farm)";
const ISA: &str = "steps_per_sec on fleet_mix (driven by driver-ci's fresh module code)";
const KEY_WORK: &str =
    "sim_cycles_per_op on lmbench and fleet_mix (deterministic; moves only with the model)";

pub const PER_LAYER: &[Metric] = &[
    layer("smp", "smp.pool_idle_frac", "frac", "lower", SMP_POOL),
    layer("smp", "smp.shard_imbalance", "ratio", "lower", SMP_POOL),
    layer("smp", "smp.busy_steps_per_sec", "1/s", "higher", SMP_POOL),
    layer("smp", "smp.steals", "count", "lower", SMP_POOL),
    layer("smp", "smp.migrations", "count", "lower", SMP_POOL),
    layer("smp", "smp.sweeps", "count", "lower", SMP_POOL),
    layer(
        "workloads",
        "workloads.web.step_us_p50",
        "us",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.web.step_us_p99",
        "us",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.web.busy_frac",
        "frac",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.build-farm.step_us_p50",
        "us",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.build-farm.step_us_p99",
        "us",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.build-farm.busy_frac",
        "frac",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.driver-ci.step_us_p50",
        "us",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.driver-ci.step_us_p99",
        "us",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.driver-ci.busy_frac",
        "frac",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.batch.step_us_p50",
        "us",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.batch.step_us_p99",
        "us",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.batch.busy_frac",
        "frac",
        "lower",
        TENANT,
    ),
    layer(
        "workloads",
        "workloads.setup_ms",
        "ms",
        "lower",
        "setup_s on lmbench and fleet_mix",
    ),
    layer(
        "kernel",
        "kernel.boot_ms",
        "ms",
        "lower",
        "setup_s on lmbench and fleet_mix",
    ),
    layer(
        "kernel",
        "kernel.syscall_ns",
        "ns",
        "lower",
        "steps_per_sec on lmbench and fleet_mix; no change on hot_loop",
    ),
    layer("kernel", "kernel.syscalls", "count/op", "lower", KEY_WORK),
    layer("kernel", "kernel.exceptions", "count/op", "lower", KEY_WORK),
    layer("kernel", "kernel.key_writes", "count/op", "lower", KEY_WORK),
    layer("cpu", "cpu.ns_per_insn", "ns", "lower", ENGINE_HITS),
    layer(
        "cpu",
        "cpu.insns_per_run_block",
        "count",
        "higher",
        ENGINE_HITS,
    ),
    layer("cpu", "cpu.trace_share", "frac", "higher", ENGINE_HITS),
    layer("cpu", "cpu.block_hit_ratio", "frac", "higher", ENGINE_HITS),
    layer("cpu", "cpu.icache_hit_ratio", "frac", "higher", ENGINE_HITS),
    layer(
        "cpu",
        "cpu.block_invalidations",
        "count",
        "lower",
        ENGINE_WRITES,
    ),
    layer(
        "cpu",
        "cpu.trace_invalidations",
        "count",
        "lower",
        ENGINE_WRITES,
    ),
    layer("cpu", "cpu.trace_builds", "count", "lower", ENGINE_WRITES),
    layer("cpu", "cpu.chain_follows", "count", "higher", ENGINE_HITS),
    layer("pac", "pac.ops_per_kinsn", "count", "lower", PAC),
    layer("pac", "pac.memo_hit_ratio", "frac", "higher", PAC),
    layer("pac", "pac.qarma_evals", "count", "lower", PAC),
    layer("pac", "pac.mac_hit_ns", "ns", "lower", PAC),
    layer("pac", "pac.mac_miss_ns", "ns", "lower", PAC),
    layer("mem", "mem.tlb_hit_ratio", "frac", "higher", MEM),
    layer("mem", "mem.tlb_misses", "count", "lower", MEM),
    layer("mem", "mem.translate_hit_ns", "ns", "lower", MEM),
    layer("mem", "mem.translate_miss_ns", "ns", "lower", MEM),
    layer("isa", "isa.decodes", "count", "lower", ISA),
    layer("isa", "isa.decode_ns", "ns", "lower", ISA),
    layer(
        "host",
        "host.cpu_util",
        "frac",
        "higher",
        "none: tells host preemption apart from a real slowdown",
    ),
    layer(
        "host",
        "trace.overhead_frac",
        "frac",
        "lower",
        "none: the cost of the traced run's spans",
    ),
];

fn metric_json(m: &Metric) -> String {
    let bound = m
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name, m.unit, m.better
    )
}

/// The `BENCHMARK.json` this registry defines.
pub fn benchmark_json(run_seconds: u32) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_json).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric_json).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The registry as a readable table: name, unit, better, layer, link.
pub fn describe() -> String {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| {
            let bound = m.bound.map_or(String::new(), |b| format!(" bound={b}"));
            format!(
                "{:<34} {:<10} {:<6} {:<10}{bound} -> {}\n",
                m.name, m.unit, m.better, m.layer, m.moves
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_generated_from_this_registry() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(crate::RUN_SECONDS),
            "regenerate with `--benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                all[i + 1..].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }
}
