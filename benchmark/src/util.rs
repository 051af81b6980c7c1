//! Shared plumbing: timed repetition, robust statistics, the simulated
//! output digest, host resource probes and the in-memory span recorder.

use camo_cpu::CpuStats;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed repetition of a workload's unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Ops the rep attempted (simulated calls or tenant ops).
    pub ops: u64,
    /// Simulated instructions retired.
    pub insns: u64,
    /// Host wall seconds.
    pub wall: f64,
    /// Digest of the rep's simulated output; `None` if it errored.
    pub digest: Option<u64>,
}

impl Rep {
    /// Simulated instructions per host wall second.
    pub fn rate(&self) -> f64 {
        self.insns as f64 / self.wall.max(1e-12)
    }
}

/// Runs `rep` back to back until `seconds` of wall time have passed, and
/// at least `min_reps` times.
pub fn repeat<T>(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep());
    }
    reps
}

/// Spreads set-ups evenly through a timed window: other tenants of a
/// shared host come and go over seconds, so set-ups done back to back
/// would all land in one of their moods.
pub struct SetupSchedule {
    start: Instant,
    interval: f64,
    next: f64,
    left: usize,
}

impl SetupSchedule {
    /// `count` set-ups over `seconds`, the first half an interval in.
    pub fn new(seconds: f64, count: usize) -> SetupSchedule {
        let interval = seconds / count.max(1) as f64;
        SetupSchedule {
            start: Instant::now(),
            interval,
            next: interval / 2.0,
            left: count,
        }
    }

    /// Whether a set-up is due now (and, if so, books it).
    pub fn due(&mut self) -> bool {
        if self.left == 0 || self.start.elapsed().as_secs_f64() < self.next {
            return false;
        }
        self.left -= 1;
        self.next += self.interval;
        true
    }
}

/// The value at quantile `q` of `values` (nearest rank, rounded).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get((v.len().saturating_sub(1) as f64 * q).round() as usize)
        .copied()
        .unwrap_or(f64::NAN)
}

/// The throughput of a set of reps: the rate of the third-fastest rep.
/// Other tenants of a shared host only ever slow a rep down, and on a
/// 2-vCPU host they can halve its speed for minutes, leaving the program
/// its own speed in only a few percent of the reps; the top of the
/// distribution reads that speed, where the median and even the 95th
/// percentile swing with the neighbours. Two reps may beat it, so no
/// single rep sets it.
pub fn throughput(reps: &[Rep]) -> f64 {
    let mut rates: Vec<f64> = reps.iter().map(Rep::rate).collect();
    rates.sort_by(f64::total_cmp);
    rates
        .get(rates.len().saturating_sub(3))
        .copied()
        .unwrap_or(f64::NAN)
}

/// The set-up time of a run: the 10th percentile of its set-ups, the
/// counterpart of [`throughput`] for a time.
pub fn setup_time(setups: &[f64]) -> f64 {
    quantile(setups, 0.10)
}

/// Ops of `reps` whose digest is missing or differs from `reference`.
pub fn failed_ops(reps: &[Rep], reference: Option<u64>) -> u64 {
    reps.iter()
        .filter(|r| reference.is_none() || r.digest != reference)
        .map(|r| r.ops)
        .sum()
}

/// `num / den`, or `None` when nothing was counted.
pub fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// The architectural counters of [`CpuStats::arch_eq`]: the fields every
/// engine and cache setting must reproduce exactly.
pub fn arch_fields(s: &CpuStats) -> [u64; 9] {
    [
        s.instructions,
        s.pac_signs,
        s.pac_auth_ok,
        s.pac_auth_fail,
        s.pac_auth_fail_instr,
        s.pac_auth_fail_data,
        s.key_writes,
        s.exceptions,
        s.ipis,
    ]
}

/// FNV-1a over the simulated outputs of a rep.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn word(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn words(&mut self, vs: &[u64]) -> &mut Digest {
        for &v in vs {
            self.word(v);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User + system CPU seconds of this process, all threads (Linux
/// `/proc/self/stat`, in clock ticks of 1/100 s).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // After the command name: state is field 3, utime 14, stime 15.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Wall and CPU time of one phase, for `host.cpu_util`.
pub struct Phase {
    start: Instant,
    cpu0: f64,
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            start: Instant::now(),
            cpu0: cpu_secs(),
        }
    }

    /// Process CPU seconds ÷ (wall seconds × `threads`) since `start`.
    pub fn cpu_util(&self, threads: usize) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        (cpu_secs() - self.cpu0) / (wall * threads as f64).max(1e-12)
    }
}

/// One recorded span: a call into a layer's public function, timed from
/// the benchmark's side of the boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Id of the span that caused this one (0 = none).
    pub parent: u32,
    /// Per-name detail: the tenant index, or instructions retired.
    pub tag: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory and written out once, when the benchmark ends.
/// A disabled tracer reads no clock and records nothing, so one code path
/// serves both arms of the tracing-overhead comparison.
pub struct Tracer {
    origin: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a span that others will name as parent; close it with
    /// [`Tracer::close`]. Returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, tag: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            tag,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.dur_ns = now - span.start_ns;
    }

    /// Records a finished span that started at `start_ns`.
    pub fn record(&mut self, name: &'static str, parent: u32, tag: u64, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let dur_ns = self.now() - start_ns;
        self.spans.push(Span {
            name,
            parent,
            tag,
            start_ns,
            dur_ns,
        });
    }

    /// Total duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns, n + 1))
    }

    /// Writes every span as CSV (`id,parent,name,tag,start_ns,dur_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("id,parent,name,tag,start_ns,dur_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                i + 1,
                s.parent,
                s.name,
                s.tag,
                s.start_ns,
                s.dur_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
