//! Shared pieces of the workloads: the seeded input generator, sample
//! statistics, process counters, the span recorder used by traced runs,
//! and the metric report every workload fills.

use ham_aurora_repro::ham::codec;
use ham_aurora_repro::ham::serde::{de::DeserializeOwned, Serialize};
use ham_aurora_repro::sim_core::stats::Histogram;
use ham_aurora_repro::sim_core::trace::{sim_events, TraceSession};
use ham_aurora_repro::{MetricsSnapshot, Offload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The open-loop latency limit: a rate counts towards `goodput_ops_s`
/// only with its p99 within it, and the generator is behind schedule
/// when its lateness p99 exceeds it.
pub const LATENCY_LIMIT_US: f64 = 1000.0;

/// Fresh instances that run the exact simulated pass (and compare its
/// digest); the traced run arms the flight recorder on the first.
pub const EXACT_INSTANCES: usize = 3;

/// First span id of the log that times the codec (thread logs start at
/// 0 and `1 << 30`).
pub const CODEC_SPAN_IDS: u32 = 3 << 30;

/// Span-record cap of a traced run, so memory stays bounded however fast
/// the host is. Spans past the cap are counted, not kept.
pub const SPAN_CAP: usize = 400_000;

/// Command-line arguments shared by every workload.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// SplitMix64: small, seedable and identical on every platform, so one
/// seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffle in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n + 8);
        while v.len() < n {
            v.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        v.truncate(n);
        v
    }
}

/// `n` values spread evenly over `lo..=hi`. Workloads draw their sizes
/// from such fixed sets, so every seed offers the same work and only its
/// order and bytes change.
pub fn evenly(n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let steps = (n.max(2) - 1) as u64;
    (0..n as u64).map(|i| lo + (hi - lo) * i / steps).collect()
}

/// Nearest-rank percentile (`p` in percent) of unsorted samples.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// User + system CPU of the whole process (every thread), in seconds.
/// `/proc` reports it in `USER_HZ` ticks, which Linux fixes at 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat command name") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// When a measured loop stops: after a fixed number of operations (the
/// exact pass, warm-up) or at a wall-clock deadline (timed windows).
#[derive(Clone, Copy)]
pub enum Until {
    Ops(usize),
    Deadline(Instant),
}

impl Until {
    pub fn secs(secs: f64) -> Self {
        Until::Deadline(Instant::now() + Duration::from_secs_f64(secs))
    }

    /// Whether to go on after `done` operations.
    pub fn more(self, done: usize) -> bool {
        match self {
            Until::Ops(n) => done < n,
            Until::Deadline(t) => Instant::now() < t,
        }
    }
}

/// Wall clock and process CPU at the start of a measured window.
pub struct Window {
    wall: Instant,
    cpu: f64,
}

impl Window {
    pub fn start() -> Self {
        Window {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, cpu seconds)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

/// Change of the backend registers over a measured window.
pub struct Delta {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl Delta {
    pub fn frames(&self) -> u64 {
        self.after.frames_sent - self.before.frames_sent
    }
    pub fn msgs(&self) -> u64 {
        self.after.msgs_sent - self.before.msgs_sent
    }
    pub fn polls(&self) -> u64 {
        self.after.polls - self.before.polls
    }
    pub fn retries(&self) -> u64 {
        self.after.retries - self.before.retries
    }
    pub fn flush_hist(&self) -> Histogram {
        let mut b = [0u64; 64];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = self.after.flush_hist.buckets()[i] - self.before.flush_hist.buckets()[i];
        }
        Histogram::from_buckets(b)
    }
    /// Mean simulated completion latency (µs) of the offloads retired in
    /// the window.
    pub fn virt_latency_us(&self) -> f64 {
        let (a, b) = (&self.after.latency, &self.before.latency);
        let n = a.count() - b.count();
        if n == 0 {
            return 0.0;
        }
        // The registers record nanoseconds.
        (a.mean() * a.count() as f64 - b.mean() * b.count() as f64) / n as f64 / 1000.0
    }

    /// The channel-, device- and recovery-layer metrics every workload
    /// reports from its traced window.
    pub fn report_layers(&self, rep: &mut Report, virt_elapsed_us: f64) {
        let (a, b) = (&self.after, &self.before);
        if self.frames() > 0 {
            rep.set(
                "chan.msgs_per_frame",
                self.msgs() as f64 / self.frames() as f64,
            );
        }
        if self.polls() > 0 {
            rep.set(
                "chan.poll_miss_ratio",
                self.retries() as f64 / self.polls() as f64,
            );
        }
        let flush = self.flush_hist();
        if let Some(p99) = flush.percentile(99.0) {
            rep.set("chan.flush_p99_virt_us", p99.as_us_f64());
        }
        rep.set(
            "chan.slo_flushes",
            (a.batch_slo_flushes - b.batch_slo_flushes) as f64,
        );
        rep.set("chan.widens", (a.batch_widens - b.batch_widens) as f64);
        rep.set("chan.narrows", (a.batch_narrows - b.batch_narrows) as f64);
        rep.set("chan.resends", (a.resends - b.resends) as f64);
        rep.set("chan.timeouts", (a.timeouts - b.timeouts) as f64);
        rep.set("sched.inflight_peak", a.inflight_peak as f64);
        rep.set("tcp.reconnects", (a.reconnects - b.reconnects) as f64);
        rep.set(
            "tcp.replayed_frames",
            (a.replayed_frames - b.replayed_frames) as f64,
        );
        rep.set("device.steals", (a.steals - b.steals) as f64);
        // Lane registers are cumulative per lane index.
        let busy: Vec<f64> = a
            .lanes
            .iter()
            .map(|l| {
                let before = b
                    .lanes
                    .iter()
                    .find(|x| x.lane == l.lane)
                    .map_or(0, |x| x.busy_ps);
                (l.busy_ps - before) as f64
            })
            .filter(|&ps| ps > 0.0)
            .collect();
        if !busy.is_empty() && virt_elapsed_us > 0.0 {
            let total: f64 = busy.iter().sum();
            rep.set(
                "device.lane_util",
                total / 1e6 / (busy.len() as f64 * virt_elapsed_us),
            );
            let max = busy.iter().copied().fold(f64::MIN, f64::max);
            let min = busy.iter().copied().fold(f64::MAX, f64::min);
            rep.set("device.lane_busy_skew", max / min);
        }
    }
}

/// The simulated clock of the host side of `offload`, in µs.
pub fn virt_now_us(offload: &Offload) -> f64 {
    offload.backend().host_clock().now().as_us_f64()
}

/// The simulated clock in picoseconds (exact, for digests).
pub fn virt_now_ps(offload: &Offload) -> u64 {
    offload.backend().host_clock().now().as_ps()
}

/// One timed public call of the benchmark.
struct Span {
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder of one thread. Off, `begin`/`end` do nothing
/// and read no clock, so untraced runs pay one branch per call.
pub struct SpanLog {
    on: bool,
    base: Instant,
    id_base: u32,
    spans: Vec<Span>,
    dropped: u64,
    reqs: u64,
}

impl SpanLog {
    pub fn off() -> Self {
        SpanLog {
            on: false,
            base: Instant::now(),
            id_base: 0,
            spans: Vec::new(),
            dropped: 0,
            reqs: 0,
        }
    }

    /// A recording log; logs of different threads share `base` and use
    /// disjoint `id_base`s so their span ids never collide.
    pub fn on(base: Instant, id_base: u32) -> Self {
        SpanLog {
            on: true,
            base,
            id_base,
            spans: Vec::with_capacity(SPAN_CAP.min(1 << 16)),
            dropped: 0,
            reqs: 0,
        }
    }

    /// A fresh request id for the spans of one offload (or step).
    pub fn next_req(&mut self) -> u64 {
        self.reqs += 1;
        self.reqs
    }

    /// Open a span named `layer:call`; returns its id (0 when off).
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.on {
            return 0;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return 0;
        }
        let id = self.id_base + self.spans.len() as u32 + 1;
        let start_ns = self.base.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let end_ns = self.base.elapsed().as_nanos() as u64;
        self.spans[(id - self.id_base - 1) as usize].end_ns = end_ns;
    }

    /// A log on the same time base for another thread or purpose.
    pub fn sibling(&self, id_base: u32) -> SpanLog {
        SpanLog::on(self.base, id_base)
    }
}

/// Per-call-name totals of a span set: calls, total and self time.
pub struct CallStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Total length covered by a set of `[start, end)` intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    covered + cur.map_or(0, |(a, b)| b - a)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (the union of their intervals, clipped to the parent).
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, CallStats> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, CallStats> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let mut kids: Vec<(u64, u64)> = children
            .get(&s.id)
            .map_or(&[][..], |k| &k[..])
            .iter()
            .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        let covered = union_len(&mut kids);
        let e = out.entry(s.name).or_insert(CallStats {
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        e.calls += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

/// Write the spans (CSV) and the per-layer self-time table of a traced
/// run into `out_dir`, print the table, and return the per-call stats.
/// The table gives each layer's share of all recorded self time, which
/// stays meaningful when the span cap cut the recording short.
pub fn write_trace(
    args: &Args,
    workload: &str,
    logs: Vec<SpanLog>,
) -> BTreeMap<&'static str, CallStats> {
    let dropped: u64 = logs.iter().map(|l| l.dropped).sum();
    let spans: Vec<Span> = logs.into_iter().flat_map(|l| l.spans).collect();
    let stats = self_times(&spans);
    let mut csv = String::from("id,parent,req,name,start_ns,end_ns\n");
    for s in &spans {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    // Layer = the part of the span name before ':'.
    let mut layers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (name, c) in &stats {
        let layer = name.split(':').next().unwrap_or(name);
        let e = layers.entry(layer).or_default();
        e.0 += c.calls;
        e.1 += c.self_ns;
    }
    let all_self = layers.values().map(|l| l.1).sum::<u64>().max(1) as f64;
    let mut table = format!(
        "# per-layer self time, {workload}, {} spans ({dropped} past the cap)\n",
        spans.len()
    );
    let _ = writeln!(
        table,
        "{:<28} {:>10} {:>14} {:>14}",
        "layer", "calls", "self_share_%", "self_ns/call"
    );
    for (layer, (calls, self_ns)) in &layers {
        let _ = writeln!(
            table,
            "{:<28} {:>10} {:>14.2} {:>14.1}",
            layer,
            calls,
            *self_ns as f64 * 100.0 / all_self,
            *self_ns as f64 / (*calls).max(1) as f64
        );
    }
    let _ = writeln!(
        table,
        "{:<28} {:>10} {:>14} {:>14}",
        "call", "calls", "total_ns/call", "self_ns/call"
    );
    for (name, c) in &stats {
        let _ = writeln!(
            table,
            "{:<28} {:>10} {:>14.1} {:>14.1}",
            name,
            c.calls,
            c.total_ns as f64 / c.calls.max(1) as f64,
            c.self_ns as f64 / c.calls.max(1) as f64
        );
    }
    print!("{table}");
    std::fs::create_dir_all(&args.out_dir).expect("create trace output directory");
    let file = |ext: &str| {
        args.out_dir
            .join(format!("{workload}.seed{}.{ext}", args.seed))
    };
    std::fs::write(file("spans.csv"), csv).expect("write span file");
    std::fs::write(file("layers.txt"), table).expect("write layer table");
    println!(
        "trace files: {} and {}",
        file("spans.csv").display(),
        file("layers.txt").display()
    );
    stats
}

/// Mean duration in ns of the calls named `name`, if any were made.
pub fn mean_call_ns(stats: &BTreeMap<&'static str, CallStats>, name: &str) -> Option<f64> {
    stats
        .get(name)
        .filter(|c| c.calls > 0)
        .map(|c| c.total_ns as f64 / c.calls as f64)
}

/// Time the public codec on one of the workload's messages: an encode
/// span and a decode span sharing a request id.
pub fn codec_spans<M: Serialize + DeserializeOwned>(log: &mut SpanLog, msg: &M) {
    let req = log.next_req();
    let e = log.begin("ham:encode", 0, req);
    let bytes = codec::encode(msg).expect("encode a workload message");
    log.end(e);
    let d = log.begin("ham:decode", 0, req);
    let _ = std::hint::black_box(codec::decode::<M>(&bytes));
    log.end(d);
}

/// Mean duration of the runtime, scheduler and codec calls the spans
/// timed.
pub fn report_calls(rep: &mut Report, stats: &BTreeMap<&'static str, CallStats>) {
    for (call, metric) in [
        ("ham:encode", "ham.encode_ns"),
        ("ham:decode", "ham.decode_ns"),
        ("offload.runtime:async_", "runtime.async_ns"),
        ("offload.runtime:get", "runtime.get_ns"),
        ("offload.sched:submit", "sched.submit_ns"),
        ("offload.sched:wait_all", "sched.wait_all_ns"),
    ] {
        if let Some(ns) = mean_call_ns(stats, call) {
            rep.set(metric, ns);
        }
    }
}

/// Share (%) by which the traced per-op cost exceeds the untraced one.
pub fn overhead_pct(plain: f64, traced: f64) -> f64 {
    (traced - plain) / plain * 100.0
}

/// Per-engine simulated busy time (µs per offload) of the flight
/// recorder's capture, plus the mean length of each offload's covered
/// timeline (the union of its spans: the critical path the engines
/// leave once their overlap is removed).
pub fn engine_busy(trace: TraceSession, ops: u64, rep: &mut Report) {
    let events = sim_events(&trace.finish());
    let ops = ops.max(1) as f64;
    let mut busy: BTreeMap<&str, u64> = BTreeMap::new();
    let mut per_offload: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in &events {
        *busy.entry(e.engine()).or_default() += e.duration().as_ps();
        if e.offload != 0 {
            per_offload
                .entry(e.offload)
                .or_default()
                .push((e.start.as_ps(), e.end.as_ps()));
        }
    }
    for (engine, ps) in &busy {
        println!(
            "virt busy {engine:<10} {:>12.4} us/op",
            *ps as f64 / 1e6 / ops
        );
    }
    for (engine, metric) in [
        ("udma", "virt.udma_us_per_op"),
        ("lhm", "virt.lhm_us_per_op"),
        ("shm", "virt.shm_us_per_op"),
        ("ham", "virt.ham_us_per_op"),
        ("vh", "virt.vh_us_per_op"),
        ("pcie", "virt.pcie_us_per_op"),
        ("veo", "virt.veo_us_per_op"),
        ("chan", "virt.chan_us_per_op"),
    ] {
        rep.set(
            metric,
            busy.get(engine).copied().unwrap_or(0) as f64 / 1e6 / ops,
        );
    }
    // `ve.compute` is the kernel body; other `ve.*` phases are protocol.
    let compute: u64 = events
        .iter()
        .filter(|e| e.category == "ve.compute")
        .map(|e| e.duration().as_ps())
        .sum();
    rep.set("virt.ve_compute_us_per_op", compute as f64 / 1e6 / ops);
    if !per_offload.is_empty() {
        let covered: u64 = per_offload.values_mut().map(|iv| union_len(iv)).sum();
        rep.set(
            "virt.critical_path_us",
            covered as f64 / 1e6 / per_offload.len() as f64,
        );
    }
}

/// The metrics and checks of one run.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        println!("check {:<58} {}", what, if ok { "ok" } else { "FAILED" });
        if !ok {
            self.failed_checks.push(what);
        }
    }

    /// Count one attempted operation and whether it went wrong.
    #[inline]
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Build `n` fresh instances one after another, each torn down before
/// the next is built (so the peak RSS is that of one). `build` runs the
/// constructor up to the first verified offload after warm-up and is
/// timed for `setup_s` (the median); `each` then measures on the
/// instance. Host timings differ from instance to instance (thread
/// placement, memory layout), so workloads report the median over
/// instances.
pub fn per_instance<T, W>(
    rep: &mut Report,
    n: usize,
    mut build: impl FnMut(&mut Report) -> T,
    mut each: impl FnMut(usize, &T, &mut Report) -> W,
    teardown: impl Fn(T),
) -> Vec<W> {
    let mut times = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t0 = Instant::now();
        let inst = build(rep);
        times.push(t0.elapsed().as_secs_f64());
        out.push(each(i, &inst, rep));
        teardown(inst);
    }
    println!(
        "setup_s samples: {}",
        times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    rep.set("setup_s", median(&mut times));
    out
}

/// Median over instances of one per-instance value.
pub fn med<W>(items: &[W], f: impl Fn(&W) -> f64) -> f64 {
    let mut v: Vec<f64> = items.iter().map(f).collect();
    median(&mut v)
}

/// Host-side summary of one closed-loop window.
pub struct Closed {
    pub ops: u64,
    pub wall_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub ops_per_s: f64,
    pub goodput_ops_s: f64,
    pub cpu_ms_per_kop: f64,
}

impl Closed {
    /// `lat_us` holds one latency per completed operation; `failed` of
    /// them returned a wrong result or an error.
    pub fn new(lat_us: &mut [f64], wall_s: f64, cpu_s: f64, failed: u64) -> Self {
        let n = lat_us.len() as f64;
        Closed {
            ops: lat_us.len() as u64,
            wall_s,
            p50_us: percentile(lat_us, 50.0),
            p99_us: percentile(lat_us, 99.0),
            ops_per_s: n / wall_s,
            // Closed loops have no arrival schedule: goodput is the rate
            // of verified results.
            goodput_ops_s: (n - failed as f64) / wall_s,
            cpu_ms_per_kop: cpu_s * 1000.0 / (n / 1000.0),
        }
    }

    pub fn wall_us_per_op(&self) -> f64 {
        self.wall_s * 1e6 / self.ops as f64
    }

    /// Print the per-instance values and report their medians.
    pub fn report(rep: &mut Report, windows: &[&Closed]) {
        for (i, w) in windows.iter().enumerate() {
            println!(
                "instance {i}: {} ops in {:.3} s, p50 {:.3} us, p99 {:.3} us ({} beyond it), {:.1} ops/s, {:.3} cpu ms/kop",
                w.ops,
                w.wall_s,
                w.p50_us,
                w.p99_us,
                w.ops / 100,
                w.ops_per_s,
                w.cpu_ms_per_kop
            );
        }
        rep.set("rtt_p50_us", med(windows, |w| w.p50_us));
        rep.set("rtt_p99_us", med(windows, |w| w.p99_us));
        rep.set("ops_per_s", med(windows, |w| w.ops_per_s));
        rep.set("goodput_ops_s", med(windows, |w| w.goodput_ops_s));
        rep.set("cpu_ms_per_kop", med(windows, |w| w.cpu_ms_per_kop));
    }
}

/// Wait for `deadline` (the open-loop generator's next arrival): sleep
/// through long gaps, yield through short ones, since a sleep wakes up
/// tens of microseconds late.
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}
