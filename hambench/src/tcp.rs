//! `tcp_open_loop`: open loop from one generator thread. Seeded Poisson
//! arrivals at a fixed ladder of rates into a 2-target cluster-TCP
//! `TargetPool` (`replay_only` recovery, no faults, adaptive batching
//! with a 200 µs SLO). Mix: 90 % `echo` ≤256 B, 10 % `echo` of 16 KiB.
//!
//! The generator only submits; one harvester thread claims results with
//! `TargetPool::wait_any` (which blocks), so a slow completion never
//! delays the next arrival. Latency runs from each request's due time,
//! so a stall also counts against the requests queued behind it.

use crate::common::*;
use ham_aurora_repro::backend_tcp::TcpBackend;
use ham_aurora_repro::ham::f2f;
use ham_aurora_repro::sim_core::trace::TraceSession;
use ham_aurora_repro::workloads::kernels::{echo, register_all};
use ham_aurora_repro::{
    BatchConfig, FaultPlan, NodeId, Offload, PoolFuture, RecoveryPolicy, SchedPolicy, TargetPool,
    TargetSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rates (offloads per second), lowest first.
pub const LADDER: &[u64] = &[2000, 4000, 8000, 12000, 16000];
/// The rate `rtt_p50_us`, `rtt_p99_us`, `ops_per_s` and `cpu_ms_per_kop`
/// are read at: below the goodput of the host this was written on.
const REFERENCE_RATE: u64 = 4000;
/// Fresh clusters per run, each running one ascending pass over the
/// ladder; a rate's percentiles pool the samples of every pass.
const INSTANCES: usize = 10;
/// Time shares of the reference rate per pass (every other rate has one):
/// its pooled p99 needs the most samples.
const REFERENCE_WEIGHT: f64 = 3.0;
const SEQ_LEN: usize = 4096;
const TARGETS: usize = 2;
const WARMUP: usize = 256;
/// Ops of the flight-recorder pass of a traced run.
const TRACED_OPS: usize = 1024;

/// 90 % `echo` with sizes spread evenly over 8–256 B and 10 % `echo` of
/// 16 KiB; the seed orders the messages and fills the payloads.
fn generate(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed);
    let small = SEQ_LEN * 9 / 10;
    let mut msgs: Vec<Vec<u8>> = evenly(small, 8, 256)
        .into_iter()
        .map(|n| rng.bytes(n as usize))
        .collect();
    msgs.extend((small..SEQ_LEN).map(|_| rng.bytes(16 << 10)));
    rng.shuffle(&mut msgs);
    msgs
}

struct Cluster {
    o: Offload,
    backend: Arc<TcpBackend>,
    pool: TargetPool,
}

fn build(rep: &mut Report, msgs: &[Vec<u8>]) -> Cluster {
    let specs = [TargetSpec::default(); TARGETS];
    let backend = TcpBackend::spawn_cluster_batched(
        &specs,
        RecoveryPolicy::replay_only(3),
        BatchConfig::adaptive_up_to(16, 200),
        FaultPlan::none(),
        register_all,
    );
    let o = Offload::new(backend.clone());
    let pool = o
        .pool_with(&[NodeId(1), NodeId(2)], SchedPolicy::LeastLoaded)
        .expect("2-target pool");
    let futs: Vec<_> = msgs
        .iter()
        .take(WARMUP)
        .map(|m| pool.submit(f2f!(echo, m.clone())).expect("warm-up submit"))
        .collect();
    for r in pool.wait_all(futs) {
        r.expect("warm-up offload");
    }
    let data = &msgs[0];
    let ok = matches!(pool.get(pool.submit(f2f!(echo, data.clone())).expect("submit")), Ok(r) if r == *data);
    rep.op(ok);
    Cluster { o, backend, pool }
}

fn teardown(c: Cluster) {
    drop(c.pool);
    c.o.shutdown();
}

/// What one ladder rung measured.
struct Rung {
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    backlog: Vec<u64>,
    completed: u64,
    failed: u64,
    payload_bytes: u64,
    secs: f64,
    cpu_s: f64,
    virt_us: f64,
    delta: Delta,
}

impl Rung {
    /// Outstanding requests kept rising: the last quarter of the rung
    /// holds more than twice the second quarter's mean backlog.
    fn backlog_growing(&self) -> bool {
        let q = self.backlog.len() / 4;
        if q == 0 {
            return false;
        }
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        mean(&self.backlog[3 * q..]) > 2.0 * mean(&self.backlog[q..2 * q]) + 16.0
    }
}

/// A submitted arrival: its future, message index, due time and request
/// id (the arrival's number in the rung, shared by its spans).
struct Pending {
    fut: PoolFuture<Vec<u8>>,
    idx: usize,
    due: Instant,
    req: u64,
}

/// Claim results until the generator hangs up and nothing is pending.
fn harvester(
    pool: &TargetPool,
    msgs: &[Vec<u8>],
    rx: mpsc::Receiver<Pending>,
    done: &AtomicU64,
    log: &mut SpanLog,
) -> (Vec<f64>, u64) {
    let mut futs: Vec<PoolFuture<Vec<u8>>> = Vec::new();
    let mut meta: Vec<(usize, Instant, u64)> = Vec::new();
    let mut lat_us = Vec::new();
    let mut failed = 0u64;
    let mut open = true;
    loop {
        if futs.is_empty() {
            if !open {
                break;
            }
            match rx.recv() {
                Ok(p) => {
                    futs.push(p.fut);
                    meta.push((p.idx, p.due, p.req));
                }
                Err(_) => break,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(p) => {
                    futs.push(p.fut);
                    meta.push((p.idx, p.due, p.req));
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let w = log.begin("offload.sched:wait_any", 0, 0);
        let ready = pool.wait_any(&mut futs);
        log.end(w);
        let Some(i) = ready else { continue };
        let fut = futs.swap_remove(i);
        let (idx, due, req) = meta.swap_remove(i);
        let g = log.begin("offload.sched:get", 0, req);
        let res = pool.get(fut);
        log.end(g);
        let now = Instant::now();
        let v = log.begin("bench:verify", 0, req);
        let ok = matches!(&res, Ok(r) if *r == msgs[idx]);
        log.end(v);
        if !ok {
            failed += 1;
        }
        lat_us.push((now - due).as_secs_f64() * 1e6);
        done.fetch_add(1, Ordering::Relaxed);
    }
    (lat_us, failed)
}

/// Offer `rate` Poisson arrivals for `secs`, then wait for the last
/// result.
fn rung(
    c: &Cluster,
    msgs: &[Vec<u8>],
    seed: u64,
    rate: u64,
    secs: f64,
    gen_log: &mut SpanLog,
    harv_log: &mut SpanLog,
) -> Rung {
    let mut rng = Rng::new(seed ^ rate.wrapping_mul(0x9E37_79B9));
    let done = AtomicU64::new(0);
    let before = c.o.metrics_snapshot();
    let v0 = virt_now_us(&c.o);
    let w = Window::start();
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut late_us = Vec::new();
    let mut backlog = Vec::new();
    let mut submit_failed = 0u64;
    let mut payload_bytes = 0u64;
    let (lat_us, harvest_failed) = std::thread::scope(|s| {
        let h = s.spawn(|| harvester(&c.pool, msgs, rx, &done, harv_log));
        let start = Instant::now() + Duration::from_millis(1);
        let end = start + Duration::from_secs_f64(secs);
        let mut due = start;
        let mut k = 0usize;
        loop {
            due += Duration::from_secs_f64(-(1.0 - rng.unit()).ln() / rate as f64);
            if due >= end {
                break;
            }
            let idx = k % msgs.len();
            k += 1;
            let msg = f2f!(echo, msgs[idx].clone());
            wait_until(due);
            late_us.push(due.elapsed().as_secs_f64() * 1e6);
            backlog.push(k as u64 - 1 - done.load(Ordering::Relaxed));
            let req = gen_log.next_req();
            let sp = gen_log.begin("offload.sched:submit", 0, req);
            let f = c.pool.submit(msg);
            gen_log.end(sp);
            payload_bytes += msgs[idx].len() as u64;
            match f {
                Ok(fut) => tx
                    .send(Pending { fut, idx, due, req })
                    .expect("harvester alive"),
                Err(_) => submit_failed += 1,
            }
        }
        drop(tx);
        h.join().expect("harvester thread")
    });
    let (_, cpu_s) = w.stop();
    Rung {
        completed: lat_us.len() as u64,
        lat_us,
        late_us,
        backlog,
        failed: submit_failed + harvest_failed,
        payload_bytes,
        secs,
        cpu_s,
        virt_us: virt_now_us(&c.o) - v0,
        delta: Delta {
            before,
            after: c.o.metrics_snapshot(),
        },
    }
}

/// Every pass of one ladder rate.
struct RateResult {
    rate: u64,
    passes: Vec<Rung>,
}

impl RateResult {
    /// Latency percentile over every pass's samples.
    fn pooled(&self, p: f64) -> f64 {
        let mut all: Vec<f64> = self
            .passes
            .iter()
            .flat_map(|r| r.lat_us.iter().copied())
            .collect();
        percentile(&mut all, p)
    }

    /// The generator kept to the schedule: lateness p99 over every pass
    /// within the latency limit.
    fn valid(&self) -> bool {
        self.late_p99_us() <= LATENCY_LIMIT_US
    }

    /// Most passes saw the backlog grow.
    fn growing(&self) -> bool {
        2 * self.passes.iter().filter(|r| r.backlog_growing()).count() > self.passes.len()
    }

    fn completed_per_s(&self) -> f64 {
        let done: u64 = self.passes.iter().map(|r| r.completed).sum();
        let secs: f64 = self.passes.iter().map(|r| r.secs).sum();
        done as f64 / secs
    }

    fn late_p99_us(&self) -> f64 {
        let mut all: Vec<f64> = self
            .passes
            .iter()
            .flat_map(|r| r.late_us.iter().copied())
            .collect();
        percentile(&mut all, 99.0)
    }

    fn backlog_max(&self) -> u64 {
        self.passes
            .iter()
            .flat_map(|r| r.backlog.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// One ascending pass over the ladder in `secs`: the reference rate
/// gets `REFERENCE_WEIGHT` time shares, every other rate one.
fn pass(
    c: &Cluster,
    msgs: &[Vec<u8>],
    seed: u64,
    secs: f64,
    gen_log: &mut SpanLog,
    harv_log: &mut SpanLog,
    rep: &mut Report,
) -> Vec<Rung> {
    let share = secs / ((LADDER.len() - 1) as f64 + REFERENCE_WEIGHT);
    LADDER
        .iter()
        .map(|&rate| {
            let weight = if rate == REFERENCE_RATE {
                REFERENCE_WEIGHT
            } else {
                1.0
            };
            let r = rung(c, msgs, seed, rate, share * weight, gen_log, harv_log);
            rep.attempted += r.late_us.len() as u64;
            rep.failed += r.failed;
            r
        })
        .collect()
}

/// Regroup per-instance passes by rate and print one line per rate.
fn by_rate(passes: Vec<Vec<Rung>>) -> Vec<RateResult> {
    let mut results: Vec<RateResult> = LADDER
        .iter()
        .map(|&rate| RateResult {
            rate,
            passes: Vec::new(),
        })
        .collect();
    for p in passes {
        for (res, r) in results.iter_mut().zip(p) {
            res.passes.push(r);
        }
    }
    for res in results.iter_mut() {
        let (valid, growing, p50, p99) = (
            res.valid(),
            res.growing(),
            res.pooled(50.0),
            res.pooled(99.0),
        );
        println!(
            "rate {:>6}/s: {:>6} done ({:.1}/s), p50 {:>8.1} us, p99 {:>8.1} us ({} passes), late p99 {:>8.1} us, backlog max {:>4}: {}",
            res.rate,
            res.passes.iter().map(|r| r.completed).sum::<u64>(),
            res.completed_per_s(),
            p50,
            p99,
            res.passes.len(),
            res.late_p99_us(),
            res.backlog_max(),
            if !valid {
                "INVALID (generator behind schedule)"
            } else if growing {
                "backlog growing"
            } else if p99 > LATENCY_LIMIT_US {
                "over the latency limit"
            } else {
                "ok"
            }
        );
    }
    results
}

/// Completions per second at the highest valid rate whose p99 meets the
/// limit without a growing backlog or a failed offload (0 if none does).
fn goodput(results: &mut [RateResult]) -> f64 {
    let mut best = 0.0;
    for r in results.iter_mut() {
        let failed: u64 = r.passes.iter().map(|p| p.failed).sum();
        if r.valid() && !r.growing() && failed == 0 && r.pooled(99.0) <= LATENCY_LIMIT_US {
            best = r.completed_per_s();
        }
    }
    best
}

fn reference(results: &mut [RateResult]) -> &mut RateResult {
    results
        .iter_mut()
        .find(|r| r.rate == REFERENCE_RATE)
        .expect("reference rate is on the ladder")
}

/// Median `sync` RTT of an idle target and median `probe()` RTT (µs).
fn idle_probes(c: &Cluster, msgs: &[Vec<u8>], rep: &mut Report) -> (f64, f64) {
    let mut rtt = Vec::new();
    for m in msgs.iter().filter(|m| m.len() <= 256).take(200) {
        let t0 = Instant::now();
        let ok = matches!(c.o.sync(NodeId(1), f2f!(echo, m.clone())), Ok(r) if r == *m);
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
        rep.op(ok);
    }
    let mut probe = Vec::new();
    for i in 0..100 {
        let t0 = Instant::now();
        let ok = c.backend.probe(NodeId(1 + (i % TARGETS) as u16)).is_ok();
        probe.push(t0.elapsed().as_secs_f64() * 1e6);
        rep.op(ok);
    }
    (median(&mut rtt), median(&mut probe))
}

/// What one instance measured: one untraced ladder pass, and in a
/// traced run one traced pass.
struct Inst {
    plain: Vec<Rung>,
    traced: Option<Vec<Rung>>,
}

pub fn run(args: &Args, rep: &mut Report) {
    let msgs = generate(args.seed);
    let base = Instant::now();
    let (mut gen_log, mut harv_log) = if args.trace {
        let gen_log = SpanLog::on(base, 0);
        let harv_log = gen_log.sibling(1 << 30);
        (gen_log, harv_log)
    } else {
        (SpanLog::off(), SpanLog::off())
    };
    let secs = args.seconds / INSTANCES as f64 / if args.trace { 2.0 } else { 1.0 };
    let mut idle = Vec::new();
    let insts = per_instance(
        rep,
        INSTANCES,
        |rep| build(rep, &msgs),
        |i, c, rep| {
            if args.trace && i == 0 {
                // Flight recorder over a fixed batch of pooled offloads.
                let session = TraceSession::start();
                let futs: Vec<_> = msgs
                    .iter()
                    .take(TRACED_OPS)
                    .map(|m| c.pool.submit(f2f!(echo, m.clone())))
                    .collect();
                let futs: Vec<_> = futs.into_iter().filter_map(|f| f.ok()).collect();
                let res = c.pool.wait_all(futs);
                for (r, m) in res.iter().zip(&msgs) {
                    rep.op(matches!(r, Ok(x) if x == m));
                }
                engine_busy(session, TRACED_OPS as u64, rep);
            }
            idle.push(idle_probes(c, &msgs, rep));
            let seed = args.seed ^ (i as u64) << 48;
            let (mut off_g, mut off_h) = (SpanLog::off(), SpanLog::off());
            let plain = pass(c, &msgs, seed, secs, &mut off_g, &mut off_h, rep);
            let traced = args
                .trace
                .then(|| pass(c, &msgs, seed, secs, &mut gen_log, &mut harv_log, rep));
            Inst { plain, traced }
        },
        teardown,
    );
    rep.set("tcp.idle_rtt_us", med(&idle, |x| x.0));
    rep.set("tcp.probe_rtt_us", med(&idle, |x| x.1));

    let (plain, traced): (Vec<_>, Vec<_>) = insts.into_iter().map(|x| (x.plain, x.traced)).unzip();
    let mut results = by_rate(plain);
    let good = goodput(&mut results);
    println!("goodput: {good:.1} offloads/s (p99 limit {LATENCY_LIMIT_US} us)");
    for r in results.iter_mut() {
        // A rate at which the generator fell behind reports no latency.
        let valid = r.valid();
        let (p50, p99) = (r.pooled(50.0), r.pooled(99.0));
        rep.set(
            format!("tcp.p50_us.r{}", r.rate),
            if valid { p50 } else { -1.0 },
        );
        rep.set(
            format!("tcp.p99_us.r{}", r.rate),
            if valid { p99 } else { -1.0 },
        );
    }
    let refr = reference(&mut results);
    if !refr.valid() {
        // Host stalls, not wrong results: the numbers stand, flagged.
        println!("warning: the generator fell behind at the reference rate {REFERENCE_RATE}/s");
    }
    rep.set("gen.late_p99_us", refr.late_p99_us());
    rep.set("gen.backlog_max", refr.backlog_max() as f64);

    // End-to-end numbers at the reference rate: latency percentiles over
    // every pass's samples, the rest medians over passes.
    let (p50, p99) = (refr.pooled(50.0), refr.pooled(99.0));
    rep.set("goodput_ops_s", good);
    rep.set("rtt_p50_us", p50);
    rep.set("rtt_p99_us", p99);
    for (i, p) in refr.passes.iter().enumerate() {
        println!(
            "reference pass {i}: {} latency samples ({} beyond p99), {:.3} cpu s",
            p.completed,
            p.completed / 100,
            p.cpu_s
        );
    }
    let passes = &refr.passes;
    rep.set("ops_per_s", med(passes, |p| p.completed as f64 / p.secs));
    rep.set(
        "cpu_ms_per_kop",
        med(passes, |p| p.cpu_s * 1e6 / p.completed as f64),
    );
    rep.set("rtt_virt_us", med(passes, |p| p.delta.virt_latency_us()));
    rep.set(
        "virt_us_per_op",
        med(passes, |p| p.virt_us / p.completed as f64),
    );
    // Echo returns its payload: the same bytes travel each way.
    let gib = |p: &Rung| p.payload_bytes as f64 / (1u64 << 30) as f64;
    rep.set("put_gib_s", med(passes, |p| gib(p) / p.secs));
    rep.set("get_gib_s", med(passes, |p| gib(p) / p.secs));
    rep.set(
        "put_virt_gib_s",
        med(passes, |p| gib(p) / (p.virt_us * 1e-6)),
    );
    rep.set(
        "get_virt_gib_s",
        med(passes, |p| gib(p) / (p.virt_us * 1e-6)),
    );

    if args.trace {
        let mut codec_log = gen_log.sibling(CODEC_SPAN_IDS);
        for m in &msgs {
            codec_spans(&mut codec_log, &f2f!(echo, m.clone()));
        }
        let traced: Vec<Vec<Rung>> = traced.into_iter().flatten().collect();
        let stats = write_trace(args, "tcp_open_loop", vec![gen_log, harv_log, codec_log]);
        report_calls(rep, &stats);
        let mut tres = by_rate(traced);
        let tref = reference(&mut tres);
        let last = tref.passes.last().expect("one pass at least");
        last.delta.report_layers(rep, last.virt_us);
        let mean_lat = |r: &RateResult| {
            mean(
                &r.passes
                    .iter()
                    .flat_map(|p| p.lat_us.iter().copied())
                    .collect::<Vec<_>>(),
            )
        };
        rep.set(
            "trace.overhead_pct",
            overhead_pct(mean_lat(reference(&mut results)), mean_lat(tref)),
        );
    }
}
