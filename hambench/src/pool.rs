//! `pool_pipelined_mixed`: closed loop, one client thread keeping 64
//! offloads in flight on a 2-VE `TargetPool` (`LeastLoaded`) over DMA
//! with adaptive batching (`adaptive_up_to(16, 200)`). Seeded mix: 70 %
//! `echo` ≤256 B, 20 % `echo` 1–16 KiB, 10 % `compute_burn`.
//!
//! Placement, credit admission, batching, the frame pool and the device
//! lanes do the work; the per-message round trip is amortised.

use crate::common::*;
use ham_aurora_repro::backend_dma::DmaBackend;
use ham_aurora_repro::ham::f2f;
use ham_aurora_repro::offload::ProtocolConfig;
use ham_aurora_repro::sim_core::trace::TraceSession;
use ham_aurora_repro::veos::{AuroraMachine, MachineConfig};
use ham_aurora_repro::workloads::kernels::{compute_burn, echo, register_all};
use ham_aurora_repro::{BatchConfig, NodeId, Offload, PoolFuture, SchedPolicy, TargetPool};
use std::collections::VecDeque;
use std::time::Instant;

const SEQ_LEN: usize = 4096;
const EXACT_OPS: usize = 4096;
/// Offloads in flight: `DEPTH / GROUP` groups of `GROUP`, the oldest
/// harvested with `wait_all` before the next is submitted.
const DEPTH: usize = 64;
const GROUP: usize = 16;
const WARMUP: usize = 256;
/// Fresh runtimes per run; host metrics are medians over them.
const INSTANCES: usize = 30;

enum Msg {
    Echo(Vec<u8>),
    Burn(u64),
}

/// 70 % `echo` of 8–256 B, 20 % `echo` of 1–16 KiB and 10 %
/// `compute_burn` of 10⁵–4·10⁶ flops, each class's sizes spread evenly;
/// the seed orders the messages and fills the payloads.
fn generate(seed: u64) -> Vec<Msg> {
    let mut rng = Rng::new(seed);
    let (small, large) = (SEQ_LEN * 7 / 10, SEQ_LEN * 2 / 10);
    let mut msgs: Vec<Msg> = Vec::with_capacity(SEQ_LEN);
    for n in evenly(small, 8, 256)
        .into_iter()
        .chain(evenly(large, 1024, 16 * 1024))
    {
        msgs.push(Msg::Echo(rng.bytes(n as usize)));
    }
    msgs.extend(
        evenly(SEQ_LEN - small - large, 100_000, 4_000_000)
            .into_iter()
            .map(Msg::Burn),
    );
    rng.shuffle(&mut msgs);
    msgs
}

/// One group of submitted offloads, split by result type.
struct Group {
    echos: Vec<(PoolFuture<Vec<u8>>, usize)>,
    burns: Vec<PoolFuture<u16>>,
    submitted: Instant,
    req: u64,
}

struct Pipe<'a> {
    pool: &'a TargetPool,
    msgs: &'a [Msg],
    next: usize,
    lat_us: Vec<f64>,
    payload_bytes: u64,
    resubmits: u64,
}

impl Pipe<'_> {
    fn submit_group(&mut self, log: &mut SpanLog, rep: &mut Report) -> Group {
        let req = log.next_req();
        // Submitting and claiming a group are separate roots sharing the
        // request id: in between, the group only waits behind the others.
        let root = log.begin("bench:submit_group", 0, req);
        let mut g = Group {
            echos: Vec::with_capacity(GROUP),
            burns: Vec::new(),
            submitted: Instant::now(),
            req,
        };
        for _ in 0..GROUP {
            let idx = self.next % self.msgs.len();
            self.next += 1;
            match &self.msgs[idx] {
                Msg::Echo(data) => {
                    let msg = f2f!(echo, data.clone());
                    let s = log.begin("offload.sched:submit", root, req);
                    let f = self.pool.submit(msg);
                    log.end(s);
                    match f {
                        Ok(f) => g.echos.push((f, idx)),
                        Err(_) => rep.op(false),
                    }
                    self.payload_bytes += data.len() as u64;
                }
                Msg::Burn(flops) => {
                    let s = log.begin("offload.sched:submit", root, req);
                    let f = self.pool.submit(f2f!(compute_burn, *flops));
                    log.end(s);
                    match f {
                        Ok(f) => g.burns.push(f),
                        Err(_) => rep.op(false),
                    }
                }
            }
        }
        log.end(root);
        g
    }

    /// Claim a group: the echoes with `wait_all`, the `compute_burn`s one
    /// at a time with `wait_any`, so each is checked against the target
    /// that served it (a rebalance may have moved it before it ran).
    fn harvest(&mut self, g: Group, log: &mut SpanLog, rep: &mut Report) {
        let req = g.req;
        self.resubmits += g
            .echos
            .iter()
            .map(|(f, _)| f.resubmits() as u64)
            .sum::<u64>()
            + g.burns.iter().map(|f| f.resubmits() as u64).sum::<u64>();
        let (echo_futs, idxs): (Vec<_>, Vec<_>) = g.echos.into_iter().unzip();
        let root = log.begin("bench:claim_group", 0, req);
        let w = log.begin("offload.sched:wait_all", root, req);
        let echo_res = self.pool.wait_all(echo_futs);
        log.end(w);
        let mut burns = g.burns;
        let mut burn_res = Vec::with_capacity(burns.len());
        while !burns.is_empty() {
            let w = log.begin("offload.sched:wait_any", root, req);
            let i = self
                .pool
                .wait_any(&mut burns)
                .expect("a pending compute_burn");
            log.end(w);
            let f = burns.swap_remove(i);
            let served = f.target();
            burn_res.push((self.pool.get(f), served));
        }
        let done = Instant::now();
        let v = log.begin("bench:verify", root, req);
        for (res, idx) in echo_res.iter().zip(&idxs) {
            let Msg::Echo(data) = &self.msgs[*idx] else {
                unreachable!("echo future built from an echo message")
            };
            rep.op(matches!(res, Ok(r) if r == data));
        }
        for (res, served) in &burn_res {
            rep.op(matches!(res, Ok(n) if *n == served.0));
        }
        log.end(v);
        log.end(root);
        let lat = (done - g.submitted).as_secs_f64() * 1e6;
        self.lat_us
            .extend(std::iter::repeat_n(lat, echo_res.len() + burn_res.len()));
    }

    /// Keep `DEPTH` in flight until `until` says stop, then drain.
    fn run(&mut self, until: Until, log: &mut SpanLog, rep: &mut Report) {
        let mut inflight: VecDeque<Group> = VecDeque::new();
        let mut submitted = 0usize;
        loop {
            if until.more(submitted) {
                while inflight.len() < DEPTH / GROUP {
                    inflight.push_back(self.submit_group(log, rep));
                    submitted += GROUP;
                }
            }
            match inflight.pop_front() {
                Some(g) => self.harvest(g, log, rep),
                None => break,
            }
        }
    }
}

/// Message slots sized for the 16 KiB echoes (the default is 4 KiB).
const MSG_BYTES: usize = 32 * 1024;

fn build(rep: &mut Report, msgs: &[Msg]) -> (Offload, TargetPool) {
    // The facade's `dma_offload_adaptive` machine, with larger slots.
    let machine = AuroraMachine::small(
        2,
        MachineConfig {
            hbm_bytes: 64 << 20,
            vh_bytes: 128 << 20,
            ..Default::default()
        },
    );
    let cfg = ProtocolConfig {
        msg_bytes: MSG_BYTES,
        ..ProtocolConfig::default()
    }
    .with_batch(BatchConfig::adaptive_up_to(16, 200));
    let o = Offload::new(DmaBackend::spawn(machine, 0, &[0, 1], cfg, register_all));
    let pool = o
        .pool_with(&[NodeId(1), NodeId(2)], SchedPolicy::LeastLoaded)
        .expect("2-VE pool");
    new_pipe(&pool, msgs).run(
        Until::Ops(WARMUP),
        &mut SpanLog::off(),
        &mut Report::default(),
    );
    let data = vec![7u8; 64];
    let ok = matches!(pool.get(pool.submit(f2f!(echo, data.clone())).expect("submit")), Ok(r) if r == data);
    rep.op(ok);
    (o, pool)
}

fn teardown((o, pool): (Offload, TargetPool)) {
    drop(pool);
    o.shutdown();
}

/// Simulated outcome of a fixed number of offloads.
#[derive(PartialEq, Debug)]
struct Digest {
    virt_ps: u64,
    frames: u64,
    msgs: u64,
}

/// What one instance measured.
struct Inst {
    digest: Option<Digest>,
    plain: Win,
    traced: Option<Win>,
}

pub fn run(args: &Args, rep: &mut Report) {
    let msgs = generate(args.seed);
    let mut log = if args.trace {
        SpanLog::on(Instant::now(), 0)
    } else {
        SpanLog::off()
    };
    let secs = args.seconds / INSTANCES as f64 / if args.trace { 2.0 } else { 1.0 };
    let insts = per_instance(
        rep,
        INSTANCES,
        |rep| build(rep, &msgs),
        |i, (o, pool), rep| {
            let digest = (i < EXACT_INSTANCES).then(|| {
                let session = (args.trace && i == 0).then(TraceSession::start);
                let before = o.metrics_snapshot();
                let v0 = virt_now_ps(o);
                let mut p = new_pipe(pool, &msgs);
                p.run(Until::Ops(EXACT_OPS), &mut SpanLog::off(), rep);
                let d = Delta {
                    before,
                    after: o.metrics_snapshot(),
                };
                if let Some(s) = session {
                    engine_busy(s, EXACT_OPS as u64, rep);
                }
                Digest {
                    virt_ps: virt_now_ps(o) - v0,
                    frames: d.frames(),
                    msgs: d.msgs(),
                }
            });
            let plain = window(o, pool, &msgs, secs, &mut SpanLog::off(), rep);
            let traced = args
                .trace
                .then(|| window(o, pool, &msgs, secs, &mut log, rep));
            Inst {
                digest,
                plain,
                traced,
            }
        },
        teardown,
    );
    let digests: Vec<&Digest> = insts.iter().filter_map(|x| x.digest.as_ref()).collect();
    for d in &digests {
        println!(
            "sim digest: ops {EXACT_OPS} virt_ps {} ({:.4} us/op) frames {} msgs {}",
            d.virt_ps,
            d.virt_ps as f64 / 1e6 / EXACT_OPS as f64,
            d.frames,
            d.msgs
        );
    }
    println!(
        "simulated statistics exact across instances: {}",
        if digests.iter().all(|d| *d == digests[0]) {
            "yes"
        } else {
            "no (bounded like host metrics)"
        }
    );

    let plain: Vec<&Closed> = insts.iter().map(|x| &x.plain.host).collect();
    Closed::report(rep, &plain);
    let gib = |w: &Win| w.payload_bytes as f64 / (1u64 << 30) as f64;
    // Echo returns its payload: the same bytes travel each way.
    rep.set(
        "put_gib_s",
        med(&insts, |x| gib(&x.plain) / x.plain.host.wall_s),
    );
    rep.set(
        "get_gib_s",
        med(&insts, |x| gib(&x.plain) / x.plain.host.wall_s),
    );
    // Simulated time of the windows: pipelined cost per offload, mean
    // completion latency and payload bandwidth.
    rep.set(
        "virt_us_per_op",
        med(&insts, |x| x.plain.virt_us / x.plain.host.ops as f64),
    );
    rep.set(
        "rtt_virt_us",
        med(&insts, |x| x.plain.delta.virt_latency_us()),
    );
    rep.set(
        "put_virt_gib_s",
        med(&insts, |x| gib(&x.plain) / (x.plain.virt_us * 1e-6)),
    );
    rep.set(
        "get_virt_gib_s",
        med(&insts, |x| gib(&x.plain) / (x.plain.virt_us * 1e-6)),
    );

    if args.trace {
        let mut codec_log = log.sibling(CODEC_SPAN_IDS);
        time_codec(&msgs, &mut codec_log);
        let traced: Vec<&Win> = insts.iter().filter_map(|x| x.traced.as_ref()).collect();
        let stats = write_trace(args, "pool_pipelined_mixed", vec![log, codec_log]);
        report_calls(rep, &stats);
        let last = traced.last().expect("traced windows");
        last.delta.report_layers(rep, last.virt_us);
        rep.set(
            "sched.resubmits",
            traced.iter().map(|w| w.resubmits).sum::<u64>() as f64,
        );
        let t = &last.per_target;
        println!("per-target completions: {t:?}");
        let (max, min) = (
            t.iter().max().copied().unwrap_or(0),
            t.iter().min().copied().unwrap_or(0),
        );
        rep.set("sched.target_share_skew", max as f64 / min.max(1) as f64);
        rep.set(
            "trace.overhead_pct",
            overhead_pct(
                med(&insts, |x| x.plain.host.wall_us_per_op()),
                med(&traced, |w| w.host.wall_us_per_op()),
            ),
        );
    }
}

fn new_pipe<'a>(pool: &'a TargetPool, msgs: &'a [Msg]) -> Pipe<'a> {
    Pipe {
        pool,
        msgs,
        next: 0,
        lat_us: Vec::with_capacity(1 << 20),
        payload_bytes: 0,
        resubmits: 0,
    }
}

/// One timed window: host summary plus the register deltas.
struct Win {
    host: Closed,
    payload_bytes: u64,
    resubmits: u64,
    /// Offloads each target completed in the window.
    per_target: Vec<u64>,
    virt_us: f64,
    delta: Delta,
}

fn window(
    o: &Offload,
    pool: &TargetPool,
    msgs: &[Msg],
    secs: f64,
    log: &mut SpanLog,
    rep: &mut Report,
) -> Win {
    let failed_before = rep.failed;
    let before = o.metrics_snapshot();
    let targets_before = pool.metrics_snapshot().targets;
    let v0 = virt_now_us(o);
    let w = Window::start();
    let mut p = new_pipe(pool, msgs);
    p.run(Until::secs(secs), log, rep);
    let (wall_s, cpu_s) = w.stop();
    Win {
        host: Closed::new(&mut p.lat_us, wall_s, cpu_s, rep.failed - failed_before),
        payload_bytes: p.payload_bytes,
        resubmits: p.resubmits,
        per_target: pool
            .metrics_snapshot()
            .targets
            .iter()
            .map(|t| {
                let b = targets_before
                    .iter()
                    .find(|x| x.node == t.node)
                    .map_or(0, |x| x.completions);
                t.completions - b
            })
            .collect(),
        virt_us: virt_now_us(o) - v0,
        delta: Delta {
            before,
            after: o.metrics_snapshot(),
        },
    }
}

/// Time the public codec on the workload's own messages.
fn time_codec(msgs: &[Msg], log: &mut SpanLog) {
    for m in msgs {
        match m {
            Msg::Echo(data) => codec_spans(log, &f2f!(echo, data.clone())),
            Msg::Burn(flops) => codec_spans(log, &f2f!(compute_burn, *flops)),
        }
    }
}
