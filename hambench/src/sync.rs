//! `dma_sync_small`: closed loop, one client thread, one request
//! outstanding, DMA protocol, 1 VE, batching off. A seeded mix of
//! `whoami` (the Fig. 9 empty kernel) and `echo` with 8–256 B payloads.
//!
//! Only the per-message path works here: `ham` codec and registry,
//! `Offload::async_`/`Future::get`, a single-frame channel, the DMA
//! flag handshake and device dispatch.

use crate::common::*;
use ham_aurora_repro::ham::f2f;
use ham_aurora_repro::sim_core::trace::TraceSession;
use ham_aurora_repro::workloads::kernels::{echo, register_all, whoami};
use ham_aurora_repro::{dma_offload, NodeId, Offload};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Length of the seeded op sequence; the timed window cycles over it.
const SEQ_LEN: usize = 4096;
/// Ops of the exact simulated pass run on every fresh instance.
const EXACT_OPS: usize = 2048;
const WARMUP: usize = 64;
/// Fresh runtimes per run; host metrics are medians over them.
const INSTANCES: usize = 40;
/// The DMA-protocol empty-kernel offload of Fig. 9, as EXPERIMENTS.md
/// records it (µs, three decimals).
const FIG9_DMA_US: &str = "6.015";

enum Op {
    Whoami,
    Echo(Vec<u8>),
}

impl Op {
    fn payload(&self) -> usize {
        match self {
            Op::Whoami => 0,
            Op::Echo(d) => d.len(),
        }
    }
}

/// Half `whoami`, half `echo` with sizes spread evenly over 8–256 B; the
/// seed orders the ops and fills the payloads.
fn generate(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut ops: Vec<Op> = evenly(SEQ_LEN / 2, 8, 256)
        .into_iter()
        .map(|n| Op::Echo(rng.bytes(n as usize)))
        .collect();
    ops.extend((0..SEQ_LEN / 2).map(|_| Op::Whoami));
    rng.shuffle(&mut ops);
    ops
}

/// Offload `op` through `async_` + `get` (what `sync` does), with spans
/// around both calls; returns whether the result verified.
fn issue(o: &Offload, op: &Op, log: &mut SpanLog, root: u32, req: u64) -> bool {
    match op {
        Op::Whoami => {
            let msg = f2f!(whoami);
            let a = log.begin("offload.runtime:async_", root, req);
            let fut = o.async_(NodeId(1), msg);
            log.end(a);
            let g = log.begin("offload.runtime:get", root, req);
            let res = fut.and_then(|f| f.get());
            log.end(g);
            let v = log.begin("bench:verify", root, req);
            let ok = matches!(res, Ok(1));
            log.end(v);
            ok
        }
        Op::Echo(data) => {
            let msg = f2f!(echo, data.clone());
            let a = log.begin("offload.runtime:async_", root, req);
            let fut = o.async_(NodeId(1), msg);
            log.end(a);
            let g = log.begin("offload.runtime:get", root, req);
            let res = fut.and_then(|f| f.get());
            log.end(g);
            let v = log.begin("bench:verify", root, req);
            let ok = matches!(&res, Ok(r) if r == data);
            log.end(v);
            ok
        }
    }
}

/// Simulated outcome of the exact pass: identical on every instance and
/// every run with the same seed.
#[derive(PartialEq, Eq, Debug)]
struct Digest {
    virt_ps: u64,
    frames: u64,
    msgs: u64,
    payload_bytes: u64,
    whoami_rtt_ps: BTreeSet<u64>,
}

fn exact_pass(o: &Offload, ops: &[Op], rep: &mut Report) -> Digest {
    let before = o.metrics_snapshot();
    let mut whoami_rtt_ps = BTreeSet::new();
    let mut payload_bytes = 0;
    let start = virt_now_ps(o);
    let mut off = SpanLog::off();
    for op in ops.iter().take(EXACT_OPS) {
        let v0 = virt_now_ps(o);
        let ok = issue(o, op, &mut off, 0, 0);
        rep.op(ok);
        if matches!(op, Op::Whoami) {
            whoami_rtt_ps.insert(virt_now_ps(o) - v0);
        }
        payload_bytes += op.payload() as u64;
    }
    let d = Delta {
        before,
        after: o.metrics_snapshot(),
    };
    Digest {
        virt_ps: virt_now_ps(o) - start,
        frames: d.frames(),
        msgs: d.msgs(),
        payload_bytes,
        whoami_rtt_ps,
    }
}

/// One timed window: host summary plus the register deltas.
struct Win {
    host: Closed,
    payload_bytes: u64,
    virt_us: f64,
    delta: Delta,
}

/// Closed loop over the op sequence for `secs` of wall time.
fn window(o: &Offload, ops: &[Op], secs: f64, log: &mut SpanLog, rep: &mut Report) -> Win {
    let mut lat_us = Vec::with_capacity(1 << 20);
    let mut payload_bytes = 0u64;
    let failed_before = rep.failed;
    let before = o.metrics_snapshot();
    let v0 = virt_now_us(o);
    let w = Window::start();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut i = 0usize;
    loop {
        let op = &ops[i % ops.len()];
        let req = log.next_req();
        let t0 = Instant::now();
        let root = log.begin("bench:op", 0, req);
        let ok = issue(o, op, log, root, req);
        log.end(root);
        let t1 = Instant::now();
        rep.op(ok);
        lat_us.push((t1 - t0).as_secs_f64() * 1e6);
        payload_bytes += op.payload() as u64;
        i += 1;
        if i.is_multiple_of(64) && t1 >= deadline {
            break;
        }
    }
    let (wall_s, cpu_s) = w.stop();
    Win {
        host: Closed::new(&mut lat_us, wall_s, cpu_s, rep.failed - failed_before),
        payload_bytes,
        virt_us: virt_now_us(o) - v0,
        delta: Delta {
            before,
            after: o.metrics_snapshot(),
        },
    }
}

/// Time the public codec on the workload's own messages.
fn time_codec(ops: &[Op], log: &mut SpanLog) {
    for op in ops {
        match op {
            Op::Whoami => codec_spans(log, &f2f!(whoami)),
            Op::Echo(data) => codec_spans(log, &f2f!(echo, data.clone())),
        }
    }
}

fn build(rep: &mut Report) -> Offload {
    let o = dma_offload(1, register_all);
    for _ in 0..WARMUP {
        o.sync(NodeId(1), f2f!(whoami)).expect("warm-up offload");
    }
    let ok = matches!(o.sync(NodeId(1), f2f!(whoami)), Ok(1));
    rep.op(ok);
    o
}

/// What one instance measured.
struct Inst {
    digest: Option<Digest>,
    plain: Win,
    traced: Option<Win>,
}

pub fn run(args: &Args, rep: &mut Report) {
    let ops = generate(args.seed);
    let mut log = if args.trace {
        SpanLog::on(Instant::now(), 0)
    } else {
        SpanLog::off()
    };
    // A traced run splits each instance's window between an untraced
    // and a traced half.
    let secs = args.seconds / INSTANCES as f64 / if args.trace { 2.0 } else { 1.0 };
    let insts = per_instance(
        rep,
        INSTANCES,
        build,
        |i, o, rep| {
            let digest = (i < EXACT_INSTANCES).then(|| {
                let session = (args.trace && i == 0).then(TraceSession::start);
                let d = exact_pass(o, &ops, rep);
                if let Some(s) = session {
                    engine_busy(s, EXACT_OPS as u64, rep);
                }
                d
            });
            let plain = window(o, &ops, secs, &mut SpanLog::off(), rep);
            let traced = args.trace.then(|| window(o, &ops, secs, &mut log, rep));
            Inst {
                digest,
                plain,
                traced,
            }
        },
        |o| o.shutdown(),
    );

    // Simulated statistics: identical on every fresh instance.
    let digests: Vec<&Digest> = insts.iter().filter_map(|x| x.digest.as_ref()).collect();
    let d = digests[0];
    println!(
        "sim digest: ops {EXACT_OPS} virt_ps {} frames {} msgs {} payload_bytes {} whoami_rtt_ps {:?}",
        d.virt_ps, d.frames, d.msgs, d.payload_bytes, d.whoami_rtt_ps
    );
    rep.check(
        "simulated statistics repeat exactly on every instance",
        digests.iter().all(|x| *x == d),
    );
    rep.check("one message per frame (batching off)", d.frames == d.msgs);
    let fig9: Vec<String> = d
        .whoami_rtt_ps
        .iter()
        .map(|ps| format!("{:.3}", *ps as f64 / 1e6))
        .collect();
    rep.check(
        format!("whoami simulated RTT {fig9:?} us equals Fig. 9's {FIG9_DMA_US} us"),
        fig9 == [FIG9_DMA_US],
    );
    let virt_s = d.virt_ps as f64 * 1e-12;
    rep.set("rtt_virt_us", d.virt_ps as f64 / 1e6 / EXACT_OPS as f64);
    rep.set("virt_us_per_op", d.virt_ps as f64 / 1e6 / EXACT_OPS as f64);
    // Echo returns its payload: the same bytes travel each way.
    let gib = d.payload_bytes as f64 / (1u64 << 30) as f64;
    rep.set("put_virt_gib_s", gib / virt_s);
    rep.set("get_virt_gib_s", gib / virt_s);

    let plain: Vec<&Closed> = insts.iter().map(|x| &x.plain.host).collect();
    Closed::report(rep, &plain);
    let gib_s = |w: &Win| w.payload_bytes as f64 / (1u64 << 30) as f64 / w.host.wall_s;
    rep.set("put_gib_s", med(&insts, |x| gib_s(&x.plain)));
    rep.set("get_gib_s", med(&insts, |x| gib_s(&x.plain)));

    if args.trace {
        let mut codec_log = log.sibling(CODEC_SPAN_IDS);
        time_codec(&ops, &mut codec_log);
        let traced: Vec<&Win> = insts.iter().filter_map(|x| x.traced.as_ref()).collect();
        let stats = write_trace(args, "dma_sync_small", vec![log, codec_log]);
        report_calls(rep, &stats);
        let last = traced.last().expect("traced windows");
        last.delta.report_layers(rep, last.virt_us);
        rep.set(
            "trace.overhead_pct",
            overhead_pct(
                med(&insts, |x| x.plain.host.wall_us_per_op()),
                med(&traced, |w| w.host.wall_us_per_op()),
            ),
        );
    }
}
