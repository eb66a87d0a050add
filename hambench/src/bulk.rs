//! `dma_bulk_transfer`: one client thread, 1 VE over DMA. Each step is
//! a seeded `put` of host data into a VE buffer followed by a `get` back
//! and a byte-for-byte check, drawn from two size classes: 8 KiB (fits
//! the 4 MiB L2 many times over; per-transfer cost dominates) and 8 MiB
//! (twice L2, well inside the 105 MiB L3; streaming dominates).
//!
//! Only the DMA data path works here (`backend-dma` over `mem`, `pcie`,
//! `ve`, `veos`); the message path stays idle.

use crate::common::*;
use ham_aurora_repro::sim_core::trace::TraceSession;
use ham_aurora_repro::workloads::kernels::register_all;
use ham_aurora_repro::{dma_offload, BufferPtr, NodeId, Offload};
use std::time::Instant;

/// The two size classes. Each transfer's size is drawn from a narrow
/// band at the top of its class, so the seed moves the simulated times
/// a little while the class keeps its character.
const SMALL: usize = 8 << 10;
const LARGE: usize = 8 << 20;
const SMALL_BAND: usize = 1 << 10;
const LARGE_BAND: usize = 256 << 10;
/// Seeded host source buffers (4 × 8 MiB = 32 MiB of inputs).
const SOURCES: usize = 4;
/// Steps of the seeded sequence; the exact pass runs it once.
const SEQ_LEN: usize = 32;
/// Steps of the sequence in the 8 MiB class (one in four).
const LARGE_STEPS: usize = 8;
/// Fresh runtimes per run; host metrics are medians over them.
const INSTANCES: usize = 3;

/// One step: which source, where in it, how many bytes.
struct Step {
    src: usize,
    offset: usize,
    len: usize,
    large: bool,
}

struct Inputs {
    sources: Vec<Vec<u8>>,
    steps: Vec<Step>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let sources = (0..SOURCES).map(|_| rng.bytes(LARGE)).collect();
    // Exactly `LARGE_STEPS` of the steps are in the 8 MiB class, so every seed
    // offers the same size mix; the seed places them.
    let mut large = vec![false; SEQ_LEN];
    let mut placed = 0;
    while placed < LARGE_STEPS {
        let i = rng.range(0, SEQ_LEN as u64 - 1) as usize;
        if !large[i] {
            large[i] = true;
            placed += 1;
        }
    }
    let steps = large
        .into_iter()
        .map(|large| {
            let src = rng.range(0, SOURCES as u64 - 1) as usize;
            // Sizes and offsets are multiples of 8 bytes.
            let (class, band) = if large {
                (LARGE, LARGE_BAND)
            } else {
                (SMALL, SMALL_BAND)
            };
            let len = class - rng.range(0, (band / 8) as u64) as usize * 8;
            let offset = rng.range(0, ((LARGE - len) / 8) as u64) as usize * 8;
            Step {
                src,
                offset,
                len,
                large,
            }
        })
        .collect();
    Inputs { sources, steps }
}

/// A runtime with its two VE buffers.
struct Bench {
    o: Offload,
    small: BufferPtr<u8>,
    large: BufferPtr<u8>,
    alloc_us: f64,
}

/// Totals of a run of steps, split by direction (per-call wall times
/// also by size class: index 0 = 8 KiB, 1 = 8 MiB).
#[derive(Default)]
struct Totals {
    calls: u64,
    bytes: u64,
    put_wall_s: f64,
    get_wall_s: f64,
    put_virt_ps: u64,
    get_virt_ps: u64,
    put_us: [Vec<f64>; 2],
    get_us: [Vec<f64>; 2],
    lat_us: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn step(
    b: &Bench,
    inp: &Inputs,
    s: &Step,
    dst: &mut [u8],
    t: &mut Totals,
    log: &mut SpanLog,
    rep: &mut Report,
    req: u64,
) {
    let src = &inp.sources[s.src][s.offset..s.offset + s.len];
    let dev = if s.large { b.large } else { b.small };
    let class = usize::from(s.large);
    let root = log.begin("bench:step", 0, req);

    let v0 = virt_now_ps(&b.o);
    let t0 = Instant::now();
    let p = log.begin("offload.runtime:put", root, req);
    let put = b.o.put(src, dev);
    log.end(p);
    let t1 = Instant::now();
    let v1 = virt_now_ps(&b.o);
    let g = log.begin("offload.runtime:get_mem", root, req);
    let get = b.o.get(dev, &mut dst[..s.len]);
    log.end(g);
    let t2 = Instant::now();
    let v2 = virt_now_ps(&b.o);

    let v = log.begin("bench:verify", root, req);
    let ok = put.is_ok() && get.is_ok() && dst[..s.len] == *src;
    log.end(v);
    log.end(root);
    // The put and the get each count as one attempted transfer.
    rep.op(put.is_ok());
    rep.op(ok);

    let (put_s, get_s) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
    t.calls += 2;
    t.bytes += s.len as u64;
    t.put_wall_s += put_s;
    t.get_wall_s += get_s;
    t.put_virt_ps += v1 - v0;
    t.get_virt_ps += v2 - v1;
    t.put_us[class].push(put_s * 1e6);
    t.get_us[class].push(get_s * 1e6);
    t.lat_us.push(put_s * 1e6);
    t.lat_us.push(get_s * 1e6);
}

fn build(rep: &mut Report, inp: &Inputs, dst: &mut [u8]) -> Bench {
    let o = dma_offload(1, register_all);
    // Allocate + free once, timed, before the working buffers.
    let t0 = Instant::now();
    let probe = o
        .allocate::<u8>(NodeId(1), LARGE as u64)
        .expect("allocate probe buffer");
    o.free(probe).expect("free probe buffer");
    let alloc_us = t0.elapsed().as_secs_f64() * 1e6;
    let small = o
        .allocate::<u8>(NodeId(1), SMALL as u64)
        .expect("allocate 8 KiB buffer");
    let large = o
        .allocate::<u8>(NodeId(1), LARGE as u64)
        .expect("allocate 8 MiB buffer");
    let b = Bench {
        o,
        small,
        large,
        alloc_us,
    };
    // Warm-up: both sizes, then the first verified step.
    let warm = [
        Step {
            src: 0,
            offset: 0,
            len: SMALL,
            large: false,
        },
        Step {
            src: 1,
            offset: 0,
            len: LARGE,
            large: true,
        },
    ];
    let (mut t, mut off) = (Totals::default(), SpanLog::off());
    for s in warm.iter().cycle().take(6) {
        step(&b, inp, s, dst, &mut t, &mut off, &mut Report::default(), 0);
    }
    step(&b, inp, &warm[0], dst, &mut t, &mut off, rep, 0);
    b
}

fn teardown(b: Bench) {
    let _ = b.o.free(b.small);
    let _ = b.o.free(b.large);
    b.o.shutdown();
}

/// Simulated outcome of one pass over the step sequence.
#[derive(PartialEq, Debug)]
struct Digest {
    put_virt_ps: u64,
    get_virt_ps: u64,
    bytes: u64,
    puts: u64,
    gets: u64,
}

fn run_steps(
    b: &Bench,
    inp: &Inputs,
    dst: &mut [u8],
    until: Until,
    log: &mut SpanLog,
    rep: &mut Report,
) -> Totals {
    let mut t = Totals::default();
    let mut i = 0usize;
    while until.more(i) {
        let s = &inp.steps[i % inp.steps.len()];
        let req = log.next_req();
        step(b, inp, s, dst, &mut t, log, rep, req);
        i += 1;
    }
    t
}

/// One timed window.
struct Win {
    totals: Totals,
    host: Closed,
}

#[allow(clippy::too_many_arguments)]
fn window(
    b: &Bench,
    inp: &Inputs,
    dst: &mut [u8],
    secs: f64,
    log: &mut SpanLog,
    rep: &mut Report,
) -> Win {
    let failed_before = rep.failed;
    let w = Window::start();
    let mut totals = run_steps(b, inp, dst, Until::secs(secs), log, rep);
    let (wall_s, cpu_s) = w.stop();
    let host = Closed::new(
        &mut totals.lat_us,
        wall_s,
        cpu_s,
        rep.failed - failed_before,
    );
    Win { totals, host }
}

/// What one instance measured.
struct Inst {
    digest: Option<Digest>,
    alloc_us: f64,
    plain: Win,
    traced: Option<Win>,
}

pub fn run(args: &Args, rep: &mut Report) {
    let inp = generate(args.seed);
    let mut dst = vec![0u8; LARGE];
    let mut log = if args.trace {
        SpanLog::on(Instant::now(), 0)
    } else {
        SpanLog::off()
    };
    let secs = args.seconds / INSTANCES as f64 / if args.trace { 2.0 } else { 1.0 };
    // `build` and the measurement share the host destination buffer.
    let dst_cell = std::cell::RefCell::new(&mut dst[..]);
    let insts = per_instance(
        rep,
        INSTANCES,
        |rep| build(rep, &inp, &mut dst_cell.borrow_mut()),
        |i, b, rep| {
            let dst = &mut *dst_cell.borrow_mut();
            let digest = (i < EXACT_INSTANCES).then(|| {
                let session = (args.trace && i == 0).then(TraceSession::start);
                let before = b.o.metrics_snapshot();
                let t = run_steps(b, &inp, dst, Until::Ops(SEQ_LEN), &mut SpanLog::off(), rep);
                let after = b.o.metrics_snapshot();
                if let Some(s) = session {
                    engine_busy(s, t.calls, rep);
                }
                Digest {
                    put_virt_ps: t.put_virt_ps,
                    get_virt_ps: t.get_virt_ps,
                    bytes: t.bytes,
                    puts: after.puts - before.puts,
                    gets: after.gets - before.gets,
                }
            });
            let plain = window(b, &inp, dst, secs, &mut SpanLog::off(), rep);
            let traced = args
                .trace
                .then(|| window(b, &inp, dst, secs, &mut log, rep));
            Inst {
                digest,
                alloc_us: b.alloc_us,
                plain,
                traced,
            }
        },
        teardown,
    );

    let digests: Vec<&Digest> = insts.iter().filter_map(|x| x.digest.as_ref()).collect();
    let d = digests[0];
    println!(
        "sim digest: steps {SEQ_LEN} put_virt_ps {} get_virt_ps {} bytes_each_way {} puts {} gets {}",
        d.put_virt_ps, d.get_virt_ps, d.bytes, d.puts, d.gets
    );
    rep.check(
        "simulated statistics repeat exactly on every instance",
        digests.iter().all(|x| *x == d),
    );
    let gib = |bytes: u64| bytes as f64 / (1u64 << 30) as f64;
    rep.set(
        "put_virt_gib_s",
        gib(d.bytes) / (d.put_virt_ps as f64 * 1e-12),
    );
    rep.set(
        "get_virt_gib_s",
        gib(d.bytes) / (d.get_virt_ps as f64 * 1e-12),
    );
    let calls = 2.0 * SEQ_LEN as f64;
    let per_call_us = (d.put_virt_ps + d.get_virt_ps) as f64 / 1e6 / calls;
    rep.set("rtt_virt_us", per_call_us);
    rep.set("virt_us_per_op", per_call_us);

    let plain: Vec<&Closed> = insts.iter().map(|x| &x.plain.host).collect();
    Closed::report(rep, &plain);
    // Latency is read on the 8 KiB class, whose per-transfer cost it
    // measures. An 8 MiB call streams for tens of milliseconds, so its
    // tail follows host stalls; the bandwidth metrics cover that class.
    let mut small: Vec<f64> = insts
        .iter()
        .flat_map(|x| {
            x.plain.totals.put_us[0]
                .iter()
                .chain(&x.plain.totals.get_us[0])
        })
        .copied()
        .collect();
    println!(
        "8 KiB-class latency samples: {} (p99 has {} beyond it)",
        small.len(),
        small.len() / 100
    );
    rep.set("rtt_p50_us", percentile(&mut small, 50.0));
    rep.set("rtt_p99_us", percentile(&mut small, 99.0));
    rep.set(
        "put_gib_s",
        med(&insts, |x| {
            gib(x.plain.totals.bytes) / x.plain.totals.put_wall_s
        }),
    );
    rep.set(
        "get_gib_s",
        med(&insts, |x| {
            gib(x.plain.totals.bytes) / x.plain.totals.get_wall_s
        }),
    );

    if args.trace {
        let traced: Vec<&Win> = insts.iter().filter_map(|x| x.traced.as_ref()).collect();
        write_trace(args, "dma_bulk_transfer", vec![log]);
        for (class, tag) in [(0, "s8k"), (1, "s8m")] {
            let mut put: Vec<f64> = traced
                .iter()
                .flat_map(|w| w.totals.put_us[class].iter().copied())
                .collect();
            let mut get: Vec<f64> = traced
                .iter()
                .flat_map(|w| w.totals.get_us[class].iter().copied())
                .collect();
            rep.set(format!("dma.put_us.{tag}"), median(&mut put));
            rep.set(format!("dma.get_us.{tag}"), median(&mut get));
        }
        rep.set("dma.alloc_us", med(&insts, |x| x.alloc_us));
        rep.set(
            "trace.overhead_pct",
            overhead_pct(
                med(&insts, |x| x.plain.host.wall_us_per_op()),
                med(&traced, |w| w.host.wall_us_per_op()),
            ),
        );
    }
}
