//! Seeded benchmark of the HAM-Offload stack through its public API.
//!
//! ```text
//! cargo run --release --offline --manifest-path hambench/Cargo.toml -- \
//!     --workload <dma_sync_small|pool_pipelined_mixed|dma_bulk_transfer|tcp_open_loop|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload once untraced and once with spans around every public call
//! plus the simulator's flight recorder, and reports the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The process exits non-zero if any result was wrong.

mod bulk;
mod common;
mod pool;
mod sync;
mod tcp;

use common::{rss_peak_mib, Args, Report};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: &[&str] = &[
    "dma_sync_small",
    "pool_pipelined_mixed",
    "dma_bulk_transfer",
    "tcp_open_loop",
];

/// End-to-end metrics, reported by every workload (`--trace 0`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("rtt_virt_us", "us"),
    ("ops_per_s", "1/s"),
    ("virt_us_per_op", "us"),
    ("put_gib_s", "GiB/s"),
    ("get_gib_s", "GiB/s"),
    ("put_virt_gib_s", "GiB/s"),
    ("get_virt_gib_s", "GiB/s"),
    ("goodput_ops_s", "1/s"),
    ("cpu_ms_per_kop", "ms"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A layer the workload never calls
/// reports 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("ham.encode_ns", "ns"),
        ("ham.decode_ns", "ns"),
        ("runtime.async_ns", "ns"),
        ("runtime.get_ns", "ns"),
        ("chan.msgs_per_frame", "ratio"),
        ("chan.poll_miss_ratio", "ratio"),
        ("chan.flush_p99_virt_us", "us"),
        ("chan.slo_flushes", "count"),
        ("chan.widens", "count"),
        ("chan.narrows", "count"),
        ("chan.resends", "count"),
        ("chan.timeouts", "count"),
        ("sched.submit_ns", "ns"),
        ("sched.wait_all_ns", "ns"),
        ("sched.target_share_skew", "ratio"),
        ("sched.resubmits", "count"),
        ("sched.inflight_peak", "count"),
        ("device.lane_util", "ratio"),
        ("device.lane_busy_skew", "ratio"),
        ("device.steals", "count"),
        ("dma.put_us.s8k", "us"),
        ("dma.put_us.s8m", "us"),
        ("dma.get_us.s8k", "us"),
        ("dma.get_us.s8m", "us"),
        ("dma.alloc_us", "us"),
        ("virt.udma_us_per_op", "us"),
        ("virt.lhm_us_per_op", "us"),
        ("virt.shm_us_per_op", "us"),
        ("virt.ham_us_per_op", "us"),
        ("virt.vh_us_per_op", "us"),
        ("virt.ve_compute_us_per_op", "us"),
        ("virt.pcie_us_per_op", "us"),
        ("virt.veo_us_per_op", "us"),
        ("virt.chan_us_per_op", "us"),
        ("virt.critical_path_us", "us"),
        ("tcp.idle_rtt_us", "us"),
        ("tcp.probe_rtt_us", "us"),
        ("tcp.reconnects", "count"),
        ("tcp.replayed_frames", "count"),
        ("gen.late_p99_us", "us"),
        ("gen.backlog_max", "count"),
        ("trace.overhead_pct", "%"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for r in tcp::LADDER {
        v.push((format!("tcp.p50_us.r{r}"), "us"));
        v.push((format!("tcp.p99_us.r{r}"), "us"));
    }
    v
}

fn parse_args() -> Result<(String, Args), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .unwrap_or_else(|| "10".into())
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").as_deref().unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let out_dir = PathBuf::from(get("--out").unwrap_or_else(|| "hambench/out".into()));
    Ok((
        workload,
        Args {
            seed,
            seconds,
            trace,
            out_dir,
        },
    ))
}

fn json_result(correct: bool, rep: &Report, metrics: &[(String, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        rep.attempted, rep.failed
    )
}

/// Run every workload in a child process of its own (so `rss_peak_mib`
/// stays per workload) and print one summary.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut all_ok = true;
    let mut summary = String::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out_dir)
            .output()
            .expect("run a workload");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        all_ok &= out.status.success();
        let _ = writeln!(
            summary,
            "{w}: exit {} :: {}",
            out.status.code().unwrap_or(-1),
            stdout.lines().last().unwrap_or("")
        );
    }
    println!("== summary (seed {}) ==\n{summary}", args.seed);
    println!("{{\"correct\": {all_ok}}}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hambench: {e}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&args);
    }
    let mut rep = Report::default();
    println!(
        "== {workload} seed {} seconds {} trace {} (available_parallelism {}) ==",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match workload.as_str() {
        "dma_sync_small" => sync::run(&args, &mut rep),
        "pool_pipelined_mixed" => pool::run(&args, &mut rep),
        "dma_bulk_transfer" => bulk::run(&args, &mut rep),
        "tcp_open_loop" => tcp::run(&args, &mut rep),
        other => {
            eprintln!("hambench: unknown workload {other}; expected one of {WORKLOADS:?} or all");
            return ExitCode::from(2);
        }
    }
    rep.set("rss_peak_mib", rss_peak_mib());

    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    let mut correct = rep.failed == 0 && rep.failed_checks.is_empty();
    for (name, unit) in wanted {
        let value = match rep.metrics.get(&name) {
            Some(v) => *v,
            // A layer this workload never calls did no work.
            None if args.trace => 0.0,
            None => {
                println!("metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        if !value.is_finite() {
            println!("metric {name} is not finite");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name:<28} {value:>16.6} {unit}");
        metrics.push((name, value, unit));
    }
    println!(
        "failed_ratio {} ({} failed / {} attempted)",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    );
    for c in &rep.failed_checks {
        println!("FAILED check: {c}");
    }
    if rep.attempted == 0 {
        correct = false;
    }
    println!("{}", json_result(correct, &rep, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
