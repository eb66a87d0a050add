//! # ham-aurora-repro
//!
//! Reproduction of *"Heterogeneous Active Messages for Offloading on the
//! NEC SX-Aurora TSUBASA"* (Noack, Focht, Steinke; IPDPSW/HCW 2019):
//! the HAM-Offload framework with its two SX-Aurora messaging protocols,
//! running against a fully simulated Aurora platform.
//!
//! This facade crate re-exports the whole stack and provides one-call
//! constructors for the common setups. See `README.md` for the tour,
//! `DESIGN.md` for the system inventory, and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! ```
//! use ham::{ham_kernel, f2f};
//! use ham_aurora_repro::{dma_offload, NodeId};
//!
//! ham_kernel! {
//!     pub fn triple(_ctx, x: u64) -> u64 { x * 3 }
//! }
//!
//! // One VE, DMA-based protocol (the paper's fast path).
//! let offload = dma_offload(1, |b| { b.register::<triple>(); });
//! assert_eq!(offload.sync(NodeId(1), f2f!(triple, 14)).unwrap(), 42);
//! offload.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use aurora_mem as mem;
pub use aurora_pcie as pcie;
pub use aurora_sim_core as sim_core;
pub use aurora_ve as ve;
pub use aurora_workloads as workloads;
pub use ham;
pub use ham_backend_dma as backend_dma;
pub use ham_backend_tcp as backend_tcp;
pub use ham_backend_veo as backend_veo;
pub use ham_offload as offload;
pub use veo_api as veo;
pub use veos_sim as veos;

pub mod fault_scenario;

pub use aurora_sim_core::{FaultEvent, FaultKind, FaultPlan, FaultSite};
pub use aurora_sim_core::{
    HealthEvent, HealthEventKind, HealthRegistry, MetricsSnapshot, NodeMetricsSnapshot, SloReport,
    SloSpec, TargetState,
};
pub use ham_backend_tcp::{Announce, TargetSpec};
pub use ham_offload::chan::{BatchConfig, RecoveryPolicy};
pub use ham_offload::sched::{
    HealthReport, PoolFuture, PoolMetricsSnapshot, ProbeConfig, SchedPolicy, TargetHealth,
    TargetPool,
};
pub use ham_offload::{BufferPtr, Future, NodeId, Offload, OffloadError};

use ham_backend_dma::DmaBackend;
use ham_backend_veo::{ProtocolConfig, VeoBackend};
use std::sync::Arc;
use veos_sim::{AuroraMachine, MachineConfig};

/// Default simulated memory sizes for the convenience constructors.
fn default_machine(ves: u8) -> Arc<AuroraMachine> {
    let cfg = MachineConfig {
        hbm_bytes: 64 << 20,
        vh_bytes: 128 << 20,
        ..Default::default()
    };
    if ves <= 4 {
        AuroraMachine::small(ves.max(1), cfg)
    } else {
        AuroraMachine::a300_8(cfg)
    }
}

/// An [`Offload`] runtime over the **DMA-based** protocol (paper §IV) on
/// a default simulated machine with `ves` Vector Engines.
pub fn dma_offload(
    ves: u8,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    let machine = default_machine(ves);
    let targets: Vec<u8> = (0..ves.max(1).min(machine.ves().len() as u8)).collect();
    Offload::new(DmaBackend::spawn(
        machine,
        0,
        &targets,
        ProtocolConfig::default(),
        registrar,
    ))
}

/// An [`Offload`] runtime over the **VEO-based** protocol (paper §III).
pub fn veo_offload(
    ves: u8,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    let machine = default_machine(ves);
    let targets: Vec<u8> = (0..ves.max(1).min(machine.ves().len() as u8)).collect();
    Offload::new(VeoBackend::spawn(
        machine,
        0,
        &targets,
        ProtocolConfig::default(),
        registrar,
    ))
}

/// [`dma_offload`] with small-message batching: consecutive `post()`s to
/// a target coalesce into one wire frame, up to `max_msgs` per frame.
/// Deep pipelines pay one DMA transaction and one flag poll per *batch*
/// instead of per message; single-shot `sync` latency is unchanged.
pub fn dma_offload_batched(
    ves: u8,
    batch: BatchConfig,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    let machine = default_machine(ves);
    let targets: Vec<u8> = (0..ves.max(1).min(machine.ves().len() as u8)).collect();
    Offload::new(DmaBackend::spawn(
        machine,
        0,
        &targets,
        ProtocolConfig::default().with_batch(batch),
        registrar,
    ))
}

/// [`veo_offload`] with small-message batching. See
/// [`dma_offload_batched`].
pub fn veo_offload_batched(
    ves: u8,
    batch: BatchConfig,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    let machine = default_machine(ves);
    let targets: Vec<u8> = (0..ves.max(1).min(machine.ves().len() as u8)).collect();
    Offload::new(VeoBackend::spawn(
        machine,
        0,
        &targets,
        ProtocolConfig::default().with_batch(batch),
        registrar,
    ))
}

/// [`dma_offload`] under a deterministic [`FaultPlan`] and an optional
/// retry/timeout [`RecoveryPolicy`].
///
/// The plan is armed on every VE's PCIe link (TLP drops, duplications,
/// delay spikes and user-DMA stalls draw from it) and consulted by the
/// backend for frame drops and VE-process kills. Pass
/// [`FaultPlan::none`] and `None` to get exactly [`dma_offload`]
/// behaviour.
pub fn dma_offload_with_faults(
    ves: u8,
    plan: Arc<FaultPlan>,
    policy: Option<RecoveryPolicy>,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    let machine = default_machine(ves);
    let targets: Vec<u8> = (0..ves.max(1).min(machine.ves().len() as u8)).collect();
    Offload::new(DmaBackend::spawn_with_faults(
        machine,
        0,
        &targets,
        ProtocolConfig::default(),
        plan,
        policy,
        registrar,
    ))
}

/// [`dma_offload_with_faults`] with small-message batching — the
/// combination the device runtime's fault tests need: batch carriers
/// engage the worker lanes while the plan injects kills.
pub fn dma_offload_batched_with_faults(
    ves: u8,
    batch: BatchConfig,
    plan: Arc<FaultPlan>,
    policy: Option<RecoveryPolicy>,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    let machine = default_machine(ves);
    let targets: Vec<u8> = (0..ves.max(1).min(machine.ves().len() as u8)).collect();
    Offload::new(DmaBackend::spawn_with_faults(
        machine,
        0,
        &targets,
        ProtocolConfig::default().with_batch(batch),
        plan,
        policy,
        registrar,
    ))
}

/// [`veo_offload`] under a deterministic [`FaultPlan`] and an optional
/// retry/timeout [`RecoveryPolicy`]. See [`dma_offload_with_faults`].
pub fn veo_offload_with_faults(
    ves: u8,
    plan: Arc<FaultPlan>,
    policy: Option<RecoveryPolicy>,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    let machine = default_machine(ves);
    let targets: Vec<u8> = (0..ves.max(1).min(machine.ves().len() as u8)).collect();
    Offload::new(VeoBackend::spawn_with_faults(
        machine,
        0,
        &targets,
        ProtocolConfig::default(),
        plan,
        policy,
        registrar,
    ))
}

/// [`tcp_offload`] under a deterministic [`FaultPlan`].
///
/// The targets run the same session lifecycle as
/// [`tcp_offload_cluster`], with a reconnect budget of zero: peer death
/// is detected by the link supervisor's EOF and **permanently evicts**
/// the channel with [`OffloadError::TargetLost`] — no degraded phase,
/// no replay. For a non-zero budget, where a disconnect degrades the
/// target and a bounded-backoff reconnect resumes the session, use
/// [`tcp_offload_cluster`].
pub fn tcp_offload_with_faults(
    targets: u16,
    plan: Arc<FaultPlan>,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    Offload::new(ham_backend_tcp::TcpBackend::spawn_with_faults(
        targets,
        ham_backend_tcp::TcpBackend::DEFAULT_MEM,
        plan,
        registrar,
    ))
}

/// An [`Offload`] runtime over a **TCP cluster** of targets described by
/// `specs` (target `i` gets node id `i + 1`), with session resume on
/// reconnect.
///
/// Each target announces its capabilities (worker lanes, credit limit,
/// memory) and its dedup watermark on every accepted connection. A
/// disconnect *degrades* the target instead of evicting it; a
/// per-target link supervisor reconnects with bounded backoff (at most
/// `policy.max_retries` attempts per disconnect) and replays exactly
/// the in-flight frames the re-announced watermark proves unexecuted.
/// Work the watermark cannot clear fails with
/// [`OffloadError::TargetLost`] rather than risking double execution.
pub fn tcp_offload_cluster(
    specs: &[TargetSpec],
    policy: RecoveryPolicy,
    plan: Arc<FaultPlan>,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    Offload::new(ham_backend_tcp::TcpBackend::spawn_cluster(
        specs, policy, plan, registrar,
    ))
}

/// [`tcp_offload_cluster`] with an address book of vacant *reserve*
/// slots for dynamic membership. Returns the backend handle alongside
/// the runtime so callers can activate a reserve slot later with
/// [`ham_backend_tcp::TcpBackend::join_target`] (and then admit it to a
/// running [`sched::TargetPool`] via
/// [`sched::TargetPool::add_target`]).
pub fn tcp_offload_cluster_reserve(
    active: &[TargetSpec],
    reserve: &[TargetSpec],
    policy: RecoveryPolicy,
    plan: Arc<FaultPlan>,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> (Offload, Arc<ham_backend_tcp::TcpBackend>) {
    let backend = ham_backend_tcp::TcpBackend::spawn_cluster_with_reserve(
        active, reserve, policy, plan, registrar,
    );
    (Offload::new(backend.clone()), backend)
}

/// An [`Offload`] runtime over the in-process reference backend (no
/// Aurora modelling; fastest wall-clock).
pub fn local_offload(
    targets: u16,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    Offload::new(ham_offload::local::LocalBackend::spawn(targets, registrar))
}

/// An [`Offload`] runtime over real loopback TCP sockets — the paper's
/// "most generic backend" (§I-A), favouring interoperability over
/// performance.
pub fn tcp_offload(
    targets: u16,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    Offload::new(ham_backend_tcp::TcpBackend::spawn(targets, registrar))
}

/// [`tcp_offload`] with small-message batching. See
/// [`dma_offload_batched`].
pub fn tcp_offload_batched(
    targets: u16,
    batch: BatchConfig,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    Offload::new(ham_backend_tcp::TcpBackend::spawn_batched(
        targets, batch, registrar,
    ))
}

/// [`local_offload`] with small-message batching. See
/// [`dma_offload_batched`].
pub fn local_offload_batched(
    targets: u16,
    batch: BatchConfig,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    Offload::new(ham_offload::local::LocalBackend::spawn_batched(
        targets, batch, registrar,
    ))
}

/// [`dma_offload_batched`] with the **self-tuning dataplane** armed:
/// batching up to `max_msgs` per frame, staged age hard-bounded to
/// `slo_micros` of virtual time, and the adaptive watermark controller
/// ([`ham_offload::chan::adaptive`]) tuning the effective watermarks
/// per channel from the observed flush-latency histogram. Equivalent to
/// passing [`BatchConfig::adaptive_up_to`] to the batched constructor.
pub fn dma_offload_adaptive(
    ves: u8,
    max_msgs: usize,
    slo_micros: u64,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    dma_offload_batched(
        ves,
        BatchConfig::adaptive_up_to(max_msgs, slo_micros),
        registrar,
    )
}

/// [`veo_offload_batched`] with the self-tuning dataplane armed. See
/// [`dma_offload_adaptive`].
pub fn veo_offload_adaptive(
    ves: u8,
    max_msgs: usize,
    slo_micros: u64,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    veo_offload_batched(
        ves,
        BatchConfig::adaptive_up_to(max_msgs, slo_micros),
        registrar,
    )
}

/// [`tcp_offload_batched`] with the self-tuning dataplane armed. See
/// [`dma_offload_adaptive`].
pub fn tcp_offload_adaptive(
    targets: u16,
    max_msgs: usize,
    slo_micros: u64,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    tcp_offload_batched(
        targets,
        BatchConfig::adaptive_up_to(max_msgs, slo_micros),
        registrar,
    )
}

/// [`local_offload_batched`] with the self-tuning dataplane armed. See
/// [`dma_offload_adaptive`].
pub fn local_offload_adaptive(
    targets: u16,
    max_msgs: usize,
    slo_micros: u64,
    registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
) -> Offload {
    local_offload_batched(
        targets,
        BatchConfig::adaptive_up_to(max_msgs, slo_micros),
        registrar,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham::f2f;

    ham::ham_kernel! {
        pub fn ping(ctx) -> u16 { ctx.node }
    }

    #[test]
    fn all_three_constructors_work() {
        for o in [
            local_offload(1, |b| {
                b.register::<ping>();
            }),
            veo_offload(1, |b| {
                b.register::<ping>();
            }),
            dma_offload(1, |b| {
                b.register::<ping>();
            }),
        ] {
            assert_eq!(o.sync(NodeId(1), f2f!(ping)).unwrap(), 1);
            o.shutdown();
        }
    }

    #[test]
    fn eight_ve_machine() {
        let o = dma_offload(8, |b| {
            b.register::<ping>();
        });
        assert_eq!(o.num_nodes(), 9);
        for n in 1..=8 {
            assert_eq!(o.sync(NodeId(n), f2f!(ping)).unwrap(), n);
        }
        o.shutdown();
    }

    #[test]
    fn tcp_descriptor_reports_the_target_lanes() {
        let o = tcp_offload(1, |b| {
            b.register::<ping>();
        });
        let d = o.get_node_descriptor(NodeId(1)).unwrap();
        assert_eq!(d.cores, ham_offload::device::DEFAULT_LANES as u32);
        o.shutdown();
    }
}
