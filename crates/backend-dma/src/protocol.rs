//! The VE-initiated, DMA-based messaging protocol (paper §IV-B, Fig. 8).
//!
//! Slot layout inside the VH SysV shm segment (all offsets host-local):
//!
//! ```text
//! recv slot i (VH → VE offloads), at i * stride:
//!   +0   flag (u64)  0 = free; else = virtual landing time (ps)
//!   +8   (reserved; the flag doubles as the timestamp)
//!   +16  message: 32-byte header ‖ payload
//! send slots follow the recv array; same layout.
//! ```
//!
//! VH side: posting a message is two local writes (message, then flag
//! with Release ordering); receiving a result is a local flag poll plus
//! local reads. VE side: flags are polled with zero-cost peeks and paid
//! for with one LHM word on success; messages are fetched/deposited with
//! user DMA; flag resets and result notification use SHM stores whose
//! value carries the landing timestamp.
//!
//! The first DMA fetch covers the header plus [`SMALL_FETCH`] payload
//! bytes (one 256-byte TLP); larger payloads cost a second DMA — small
//! offload messages therefore see exactly one LHM + one DMA + SHM
//! accounting, which is where Fig. 9's 6.1 µs comes from.
//!
//! Host-side protocol state (slot rings, pending table, completion
//! queue) lives in [`ham_offload::chan`]; this module implements only
//! the DMA transport verbs. Segment lifetime is RAII-managed: each
//! target holds an [`aurora_mem::ShmGuard`] (IPC_RMID on drop) plus a
//! key lease that returns the SysV key to a free pool for reuse.

use aurora_mem::{ShmGuard, VeAddr, Vehva};
use aurora_proto::{
    AuroraCore, ProtocolConfig, VeComputeMeter, VeTargetMemory, SLOT_META, VE_SEED_BASE,
};
use aurora_sim_core::{calib, Clock, FaultPlan, SimTime};
use ham::registry::HandlerKey;
use ham::wire::{MsgHeader, MsgKind, HEADER_BYTES};
use ham::Registry;
use ham_offload::backend::{CommBackend, RawBuffer};
use ham_offload::chan::pool::{FramePool, PooledFrame};
use ham_offload::chan::{engine, ChannelCore, PendingEntry, RecoveryPolicy, Reservation};
use ham_offload::device::{DeviceConfig, DeviceRuntime};
use ham_offload::target_loop::{Polled, TargetChannel};
use ham_offload::types::{NodeDescriptor, NodeId};
use ham_offload::OffloadError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;
use veo_api::{ArgsStack, KernelLibrary, VeContext, VeoContext};
use veos_sim::AuroraMachine;

/// Payload bytes fetched together with the header in the first DMA (so
/// header + small payload fit one 256-byte PCIe TLP).
pub const SMALL_FETCH: usize = 256 - HEADER_BYTES;

/// SysV shm key pool: keys are unique while leased and reclaimed when a
/// backend is torn down, so long benchmark sweeps cannot exhaust the key
/// space.
struct ShmKeyPool {
    next: AtomicI32,
    free: Mutex<Vec<i32>>,
}

impl ShmKeyPool {
    const fn new() -> Self {
        Self {
            next: AtomicI32::new(0x4841_4D00), // "HAM."
            free: Mutex::new(Vec::new()),
        }
    }

    fn lease(&'static self) -> ShmKeyLease {
        let key = self
            .free
            .lock()
            .pop()
            .unwrap_or_else(|| self.next.fetch_add(1, Ordering::Relaxed));
        ShmKeyLease { pool: self, key }
    }
}

static SHM_KEY_POOL: ShmKeyPool = ShmKeyPool::new();

/// A leased SysV key; returns to the pool on drop.
struct ShmKeyLease {
    pool: &'static ShmKeyPool,
    key: i32,
}

impl Drop for ShmKeyLease {
    fn drop(&mut self) {
        self.pool.free.lock().push(self.key);
    }
}

struct TargetChan {
    /// RAII segment handle: IPC_RMID when the channel goes away, even on
    /// unwind; the VE keeps its attachment until `ham_main` exits.
    seg: ShmGuard,
    /// Key lease for the segment (field order: dropped after `seg`).
    _key: ShmKeyLease,
    /// Host-local byte offset of the send-slot array.
    send_base: u64,
    cfg: ProtocolConfig,
    ctx: Arc<VeoContext>,
    chan: ChannelCore,
    /// Reverse-offload service plumbing (when `cfg.reverse`).
    reverse_stop: Option<Arc<std::sync::atomic::AtomicBool>>,
    reverse_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    reverse_service: Option<Arc<crate::reverse::ReverseService>>,
}

impl TargetChan {
    fn recv_flag(&self, i: usize) -> u64 {
        i as u64 * self.cfg.slot_stride()
    }
    fn recv_msg(&self, i: usize) -> u64 {
        self.recv_flag(i) + SLOT_META
    }
    fn send_flag(&self, i: usize) -> u64 {
        self.send_base + i as u64 * self.cfg.slot_stride()
    }
    fn send_msg(&self, i: usize) -> u64 {
        self.send_flag(i) + SLOT_META
    }
}

/// The DMA communication backend (Fig. 8).
pub struct DmaBackend {
    core: AuroraCore,
    cfg: ProtocolConfig,
    channels: Vec<TargetChan>,
    plan: Arc<FaultPlan>,
}

impl DmaBackend {
    /// Set up the backend: VE processes via VEO, one VH shm segment per
    /// target (Fig. 7), DMAATB registration through the `ham_dma_init`
    /// C-API call, then start `ham_main()` on each VE.
    pub fn spawn(
        machine: Arc<AuroraMachine>,
        host_socket: u8,
        ves: &[u8],
        cfg: ProtocolConfig,
        registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
    ) -> Arc<Self> {
        Self::spawn_with_faults(
            machine,
            host_socket,
            ves,
            cfg,
            FaultPlan::none(),
            None,
            registrar,
        )
    }

    /// [`DmaBackend::spawn`] under a deterministic [`FaultPlan`]: each
    /// VE's PCIe link and user-DMA engines are armed with the plan
    /// (actor = node id), and an optional [`RecoveryPolicy`] arms
    /// timeout/retry on every channel. An all-zero plan and `None`
    /// policy behave bit-identically to [`DmaBackend::spawn`].
    pub fn spawn_with_faults(
        machine: Arc<AuroraMachine>,
        host_socket: u8,
        ves: &[u8],
        cfg: ProtocolConfig,
        plan: Arc<FaultPlan>,
        policy: Option<RecoveryPolicy>,
        registrar: impl Fn(&mut ham::RegistryBuilder) + Send + Sync + 'static,
    ) -> Arc<Self> {
        cfg.validate();
        let core = AuroraCore::new(machine, host_socket, ves, registrar);
        let mut channels = Vec::with_capacity(ves.len());
        for node in 1..=core.num_targets() {
            let t = core.target(NodeId(node)).expect("just created");
            let proc = &t.proc;
            core.machine()
                .topology()
                .link(proc.ve_id())
                .arm_faults(Arc::clone(&plan), node);
            let stride = cfg.slot_stride();
            let recv_bytes = cfg.array_bytes(cfg.recv_slots);
            let send_bytes = cfg.array_bytes(cfg.send_slots);
            let reverse_bytes = if cfg.reverse {
                crate::reverse::reverse_slot_bytes(&cfg)
            } else {
                0
            };
            let key_lease = SHM_KEY_POOL.lease();
            let key = key_lease.key;
            let seg = core
                .machine()
                .shm()
                .create_guarded(key, recv_bytes + send_bytes + reverse_bytes)
                .expect("shm segment");

            // VE-side staging buffers for DMA fetches/deposits (forward
            // and, when enabled, reverse).
            let staging = proc.alloc_mem(stride).expect("VE staging allocation");
            let reverse_staging = cfg
                .reverse
                .then(|| proc.alloc_mem(stride).expect("reverse staging"));

            let registrar = Arc::clone(core.registrar());
            let node_id = node;
            let cfg2 = cfg;
            let ve_plan = Arc::clone(&plan);
            let lane_stats = Arc::clone(core.metrics().lane_stats());
            type VeInit = (Vehva, Arc<aurora_mem::ShmSegment>);
            let init_state: Arc<Mutex<Option<VeInit>>> = Arc::new(Mutex::new(None));
            let init_state2 = Arc::clone(&init_state);
            let lib = KernelLibrary::new()
                .with("ham_dma_init", move |ve: &VeContext, args| {
                    // Fig. 7 setup, VE side: attach the segment by key and
                    // register it in the DMAATB.
                    let key = args.get_u64(0) as i32;
                    let seg = ve.shm.attach(key).expect("attach shm");
                    let vehva = ve
                        .proc
                        .ve()
                        .dmaatb()
                        .register(
                            aurora_mem::DmaTarget {
                                region: Arc::clone(seg.region()),
                                offset: 0,
                            },
                            seg.len(),
                        )
                        .expect("DMAATB registration");
                    let raw = vehva.get();
                    *init_state2.lock() = Some((vehva, seg));
                    raw
                })
                .with("ham_main", move |ve: &VeContext, _args| {
                    let (vehva, seg) = init_state
                        .lock()
                        .take()
                        .expect("ham_dma_init must run before ham_main");
                    let registry =
                        AuroraCore::build_registry(&registrar, VE_SEED_BASE + node_id as u64);
                    let mem = VeTargetMemory::new(Arc::clone(&ve.proc));
                    let chan = VeSideChannel {
                        ve_proc: Arc::clone(&ve.proc),
                        udma: ve.udma.clone(),
                        lhm_shm: ve.lhm_shm.clone(),
                        vehva,
                        send_base: cfg2.array_bytes(cfg2.recv_slots),
                        cfg: cfg2,
                        staging,
                        next: std::cell::Cell::new(0),
                        node: node_id,
                        plan: Arc::clone(&ve_plan),
                    };
                    let meter = VeComputeMeter::new(ve.proc.clock().clone());
                    let transport = reverse_staging.map(|rstaging| {
                        let reverse_base =
                            cfg2.array_bytes(cfg2.recv_slots) + cfg2.array_bytes(cfg2.send_slots);
                        crate::reverse::VeReverseTransport {
                            proc: Arc::clone(&ve.proc),
                            udma: ve.udma.clone(),
                            lhm_shm: ve.lhm_shm.clone(),
                            vehva: vehva.offset(reverse_base),
                            cfg: cfg2,
                            staging: rstaging,
                            seq: parking_lot::Mutex::new(0),
                        }
                    });
                    let runtime = DeviceRuntime::new(
                        DeviceConfig::new()
                            .with_lanes(cfg2.lanes)
                            .with_clock(ve.proc.clock().clone())
                            .with_stats(Arc::clone(&lane_stats)),
                    );
                    let ret = runtime.run(
                        &ham_offload::target_loop::TargetEnv {
                            node: node_id,
                            registry: &registry,
                            mem: &mem,
                            reverse: transport
                                .as_ref()
                                .map(|t| t as &dyn ham::message::ReverseTransport),
                            meter: Some(&meter),
                            // DMA slot rotation delivers seqs in order,
                            // so recovery re-sends dedup by watermark.
                            dedup: true,
                        },
                        &chan,
                    );
                    // shmdt: drop the VE attachment so a doomed segment
                    // (host guard dropped / explicit IPC_RMID) is
                    // actually destroyed.
                    ve.shm.detach(&seg);
                    ret
                });
            proc.load_library(lib);
            let ctx = proc.open_context();
            let init = proc.get_sym("ham_dma_init").expect("C-API symbol");
            let req = ctx
                .call_async(&init, ArgsStack::new().push_u64(key as u64))
                .expect("init call");
            ctx.wait_result(req).expect("init result");
            let main = proc.get_sym("ham_main").expect("ham_main symbol");
            ctx.call_async(&main, ArgsStack::new())
                .expect("start ham_main");

            // Host-side reverse service thread (when enabled).
            let (reverse_stop, reverse_thread, reverse_service) = if cfg.reverse {
                let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
                let service = crate::reverse::ReverseService::new(
                    Arc::clone(seg.region()),
                    recv_bytes + send_bytes,
                    cfg,
                    Arc::clone(core.host_registry()),
                    Arc::clone(&stop),
                );
                let service2 = Arc::clone(&service);
                let handle = std::thread::Builder::new()
                    .name(format!("ham-reverse-svc-{node}"))
                    .spawn(move || service2.run())
                    .expect("spawn reverse service");
                (Some(stop), Some(handle), Some(service))
            } else {
                (None, None, None)
            };

            channels.push(TargetChan {
                seg,
                _key: key_lease,
                send_base: recv_bytes,
                cfg,
                ctx,
                chan: {
                    let mut c = ChannelCore::bounded(cfg.recv_slots, cfg.send_slots, cfg.msg_bytes)
                        .with_batching(cfg.batch);
                    if cfg.credits > 0 {
                        c = c.with_credit_limit(cfg.credits);
                    }
                    match policy {
                        Some(p) => c.with_recovery(p),
                        None => c,
                    }
                },
                reverse_stop,
                reverse_thread: Mutex::new(reverse_thread),
                reverse_service,
            });
        }
        Arc::new(Self {
            core,
            cfg,
            channels,
            plan,
        })
    }

    /// The shared host-side core.
    pub fn core(&self) -> &AuroraCore {
        &self.core
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The SysV key of `target`'s shm segment.
    pub fn shm_key(&self, target: NodeId) -> Result<i32, OffloadError> {
        Ok(self.chan(target)?.seg.key())
    }

    /// Reverse calls served on behalf of `target` so far (0 when the
    /// reverse extension is disabled).
    pub fn reverse_served(&self, target: NodeId) -> u64 {
        self.chan(target)
            .ok()
            .and_then(|c| c.reverse_service.as_ref())
            .map(|s| s.served())
            .unwrap_or(0)
    }

    fn chan(&self, node: NodeId) -> Result<&TargetChan, OffloadError> {
        self.core.target(node)?;
        Ok(&self.channels[node.0 as usize - 1])
    }
}

impl CommBackend for DmaBackend {
    fn num_targets(&self) -> u16 {
        self.core.num_targets()
    }

    fn host_registry(&self) -> &Arc<Registry> {
        self.core.host_registry()
    }

    fn descriptor(&self, node: NodeId) -> Result<NodeDescriptor, OffloadError> {
        self.core.descriptor(node)
    }

    fn channel(&self, target: NodeId) -> Result<&ChannelCore, OffloadError> {
        Ok(&self.chan(target)?.chan)
    }

    /// Two VH-local writes (Fig. 8): the message, then the flag carrying
    /// its own landing timestamp.
    fn send_frame(
        &self,
        target: NodeId,
        res: &Reservation,
        header: &MsgHeader,
        frame: &[u8],
    ) -> Result<(), OffloadError> {
        let chan = self.chan(target)?;
        if !chan.ctx.is_alive() {
            return Err(OffloadError::TargetLost(target));
        }
        // Injected TLP drop: the frame vanishes in transit — the slot
        // stays reserved, the flag never lands, and only a recovery
        // re-send (same seq, next attempt) can complete the offload.
        // Control frames are exempt: they are the teardown path, the
        // one frame kind the recovery policy cannot re-send.
        if matches!(header.kind, MsgKind::Offload | MsgKind::Batch)
            && self
                .plan
                .drop_frame(target.0, res.seq, res.attempt, self.core.host_clock().now())
        {
            return Ok(());
        }
        let clock = self.core.host_clock();
        let region = chan.seg.region();
        // A recovery re-send must not re-arm a slot that already holds
        // this frame. Once the target has consumed it, a second flag
        // reads as the next rotation's frame for the slot: the target
        // skips it as a duplicate and its cursor runs one slot ahead of
        // the host's, stranding the frame that really belongs there (at
        // shutdown, the control frame). The slot's header equals this
        // frame's only if this very frame was written, so only a
        // dropped original is re-sent.
        if res.attempt > 0 {
            let mut landed = [0u8; HEADER_BYTES];
            region
                .read(chan.recv_msg(res.recv_slot), &mut landed)
                .map_err(|e| OffloadError::Mem(e.to_string()))?;
            if landed[..] == frame[..HEADER_BYTES] {
                return Ok(());
            }
        }
        region
            .write(chan.recv_msg(res.recv_slot), frame)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        let t0 = clock.now();
        let landing = clock.advance(calib::HAM_LOCAL_MEM_TOUCH);
        aurora_sim_core::trace::record("vh.local_post", frame.len() as u64, t0, landing);
        region
            .store_u64(chan.recv_flag(res.recv_slot), landing.as_ps())
            .map_err(|e| OffloadError::Mem(e.to_string()))
    }

    /// Free local peek of the result flag; a non-zero value is the
    /// result's virtual landing time (the completion token).
    fn poll_flags(
        &self,
        target: NodeId,
        _seq: u64,
        entry: &PendingEntry,
    ) -> Result<Option<u64>, OffloadError> {
        let chan = self.chan(target)?;
        let v = chan
            .seg
            .region()
            .load_u64(chan.send_flag(entry.send_slot))
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        if v != 0 {
            Ok(Some(v))
        } else if chan.ctx.is_alive() {
            Ok(None)
        } else {
            Err(OffloadError::TargetLost(target))
        }
    }

    /// Consume a ready result from local memory: join the flag's landing
    /// time, pay the successful poll + message read, reset the flag.
    fn fetch_frame(
        &self,
        target: NodeId,
        _seq: u64,
        entry: &PendingEntry,
        token: u64,
    ) -> Result<Vec<u8>, OffloadError> {
        let chan = self.chan(target)?;
        let clock = self.core.host_clock();
        clock.join(SimTime::from_ps(token));
        let t0 = clock.now();
        let t1 = clock.advance(calib::HAM_LOCAL_MEM_TOUCH * 2);
        aurora_sim_core::trace::record("vh.local_consume", 0, t0, t1);

        let region = chan.seg.region();
        let s = entry.send_slot;
        let mut hdr = [0u8; HEADER_BYTES];
        region
            .read(chan.send_msg(s), &mut hdr)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        let header = MsgHeader::decode(&hdr).map_err(|e| OffloadError::Backend(e.to_string()))?;
        let mut frame = vec![0u8; header.payload_len as usize];
        region
            .read(chan.send_msg(s) + HEADER_BYTES as u64, &mut frame)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        // Reset the (local) flag; the engine frees the slots.
        region
            .store_u64(chan.send_flag(s), 0)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        Ok(frame)
    }

    fn allocate(&self, node: NodeId, bytes: u64) -> Result<u64, OffloadError> {
        self.core.allocate(node, bytes)
    }

    fn free(&self, node: NodeId, addr: u64) -> Result<(), OffloadError> {
        self.core.free(node, addr)
    }

    fn put_bytes(&self, dst: RawBuffer, data: &[u8]) -> Result<(), OffloadError> {
        // §IV-B: bulk data exchange still goes through the VEO API.
        self.core.put_bytes(dst, data)
    }

    fn get_bytes(&self, src: RawBuffer, out: &mut [u8]) -> Result<(), OffloadError> {
        self.core.get_bytes(src, out)
    }

    fn host_clock(&self) -> &Clock {
        self.core.host_clock()
    }

    fn metrics(&self) -> &aurora_sim_core::BackendMetrics {
        self.core.metrics()
    }

    /// Kill the VE process abruptly: `ham_main`'s polling loop observes
    /// the plan's kill bit and panics, which clears the context's
    /// liveness flag; the next host flag sweep sees the death and
    /// evicts the channel with [`OffloadError::TargetLost`].
    fn kill_target(&self, target: NodeId) -> Result<(), OffloadError> {
        self.chan(target)?;
        self.plan.kill(target.0, self.core.host_clock().now());
        Ok(())
    }

    fn shutdown(&self) {
        for node in 1..=self.num_targets() {
            let target = NodeId(node);
            let chan = match self.chan(target) {
                Ok(c) => c,
                Err(_) => continue,
            };
            if chan.chan.begin_shutdown() {
                continue;
            }
            if engine::post_control(self, target).is_err() && chan.ctx.is_alive() {
                // The control frame cannot reach the target (evicted
                // channel: its slot cursor is wedged on a lost frame's
                // hole). Reap the stranded VE process — the moral
                // equivalent of SIGKILLing an unreachable peer — or
                // the context join below would wait forever.
                self.plan.kill(node, self.core.host_clock().now());
            }
            chan.ctx.close();
            // Stop the reverse service after ham_main exited (no more
            // reverse calls can be in flight).
            if let Some(stop) = &chan.reverse_stop {
                stop.store(true, std::sync::atomic::Ordering::Release);
            }
            if let Some(h) = chan.reverse_thread.lock().take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for DmaBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The VE side of the protocol (Fig. 8): all transfers VE-initiated.
struct VeSideChannel {
    ve_proc: Arc<veos_sim::VeProcess>,
    udma: aurora_ve::UserDma,
    lhm_shm: aurora_ve::LhmShmUnit,
    /// VEHVA window base of the registered shm segment.
    vehva: Vehva,
    /// Offset of the send-slot array within the segment.
    send_base: u64,
    cfg: ProtocolConfig,
    /// VE-local staging buffer (VEMVA) for DMA.
    staging: VeAddr,
    next: std::cell::Cell<u64>,
    node: u16,
    plan: Arc<FaultPlan>,
}

impl VeSideChannel {
    fn atb(&self) -> &aurora_mem::Dmaatb {
        self.ve_proc.ve().dmaatb()
    }

    fn recv_flag(&self, i: usize) -> Vehva {
        self.vehva.offset(i as u64 * self.cfg.slot_stride())
    }
    fn recv_msg(&self, i: usize) -> Vehva {
        self.recv_flag(i).offset(SLOT_META)
    }
    fn send_flag(&self, i: usize) -> Vehva {
        self.vehva
            .offset(self.send_base + i as u64 * self.cfg.slot_stride())
    }
    fn send_msg(&self, i: usize) -> Vehva {
        self.send_flag(i).offset(SLOT_META)
    }

    fn staging_off(&self, len: u64) -> u64 {
        self.ve_proc
            .translate(self.staging, len)
            .expect("staging is mapped")
    }
}

impl VeSideChannel {
    fn check_killed(&self) {
        if self.plan.killed(self.node) {
            // Injected VE process death: die like a crash, not a
            // shutdown — the panic clears the VEO context's
            // liveness flag and the host evicts the channel.
            panic!("fault injection: VE process {} killed", self.node);
        }
    }

    /// Consume the published message in recv slot `i` whose flag carried
    /// landing time `ts`: pay the LHM word, DMA-fetch the message into a
    /// pooled body, release the slot. `None` means the process died
    /// mid-transfer.
    fn consume(
        &self,
        i: usize,
        ts: SimTime,
        pool: &Arc<FramePool>,
    ) -> Option<(MsgHeader, PooledFrame)> {
        let flag = self.recv_flag(i);
        let clock = self.ve_proc.clock().clone();
        // The successful poll: one charged LHM word after the flag's
        // landing time.
        clock.join(ts);
        let _ = self.lhm_shm.lhm(&clock, self.atb(), flag).ok()?;

        // First DMA: header + up to SMALL_FETCH payload bytes in one TLP.
        let first = (HEADER_BYTES + SMALL_FETCH).min(HEADER_BYTES + self.cfg.msg_bytes) as u64;
        let hbm = Arc::clone(self.ve_proc.hbm());
        let stage = self.staging_off(self.cfg.slot_stride());
        self.udma
            .read_host(&clock, self.atb(), self.recv_msg(i), &hbm, stage, first)
            .ok()?;
        let mut hdr = [0u8; HEADER_BYTES];
        hbm.read(stage, &mut hdr).ok()?;
        let header = MsgHeader::decode(&hdr).ok()?;
        if header.payload_len as usize > self.cfg.msg_bytes {
            return None;
        }
        let mut payload = pool.checkout();
        payload.resize(header.payload_len as usize, 0);
        let small = payload.len().min(SMALL_FETCH);
        hbm.read(stage + HEADER_BYTES as u64, &mut payload[..small])
            .ok()?;
        if payload.len() > SMALL_FETCH {
            // Second DMA for the tail of a large message.
            let rest = (payload.len() - SMALL_FETCH) as u64;
            self.udma
                .read_host(
                    &clock,
                    self.atb(),
                    self.recv_msg(i).offset(first),
                    &hbm,
                    stage + first,
                    rest,
                )
                .ok()?;
            hbm.read(stage + first, &mut payload[SMALL_FETCH..]).ok()?;
        }
        // Release the slot: SHM store of 0 (host reuses after result).
        self.lhm_shm.shm(&clock, self.atb(), flag, 0).ok()?;
        self.next.set(self.next.get() + 1);
        Some((header, payload))
    }
}

impl TargetChannel for VeSideChannel {
    fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
        let i = (self.next.get() % self.cfg.recv_slots as u64) as usize;
        let flag = self.recv_flag(i);
        // Zero-cost peeks until the host publishes (arrival-driven
        // polling; see DESIGN.md).
        let ts = loop {
            self.check_killed();
            match self.lhm_shm.peek_word(self.atb(), flag) {
                Ok(0) => std::thread::yield_now(),
                Ok(ts) => break SimTime::from_ps(ts),
                Err(_) => return None,
            }
        };
        self.consume(i, ts, pool)
    }

    fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
        self.check_killed();
        let i = (self.next.get() % self.cfg.recv_slots as u64) as usize;
        // One free peek: slot rotation means an unset flag here implies
        // nothing further has been published yet. A flag whose landing
        // time is still ahead of the device clock has not arrived *in
        // virtual time* either — consuming it would stall the clock on
        // the join instead of overlapping the arrival with the work
        // already drained, so it waits for a later window (or for the
        // blocking recv, where the device is genuinely idle).
        match self.lhm_shm.peek_word(self.atb(), self.recv_flag(i)) {
            Ok(0) => Polled::Empty,
            Ok(ts) if ts > self.ve_proc.clock().now().as_ps() => Polled::Empty,
            Ok(ts) => match self.consume(i, SimTime::from_ps(ts), pool) {
                Some((h, p)) => Polled::Msg(h, p),
                None => Polled::Closed,
            },
            Err(_) => Polled::Closed,
        }
    }

    fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>) {
        let s = reply_slot as usize;
        debug_assert!(s < self.cfg.send_slots);
        // A result that cannot fit the send slot becomes an error frame
        // (results carry framing bytes on top of the kernel's output, so
        // this can happen even when the request fit).
        let payload = if payload.len() > self.cfg.msg_bytes {
            ham_offload::target_loop::frame_result(Err(ham::HamError::Wire(format!(
                "result of {} bytes exceeds the protocol's {}-byte slots; \
                     return bulk data via target buffers + get",
                payload.len(),
                self.cfg.msg_bytes
            ))))
        } else {
            payload
        };
        let clock = self.ve_proc.clock().clone();
        let t0 = clock.now();
        let t1 = clock.advance(calib::HAM_TARGET_OVERHEAD);
        aurora_sim_core::trace::record("ham.target_overhead", 0, t0, t1);
        let header = MsgHeader {
            handler_key: HandlerKey(0),
            payload_len: payload.len() as u32,
            kind: MsgKind::Result,
            reply_slot,
            corr: 0,
            seq,
        };
        let mut bytes = header.encode().to_vec();
        bytes.extend_from_slice(&payload);
        // Stage locally, deposit with user DMA, notify with an SHM
        // timestamp flag.
        let hbm = Arc::clone(self.ve_proc.hbm());
        let stage = self.staging_off(bytes.len() as u64);
        hbm.write(stage, &bytes).expect("stage result");
        self.udma
            .write_host(
                &clock,
                self.atb(),
                &hbm,
                stage,
                self.send_msg(s),
                bytes.len() as u64,
            )
            .expect("result DMA");
        self.lhm_shm
            .shm_timestamp(&clock, self.atb(), self.send_flag(s))
            .expect("result flag");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham::{f2f, ham_kernel};
    use ham_offload::Offload;
    use veos_sim::MachineConfig;

    ham_kernel! {
        pub fn empty(_ctx) -> () {}
    }

    ham_kernel! {
        pub fn inner_product(ctx, a: u64, b: u64, n: u64) -> f64 {
            let x = ctx.mem.read_f64s(a, n as usize).unwrap();
            let y = ctx.mem.read_f64s(b, n as usize).unwrap();
            x.iter().zip(&y).map(|(p, q)| p * q).sum()
        }
    }

    ham_kernel! {
        pub fn echo_blob(_ctx, data: Vec<u8>) -> Vec<u8> { data }
    }

    fn machine() -> Arc<AuroraMachine> {
        AuroraMachine::small(
            1,
            MachineConfig {
                hbm_bytes: 16 << 20,
                vh_bytes: 32 << 20,
                ..Default::default()
            },
        )
    }

    fn backend(m: Arc<AuroraMachine>) -> Arc<DmaBackend> {
        DmaBackend::spawn(m, 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
            b.register::<inner_product>();
            b.register::<echo_blob>();
        })
    }

    /// The paper's methodology (§V): warm-up iterations, then the mean
    /// over many repetitions — absorbing the one-time startup skew of
    /// `ham_main`'s own VEO launch.
    fn mean_offload_us(o: &Offload, reps: u32) -> f64 {
        for _ in 0..10 {
            o.sync(NodeId(1), f2f!(empty)).unwrap();
        }
        let t0 = o.backend().host_clock().now();
        for _ in 0..reps {
            o.sync(NodeId(1), f2f!(empty)).unwrap();
        }
        (o.backend().host_clock().now() - t0).as_us_f64() / reps as f64
    }

    #[test]
    fn resend_of_a_consumed_frame_leaves_its_slot_empty() {
        let be = backend(machine());
        let o = Offload::new(be.clone());
        let t = NodeId(1);
        let f = o.async_(t, f2f!(empty)).unwrap();
        let chan = be.chan(t).unwrap();
        let mut pending = Vec::new();
        chan.chan.pending_into(&mut pending);
        let (seq, entry) = pending[0];
        // Result published: the target has consumed the frame and
        // cleared its recv flag.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while be.poll_flags(t, seq, &entry).unwrap().is_none() {
            assert!(std::time::Instant::now() < deadline, "no result");
            std::thread::yield_now();
        }
        let region = chan.seg.region();
        let flag = chan.recv_flag(entry.recv_slot);
        assert_eq!(region.load_u64(flag).unwrap(), 0);

        // A late recovery re-send of the same frame.
        let mut hdr = [0u8; HEADER_BYTES];
        region
            .read(chan.recv_msg(entry.recv_slot), &mut hdr)
            .unwrap();
        let header = MsgHeader::decode(&hdr).unwrap();
        let mut frame = vec![0u8; header.wire_len()];
        region
            .read(chan.recv_msg(entry.recv_slot), &mut frame)
            .unwrap();
        let res = Reservation {
            seq,
            recv_slot: entry.recv_slot,
            send_slot: entry.send_slot,
            attempt: 1,
        };
        be.send_frame(t, &res, &header, &frame).unwrap();
        assert_eq!(region.load_u64(flag).unwrap(), 0, "slot re-armed");
        f.get().unwrap();
        o.shutdown();
    }

    #[test]
    fn empty_offload_costs_fig9_dma_value() {
        let o = Offload::new(backend(machine()));
        let us = mean_offload_us(&o, 100);
        // Fig. 9: 6.1 us, ±3 %.
        assert!((us - 6.1).abs() / 6.1 < 0.03, "HAM/DMA offload = {us} us");
        o.shutdown();
    }

    #[test]
    fn inner_product_over_dma_protocol() {
        let o = Offload::new(backend(machine()));
        let t = NodeId(1);
        let a = o.allocate::<f64>(t, 64).unwrap();
        let b = o.allocate::<f64>(t, 64).unwrap();
        let xs: Vec<f64> = (0..64).map(|i| (i as f64).sqrt()).collect();
        let ys: Vec<f64> = (0..64).map(|i| 1.0 / (1.0 + i as f64)).collect();
        o.put(&xs, a).unwrap();
        o.put(&ys, b).unwrap();
        let r = o
            .sync(t, f2f!(inner_product, a.addr(), b.addr(), 64))
            .unwrap();
        let expect: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        assert!((r - expect).abs() < 1e-12);
        o.shutdown();
    }

    #[test]
    fn large_messages_use_a_second_dma_and_still_arrive() {
        let o = Offload::new(backend(machine()));
        let blob: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let r = o.sync(NodeId(1), f2f!(echo_blob, blob.clone())).unwrap();
        assert_eq!(r, blob);
        o.shutdown();
    }

    #[test]
    fn pipelined_asyncs_reuse_slots() {
        let o = Offload::new(backend(machine()));
        let futures: Vec<_> = (0..40)
            .map(|_| o.async_(NodeId(1), f2f!(empty)).unwrap())
            .collect();
        for f in futures {
            f.get().unwrap();
        }
        o.shutdown();
    }

    #[test]
    fn wait_any_drains_out_of_order() {
        let o = Offload::new(backend(machine()));
        let mut futures: Vec<_> = (0..12)
            .map(|_| o.async_(NodeId(1), f2f!(empty)).unwrap())
            .collect();
        while !futures.is_empty() {
            let i = o.wait_any(&mut futures).expect("something pending");
            futures.swap_remove(i).get().unwrap();
        }
        o.shutdown();
    }

    #[test]
    fn shm_segment_released_on_shutdown() {
        let m = machine();
        let shm = Arc::clone(m.shm());
        let before = shm.segment_count();
        let backend = backend(Arc::clone(&m));
        assert!(backend.shm_key(NodeId(1)).is_ok());
        assert_eq!(shm.segment_count(), before + 1);
        let o = Offload::new(backend);
        o.sync(NodeId(1), f2f!(empty)).unwrap();
        o.shutdown();
        drop(o);
        assert_eq!(shm.segment_count(), before, "segment leaked");
        // A later generation on the same machine spawns cleanly (no key
        // collision with the departed segment).
        let again = DmaBackend::spawn(m, 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        assert_eq!(shm.segment_count(), before + 1);
        again.shutdown();
    }

    #[test]
    fn key_pool_reuses_released_keys() {
        // A private pool (leaked for the 'static lease bound) shows the
        // reclamation contract deterministically — the process-global
        // pool is shared across concurrently running tests.
        let pool: &'static ShmKeyPool = Box::leak(Box::new(ShmKeyPool::new()));
        let k1 = pool.lease().key; // lease dropped immediately: reclaimed
        let l2 = pool.lease();
        assert_eq!(l2.key, k1, "freed key must be reused");
        let l3 = pool.lease();
        assert_ne!(l3.key, l2.key, "live keys must stay unique");
        let (k2, k3) = (l2.key, l3.key);
        drop(l2);
        drop(l3);
        // LIFO: the most recently freed key comes back first. (Keep the
        // leases bound — a temporary would return its key immediately.)
        let l4 = pool.lease();
        assert_eq!(l4.key, k3);
        let l5 = pool.lease();
        assert_eq!(l5.key, k2);
    }

    #[test]
    fn second_socket_adds_about_one_microsecond() {
        let m = AuroraMachine::a300_8(MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 32 << 20,
            ..Default::default()
        });
        let near = DmaBackend::spawn(Arc::clone(&m), 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        let far = DmaBackend::spawn(m, 1, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        let on = Offload::new(near);
        let of = Offload::new(far);
        let near_us = mean_offload_us(&on, 50);
        let far_us = mean_offload_us(&of, 50);
        let delta = far_us - near_us;
        assert!(delta > 0.5 && delta < 1.5, "UPI delta = {delta} us");
        on.shutdown();
        of.shutdown();
    }

    ham_kernel! {
        /// Host-side helper a VE kernel calls back into.
        pub fn host_adder(_ctx, a: u64, b: u64) -> u64 { a + b }
    }

    ham_kernel! {
        /// A VE kernel that reverse-offloads part of its work (VHcall).
        pub fn uses_vhcall(ctx, x: u64) -> u64 {
            assert!(ctx.has_reverse(), "reverse transport must be present");
            let partial = ctx.vhcall(f2f!(host_adder, x, 100)).expect("vhcall");
            partial * 2
        }
    }

    #[test]
    fn reverse_offload_round_trip() {
        let o = Offload::new(DmaBackend::spawn(
            machine(),
            0,
            &[0],
            ProtocolConfig {
                reverse: true,
                ..Default::default()
            },
            |b| {
                b.register::<host_adder>();
                b.register::<uses_vhcall>();
            },
        ));
        // (x + 100) on the host, * 2 back on the VE.
        assert_eq!(o.sync(NodeId(1), f2f!(uses_vhcall, 7)).unwrap(), 214);
        o.shutdown();
    }

    #[test]
    fn reverse_calls_are_counted_and_cheap() {
        let backend = DmaBackend::spawn(
            machine(),
            0,
            &[0],
            ProtocolConfig {
                reverse: true,
                ..Default::default()
            },
            |b| {
                b.register::<host_adder>();
                b.register::<uses_vhcall>();
                b.register::<empty>();
            },
        );
        let o = Offload::new(Arc::<DmaBackend>::clone(&backend));
        // Warm up, then measure an offload whose kernel makes one
        // reverse call.
        for _ in 0..10 {
            o.sync(NodeId(1), f2f!(uses_vhcall, 1)).unwrap();
        }
        let t0 = o.backend().host_clock().now();
        let reps = 20;
        for _ in 0..reps {
            o.sync(NodeId(1), f2f!(uses_vhcall, 1)).unwrap();
        }
        let us = (o.backend().host_clock().now() - t0).as_us_f64() / reps as f64;
        assert!(backend.reverse_served(NodeId(1)) >= 10 + reps);
        // One forward (~6 µs) + one reverse (~6 µs) round trip — far
        // below the ~85 µs syscall-style VHcall path.
        assert!(us > 8.0 && us < 25.0, "offload with vhcall = {us} us");
        o.shutdown();
    }

    #[test]
    fn vhcall_without_reverse_enabled_errors() {
        let o = Offload::new(DmaBackend::spawn(
            machine(),
            0,
            &[0],
            ProtocolConfig::default(),
            |b| {
                b.register::<host_adder>();
                b.register::<vhcall_expect_err>();
            },
        ));
        assert!(o.sync(NodeId(1), f2f!(vhcall_expect_err)).unwrap());
        o.shutdown();
    }

    ham_kernel! {
        pub fn vhcall_expect_err(ctx) -> bool {
            !ctx.has_reverse()
                && ctx.vhcall(f2f!(host_adder, 1, 2)).is_err()
        }
    }

    #[test]
    fn shutdown_then_post_fails() {
        let o = Offload::new(backend(machine()));
        o.shutdown();
        assert!(matches!(
            o.sync(NodeId(1), f2f!(empty)),
            Err(OffloadError::Shutdown)
        ));
    }
}
