//! The VEO-based messaging protocol (paper §III-D, Fig. 5).
//!
//! Buffer geometry (all in VE memory, allocated by the VH through VEO):
//!
//! ```text
//! recv slot i (VH → VE offload messages):
//!   +0   flag  (u64)  0 = free, seq+1 = message present
//!   +8   ts    (u64)  virtual landing time of the flag (ps)
//!   +16  message: 32-byte header ‖ payload (≤ msg_bytes)
//! send slot j (VE → VH results): same layout; flag = seq+1.
//! ```
//!
//! The VH writes a message with one `veo_write_mem`, then publishes it
//! with a second 16-byte `veo_write_mem`-priced flag write (the flag's
//! timestamp is obtained by *quoting* the DMA manager first, so the value
//! can embed its own landing time). The VE polls its local flags, resets
//! them after consuming, executes, and deposits results locally. The VH
//! polls the result flag and fetches flag + message with two
//! `veo_read_mem`s — giving the 2 W + 2 R ≈ 432 µs empty-offload cost of
//! Fig. 9. Results are matched by sequence number, so send-slot flags
//! never need a (costly) host-side reset write.
//!
//! Host-side protocol state (slot rings, pending table, completion
//! queue) lives in [`ham_offload::chan`]; this module implements only
//! the VEO transport verbs. Polling is arrival-driven in virtual time
//! (zero-cost real peeks; the successful poll is charged) — see the
//! DESIGN.md discussion.

use crate::core::{AuroraCore, ProtocolConfig, VeTargetMemory, SLOT_META, VE_SEED_BASE};
use aurora_mem::VeAddr;
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
use std::sync::Arc;
use veo_api::{ArgsStack, KernelLibrary, VeoContext};
use veos_sim::{AuroraMachine, HostSlice, VeProcess};

/// Geometry of one slot array.
#[derive(Clone, Copy, Debug)]
struct Slots {
    base: VeAddr,
    count: usize,
    stride: u64,
}

impl Slots {
    fn flag(&self, i: usize) -> VeAddr {
        self.base.offset(i as u64 * self.stride)
    }
    fn ts(&self, i: usize) -> VeAddr {
        self.flag(i).offset(8)
    }
    fn msg(&self, i: usize) -> VeAddr {
        self.flag(i).offset(SLOT_META)
    }
}

struct TargetChan {
    recv: Slots,
    send: Slots,
    ctx: Arc<VeoContext>,
    chan: ChannelCore,
}

/// The VEO communication backend (Fig. 5).
pub struct VeoBackend {
    core: AuroraCore,
    cfg: ProtocolConfig,
    channels: Vec<TargetChan>,
    plan: Arc<FaultPlan>,
}

impl VeoBackend {
    /// Set up the backend: create VE processes, allocate the
    /// communication buffers through VEO, communicate their addresses via
    /// the HAM-Offload C-API (Fig. 4), and start `ham_main()` on each VE.
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

    /// [`VeoBackend::spawn`] under a deterministic [`FaultPlan`]: each
    /// VE's PCIe link, DMA engine and process are armed with the plan
    /// (actor = node id), and an optional [`RecoveryPolicy`] arms
    /// timeout/retry on every channel. An all-zero plan and `None`
    /// policy behave bit-identically to [`VeoBackend::spawn`].
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
            // Arm this VE's PCIe link (and through it the user DMA
            // engines) with the plan; actor = node id keys the draws.
            core.machine()
                .topology()
                .link(proc.ve_id())
                .arm_faults(Arc::clone(&plan), node);
            let stride = cfg.slot_stride();
            let recv_base = proc
                .alloc_mem(cfg.array_bytes(cfg.recv_slots))
                .expect("recv buffer allocation");
            let send_base = proc
                .alloc_mem(cfg.array_bytes(cfg.send_slots))
                .expect("send buffer allocation");
            // Zero both arrays (flags must start invalid).
            let zeros = vec![0u8; cfg.array_bytes(cfg.recv_slots.max(cfg.send_slots)) as usize];
            proc.process()
                .write(
                    recv_base,
                    &zeros[..cfg.array_bytes(cfg.recv_slots) as usize],
                )
                .expect("zero recv");
            proc.process()
                .write(
                    send_base,
                    &zeros[..cfg.array_bytes(cfg.send_slots) as usize],
                )
                .expect("zero send");

            // The VE-side "binary": the same application library, with the
            // HAM-Offload C-API and ham_main() entry (Fig. 4).
            let registrar = Arc::clone(core.registrar());
            let node_id = node;
            let init_cfg: Arc<Mutex<Option<(Slots, Slots)>>> = Arc::new(Mutex::new(None));
            let init_cfg2 = Arc::clone(&init_cfg);
            let cfg2 = cfg;
            let ve_plan = Arc::clone(&plan);
            let lane_stats = Arc::clone(core.metrics().lane_stats());
            let lib = KernelLibrary::new()
                .with("ham_comm_init", move |_ve, args| {
                    let recv = Slots {
                        base: VeAddr(args.get_u64(0)),
                        count: args.get_u64(2) as usize,
                        stride: args.get_u64(4),
                    };
                    let send = Slots {
                        base: VeAddr(args.get_u64(1)),
                        count: args.get_u64(3) as usize,
                        stride: args.get_u64(4),
                    };
                    *init_cfg2.lock() = Some((recv, send));
                    0
                })
                .with("ham_main", move |ve, _args| {
                    let (recv, send) =
                        (*init_cfg.lock()).expect("ham_comm_init must run before ham_main");
                    let registry =
                        AuroraCore::build_registry(&registrar, VE_SEED_BASE + node_id as u64);
                    let mem = VeTargetMemory::new(Arc::clone(&ve.proc));
                    let meter = crate::core::VeComputeMeter::new(ve.proc.clock().clone());
                    let chan = VeSideChannel {
                        proc: Arc::clone(&ve.proc),
                        recv,
                        send,
                        cfg: cfg2,
                        next: std::cell::Cell::new(0),
                        node: node_id,
                        plan: Arc::clone(&ve_plan),
                    };
                    let runtime = DeviceRuntime::new(
                        DeviceConfig::new()
                            .with_lanes(cfg2.lanes)
                            .with_clock(ve.proc.clock().clone())
                            .with_stats(Arc::clone(&lane_stats)),
                    );
                    runtime.run(
                        &ham_offload::target_loop::TargetEnv {
                            node: node_id,
                            registry: &registry,
                            mem: &mem,
                            reverse: None,
                            meter: Some(&meter),
                            // VEO slot rotation delivers seqs in order,
                            // so recovery re-sends dedup by watermark.
                            dedup: true,
                        },
                        &chan,
                    )
                });
            proc.load_library(lib);
            let ctx = proc.open_context();
            let init = proc.get_sym("ham_comm_init").expect("C-API symbol");
            let req = ctx
                .call_async(
                    &init,
                    ArgsStack::new()
                        .push_u64(recv_base.get())
                        .push_u64(send_base.get())
                        .push_u64(cfg.recv_slots as u64)
                        .push_u64(cfg.send_slots as u64)
                        .push_u64(stride),
                )
                .expect("init call");
            ctx.wait_result(req).expect("init result");
            let main = proc.get_sym("ham_main").expect("ham_main symbol");
            ctx.call_async(&main, ArgsStack::new())
                .expect("start ham_main");

            channels.push(TargetChan {
                recv: Slots {
                    base: recv_base,
                    count: cfg.recv_slots,
                    stride,
                },
                send: Slots {
                    base: send_base,
                    count: cfg.send_slots,
                    stride,
                },
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

    fn chan(&self, node: NodeId) -> Result<&TargetChan, OffloadError> {
        self.core.target(node)?;
        Ok(&self.channels[node.0 as usize - 1])
    }
}

impl CommBackend for VeoBackend {
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

    /// Two `veo_write_mem`s: the message body, then the 16-byte ts+flag
    /// publish (the flag embeds its own quoted landing time).
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
        let proc = &self.core.target(target)?.proc;
        let r = res.recv_slot;
        // A recovery re-send must not re-arm a slot that already holds
        // this frame: see the DMA backend's `send_frame`. The header
        // peek is free, like `fetch_frame`'s.
        if res.attempt > 0 {
            let mut landed = [0u8; HEADER_BYTES];
            proc.process()
                .read(chan.recv.msg(r), &mut landed)
                .map_err(|e| OffloadError::Mem(e.to_string()))?;
            if landed[..] == frame[..HEADER_BYTES] {
                return Ok(());
            }
        }

        // Write 1: the message body — the engine-assembled wire frame,
        // verbatim.
        let vh = self.core.machine().vh(self.core.host_socket());
        self.core.with_staging(frame.len() as u64, |staging| {
            vh.write(staging, frame)
                .map_err(|e| OffloadError::Mem(e.to_string()))?;
            proc.write_mem(staging, chan.recv.msg(r), frame.len() as u64)
                .map_err(|e| OffloadError::Backend(e.to_string()))?;
            Ok(())
        })?;

        // Write 2: ts + flag, priced as one 16-byte VEO write. The DMA
        // manager is quoted first so the flag's landing time can be
        // embedded; the raw stores happen payload-before-flag.
        self.core.with_staging(SLOT_META, |staging| {
            let host = HostSlice {
                vh: Arc::clone(vh),
                vaddr: staging,
            };
            let landing = self
                .core
                .machine()
                .veos(proc.ve_id())
                .dma()
                .quote_write(self.core.host_clock(), &host, proc.process(), SLOT_META)
                .map_err(|e| OffloadError::Backend(e.to_string()))?;
            proc.process()
                .write(chan.recv.ts(r), &landing.as_ps().to_le_bytes())
                .map_err(|e| OffloadError::Mem(e.to_string()))?;
            proc.process()
                .store_flag(chan.recv.flag(r), res.seq + 1)
                .map_err(|e| OffloadError::Mem(e.to_string()))?;
            Ok(())
        })
    }

    /// Free peek of the result flag (`seq+1` = ready). A dead
    /// `ham_main` with no result pending errors the offload out.
    fn poll_flags(
        &self,
        target: NodeId,
        seq: u64,
        entry: &PendingEntry,
    ) -> Result<Option<u64>, OffloadError> {
        let chan = self.chan(target)?;
        let proc = &self.core.target(target)?.proc;
        let ready = proc
            .process()
            .load_flag(chan.send.flag(entry.send_slot))
            .map(|f| f == seq + 1)
            .unwrap_or(false);
        if ready {
            Ok(Some(0))
        } else if chan.ctx.is_alive() {
            Ok(None)
        } else {
            Err(OffloadError::TargetLost(target))
        }
    }

    /// Fetch a completed result: join its timestamp, pay the two VEO
    /// reads of the protocol.
    fn fetch_frame(
        &self,
        target: NodeId,
        seq: u64,
        entry: &PendingEntry,
        _token: u64,
    ) -> Result<Vec<u8>, OffloadError> {
        let chan = self.chan(target)?;
        let proc = &self.core.target(target)?.proc;
        let s = entry.send_slot;

        // The flag is set (caller peeked); join its landing time.
        let mut ts_bytes = [0u8; 8];
        proc.process()
            .read(chan.send.ts(s), &mut ts_bytes)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        self.core
            .host_clock()
            .join(SimTime::from_ps(u64::from_le_bytes(ts_bytes)));

        let vh = self.core.machine().vh(self.core.host_socket());
        // Charged read 1: flag + ts.
        self.core.with_staging(SLOT_META, |staging| {
            proc.read_mem(chan.send.flag(s), staging, SLOT_META)
                .map_err(|e| OffloadError::Backend(e.to_string()))?;
            Ok(())
        })?;
        // Peek the header (free) to size the charged message read.
        let mut hdr_bytes = [0u8; HEADER_BYTES];
        proc.process()
            .read(chan.send.msg(s), &mut hdr_bytes)
            .map_err(|e| OffloadError::Mem(e.to_string()))?;
        let header =
            MsgHeader::decode(&hdr_bytes).map_err(|e| OffloadError::Backend(e.to_string()))?;
        debug_assert_eq!(header.seq, seq, "result sequence mismatch");
        let total = HEADER_BYTES as u64 + header.payload_len as u64;
        // Charged read 2: header + payload.
        let mut frame = vec![0u8; header.payload_len as usize];
        self.core.with_staging(total, |staging| {
            proc.read_mem(chan.send.msg(s), staging, total)
                .map_err(|e| OffloadError::Backend(e.to_string()))?;
            let mut all = vec![0u8; total as usize];
            vh.read(staging, &mut all)
                .map_err(|e| OffloadError::Mem(e.to_string()))?;
            frame.copy_from_slice(&all[HEADER_BYTES..]);
            Ok(())
        })?;
        Ok(frame)
    }

    fn allocate(&self, node: NodeId, bytes: u64) -> Result<u64, OffloadError> {
        self.core.allocate(node, bytes)
    }

    fn free(&self, node: NodeId, addr: u64) -> Result<(), OffloadError> {
        self.core.free(node, addr)
    }

    fn put_bytes(&self, dst: RawBuffer, data: &[u8]) -> Result<(), OffloadError> {
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
            let Ok(chan) = self.chan(target) else {
                continue;
            };
            if chan.chan.begin_shutdown() {
                continue;
            }
            // Deliver the termination message (control frames bypass the
            // shutdown gate; a dead target is ignored), then stop
            // ham_main and join the context worker.
            if engine::post_control(self, target).is_err() && chan.ctx.is_alive() {
                // The control frame cannot reach the target (evicted
                // channel: its slot cursor is wedged on a lost frame's
                // hole). Reap the stranded VE process — the moral
                // equivalent of SIGKILLing an unreachable peer — or
                // the context join below would wait forever.
                self.plan.kill(node, self.core.host_clock().now());
            }
            chan.ctx.close();
        }
    }
}

impl Drop for VeoBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The VE side of the protocol: in-order polling of local recv flags.
struct VeSideChannel {
    proc: Arc<VeProcess>,
    recv: Slots,
    send: Slots,
    cfg: ProtocolConfig,
    next: std::cell::Cell<u64>,
    node: u16,
    plan: Arc<FaultPlan>,
}

impl VeSideChannel {
    /// Consume the published message in recv slot `i`: join its landing
    /// time, charge one local read, copy it into a pooled body, release
    /// the slot. `None` means the process died mid-read.
    fn consume(&self, i: usize, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
        // Arrival-driven virtual cost: join the flag's landing time and
        // charge one local read.
        let mut ts = [0u8; 8];
        self.proc.read(self.recv.ts(i), &mut ts).ok()?;
        self.proc.clock().join_then_advance(
            SimTime::from_ps(u64::from_le_bytes(ts)),
            calib::HAM_LOCAL_MEM_TOUCH,
        );
        let mut hdr = [0u8; HEADER_BYTES];
        self.proc.read(self.recv.msg(i), &mut hdr).ok()?;
        let header = MsgHeader::decode(&hdr).ok()?;
        if header.payload_len as usize > self.cfg.msg_bytes {
            return None; // corrupt header: stop the loop loudly.
        }
        let mut payload = pool.checkout();
        payload.resize(header.payload_len as usize, 0);
        self.proc
            .read(
                self.recv.msg(i).offset(HEADER_BYTES as u64),
                &mut payload[..],
            )
            .ok()?;
        // Release the slot for host reuse.
        self.proc.store_flag(self.recv.flag(i), 0).ok()?;
        self.next.set(self.next.get() + 1);
        Some((header, payload))
    }

    fn check_killed(&self) {
        if self.plan.killed(self.node) {
            // Injected VE process death: die like a crash, not a
            // shutdown — the panic clears the VEO context's
            // liveness flag and the host evicts the channel.
            panic!("fault injection: VE process {} killed", self.node);
        }
    }
}

impl TargetChannel for VeSideChannel {
    fn recv(&self, pool: &Arc<FramePool>) -> Option<(MsgHeader, PooledFrame)> {
        let i = (self.next.get() % self.recv.count as u64) as usize;
        let flag_addr = self.recv.flag(i);
        // Poll (real, zero virtual cost) until the host publishes.
        loop {
            self.check_killed();
            match self.proc.load_flag(flag_addr) {
                Ok(0) => std::thread::yield_now(),
                Ok(_seq_plus_one) => break,
                Err(_) => return None,
            }
        }
        self.consume(i, pool)
    }

    fn try_recv(&self, pool: &Arc<FramePool>) -> Polled {
        self.check_killed();
        let i = (self.next.get() % self.recv.count as u64) as usize;
        // One free peek: the host publishes slots in rotation order, so
        // an unset flag here means nothing further has arrived yet. A
        // message whose landing time is still ahead of the device clock
        // has not arrived *in virtual time* — consuming it would stall
        // the clock on the join instead of overlapping the arrival with
        // already-drained work, so it waits for a later window (or for
        // the blocking recv, where the device is genuinely idle).
        match self.proc.load_flag(self.recv.flag(i)) {
            Ok(0) => Polled::Empty,
            Ok(_seq_plus_one) => {
                let mut ts = [0u8; 8];
                if self.proc.read(self.recv.ts(i), &mut ts).is_err() {
                    return Polled::Closed;
                }
                if u64::from_le_bytes(ts) > self.proc.clock().now().as_ps() {
                    return Polled::Empty;
                }
                match self.consume(i, pool) {
                    Some((h, p)) => Polled::Msg(h, p),
                    None => Polled::Closed,
                }
            }
            Err(_) => Polled::Closed,
        }
    }

    fn send_result(&self, reply_slot: u16, seq: u64, payload: Vec<u8>) {
        let s = reply_slot as usize;
        debug_assert!(s < self.send.count);
        // Oversized results become error frames (see the DMA channel).
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
        // Target-side framework cost: dispatch, execution wrapper,
        // result serialisation.
        let clock = self.proc.clock();
        clock.advance(calib::HAM_TARGET_OVERHEAD);
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
        self.proc
            .write(self.send.msg(s), &bytes)
            .expect("result write");
        let landing = clock.advance(calib::HAM_LOCAL_MEM_TOUCH);
        self.proc
            .write(self.send.ts(s), &landing.as_ps().to_le_bytes())
            .expect("result ts");
        self.proc
            .store_flag(self.send.flag(s), seq + 1)
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

    fn backend(m: Arc<AuroraMachine>) -> Arc<VeoBackend> {
        VeoBackend::spawn(m, 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
            b.register::<inner_product>();
        })
    }

    #[test]
    fn empty_offload_costs_fig9_ham_veo() {
        let o = Offload::new(backend(machine()));
        let t0 = o.backend().host_clock().now();
        o.sync(NodeId(1), f2f!(empty)).unwrap();
        let cost = o.backend().host_clock().now() - t0;
        // Fig. 9: 432 us (5.4x the native VEO call), ±2 %.
        let us = cost.as_us_f64();
        assert!(
            (us - 432.0).abs() / 432.0 < 0.02,
            "HAM/VEO offload = {us} us"
        );
        o.shutdown();
    }

    #[test]
    fn inner_product_over_veo_protocol() {
        let o = Offload::new(backend(machine()));
        let t = NodeId(1);
        let a = o.allocate::<f64>(t, 128).unwrap();
        let b = o.allocate::<f64>(t, 128).unwrap();
        let xs: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..128).map(|i| (i as f64) * 0.5).collect();
        o.put(&xs, a).unwrap();
        o.put(&ys, b).unwrap();
        let r = o
            .sync(t, f2f!(inner_product, a.addr(), b.addr(), 128))
            .unwrap();
        let expect: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        assert_eq!(r, expect);
        o.shutdown();
    }

    #[test]
    fn pipelined_async_offloads() {
        let o = Offload::new(backend(machine()));
        let t = NodeId(1);
        let futures: Vec<_> = (0..20).map(|_| o.async_(t, f2f!(empty)).unwrap()).collect();
        for f in futures {
            f.get().unwrap();
        }
        o.shutdown();
    }

    #[test]
    fn wait_all_over_veo_protocol() {
        let o = Offload::new(backend(machine()));
        let t = NodeId(1);
        let futures: Vec<_> = (0..20).map(|_| o.async_(t, f2f!(empty)).unwrap()).collect();
        for r in o.wait_all(futures) {
            r.unwrap();
        }
        o.shutdown();
    }

    #[test]
    fn oversized_message_is_rejected() {
        let o = Offload::new(VeoBackend::spawn(
            machine(),
            0,
            &[0],
            ProtocolConfig {
                msg_bytes: 256,
                ..Default::default()
            },
            |b| {
                b.register::<big_args>();
            },
        ));
        let r = o.sync(NodeId(1), f2f!(big_args, vec![0u8; 1000]));
        assert!(matches!(r, Err(OffloadError::Backend(m)) if m.contains("exceeds")));
        o.shutdown();
    }

    ham_kernel! {
        pub fn big_args(_ctx, data: Vec<u8>) -> u64 { data.len() as u64 }
    }

    #[test]
    fn post_after_shutdown_fails() {
        let o = Offload::new(backend(machine()));
        o.shutdown();
        assert!(matches!(
            o.sync(NodeId(1), f2f!(empty)),
            Err(OffloadError::Shutdown)
        ));
    }

    #[test]
    fn refused_post_to_a_dead_idle_target_evicts_it() {
        // The VE dies with nothing in flight, so no flag sweep can see
        // the death: the refused post itself must latch the eviction.
        let be = VeoBackend::spawn_with_faults(
            machine(),
            0,
            &[0],
            ProtocolConfig::default(),
            FaultPlan::builder(1).build(),
            None,
            |b| {
                b.register::<empty>();
            },
        );
        let o = Offload::new(be.clone());
        o.sync(NodeId(1), f2f!(empty)).unwrap();
        o.kill_target(NodeId(1)).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while be.channels[0].ctx.is_alive() {
            assert!(std::time::Instant::now() < deadline, "VE never died");
            std::thread::yield_now();
        }
        assert!(matches!(
            o.sync(NodeId(1), f2f!(empty)),
            Err(OffloadError::TargetLost(NodeId(1)))
        ));
        assert!(be.channel(NodeId(1)).unwrap().eviction().is_some());
        o.shutdown();
    }

    #[test]
    fn second_socket_pays_upi() {
        // On a 2-socket machine, offloading from socket 1 to VE 0 must
        // not be cheaper than from socket 0 (UPI hops).
        let m = AuroraMachine::a300_8(MachineConfig {
            hbm_bytes: 16 << 20,
            vh_bytes: 32 << 20,
            ..Default::default()
        });
        let near = VeoBackend::spawn(Arc::clone(&m), 0, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        let far = VeoBackend::spawn(m, 1, &[0], ProtocolConfig::default(), |b| {
            b.register::<empty>();
        });
        let on = Offload::new(near);
        let of = Offload::new(far);
        let t0 = on.backend().host_clock().now();
        on.sync(NodeId(1), f2f!(empty)).unwrap();
        let near_cost = on.backend().host_clock().now() - t0;
        let t1 = of.backend().host_clock().now();
        of.sync(NodeId(1), f2f!(empty)).unwrap();
        let far_cost = of.backend().host_clock().now() - t1;
        assert!(far_cost >= near_cost, "near {near_cost}, far {far_cost}");
        on.shutdown();
        of.shutdown();
    }
}
