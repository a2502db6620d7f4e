//! The Run phase: the virtual-time simulation driver.
//!
//! On the paper's testbed the "driver" is reality: edge kernels emit packets,
//! the core's clock interrupts fire, netperf measures what arrives. In the
//! reproduction those roles are played by [`Runner`]: it owns the virtual
//! clock, an event queue, the multi-core emulator, every TCP/UDP endpoint and
//! every application instance, and it moves packets between them. All
//! behaviour — congestion response, queueing, drops, application adaptation —
//! emerges from the same state machines the paper's experiments exercise.

use std::any::Any;
use std::collections::HashMap;
use std::collections::VecDeque;

/// First port handed out by the runner's allocator; ports index the dense
/// flow-dispatch table below after subtracting this base.
const PORT_BASE: u16 = 10_000;

/// What a runner-allocated port is bound to. Deliveries dispatch on the
/// packet's source port with one indexed read instead of hashing the 5-tuple.
#[derive(Debug, Clone, Copy)]
enum PortBinding {
    /// TCP channel index in `Runner::channels`.
    Tcp(usize),
    /// UDP flow index in `Runner::udp_flows`.
    Udp(usize),
}

/// A tag byte (0 TCP, 1 UDP), then the index.
impl Codec for PortBinding {
    const MIN_BYTES: usize = 1 + usize::MIN_BYTES;

    fn put(&self, w: &mut ByteWriter) {
        match *self {
            PortBinding::Tcp(ch) => (0u8, ch).put(w),
            PortBinding::Udp(flow) => (1u8, flow).put(w),
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(PortBinding::Tcp(usize::get(r)?)),
            1 => Ok(PortBinding::Udp(usize::get(r)?)),
            _ => Err(CodecError::Invalid("port binding tag")),
        }
    }
}

use mn_assign::Binding;
use mn_distill::{DistilledTopology, PipeAttrs, PipeId};
use mn_dynamics::{DynamicsTarget, ScheduleRestoreError};
use mn_edge::{AppAction, AppCtx, Application, Message};
use mn_emucore::snapshot::frame_sum;
use mn_emucore::{Delivery, EmuError, Emulator, SubmitOutcome, SNAPSHOT_VERSION};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::RouteUpdate;
use mn_topology::NodeId;
use mn_transport::{
    BulkSender, SegmentToSend, TcpConfig, TcpConnection, UdpStream, UdpStreamConfig,
};
use mn_util::codec::{checksum64, checksum64_around, Transient};
use mn_util::{ByteReader, ByteSize, ByteWriter, Cdf, Codec, CodecError, DataRate, SimDuration};
use mn_util::{SimTime, TimerWheel};

/// Which execution backend drives the emulation core(s).
///
/// Both backends run the same emulation and produce bit-identical results
/// (pinned by the determinism and differential suites); they differ only in
/// how the work is executed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionBackend {
    /// All cores advance cooperatively on the calling thread. Lowest
    /// overhead for light workloads and the only backend whose cores can be
    /// read directly (`runner.emulator().cores()`).
    #[default]
    Sequential,
    /// Every core runs on its own OS thread ([`Emulator::threaded`]),
    /// exchanging tunnelled descriptors through per-pair mailboxes at an
    /// epoch barrier. Scales heavy emulation work across host CPUs.
    Threaded,
}

/// An emulator as a caller that builds one itself hands it to
/// [`Runner::with_backend`]. Both variants hold the same type: the emulator
/// knows where its cores run, and the variant only names it.
#[derive(Debug)]
pub enum EmulatorBackend {
    /// Cooperative execution on the calling thread.
    Sequential(Emulator),
    /// One OS thread per emulated core.
    Threaded(Emulator),
}

impl From<EmulatorBackend> for Emulator {
    fn from(backend: EmulatorBackend) -> Self {
        match backend {
            EmulatorBackend::Sequential(emulator) | EmulatorBackend::Threaded(emulator) => emulator,
        }
    }
}

/// An emulator as the dynamics engine reconfigures it: one coordinator
/// applies in-place pipe mutation, CBR demands, incremental rerouting,
/// fluid flows and churn on every executor, so a [`mn_dynamics::Schedule`]
/// applies identically (bit for bit) whichever one drives the run.
pub struct Reconfigure<'a>(pub &'a mut Emulator);

impl DynamicsTarget for Reconfigure<'_> {
    fn update_pipe_attrs(&mut self, pipe: PipeId, attrs: PipeAttrs) -> bool {
        self.0.update_pipe_attrs(pipe, attrs)
    }

    fn set_pipe_compensation(
        &mut self,
        pipe: PipeId,
        rate: Option<DataRate>,
        from: SimTime,
    ) -> bool {
        self.0.set_pipe_compensation(pipe, rate, from)
    }

    fn reroute(&mut self, topo: &DistilledTopology, changed: &[PipeId]) -> RouteUpdate {
        self.0.reroute(topo, changed)
    }

    fn add_fluid_flow(
        &mut self,
        tag: u64,
        src: VnId,
        dst: VnId,
        demand: DataRate,
        clients: u32,
        at: SimTime,
    ) -> bool {
        self.0.add_fluid_flow(tag, src, dst, demand, clients, at)
    }

    fn resize_fluid_flow(&mut self, tag: u64, demand: DataRate, clients: u32, at: SimTime) -> bool {
        self.0.resize_fluid_flow(tag, demand, clients, at)
    }

    fn remove_fluid_flow(&mut self, tag: u64, at: SimTime) -> bool {
        self.0.remove_fluid_flow(tag, at)
    }

    fn vn_join(
        &mut self,
        topo: &DistilledTopology,
        vn: VnId,
        location: NodeId,
        at: SimTime,
    ) -> bool {
        self.0.vn_join(topo, vn, location, at)
    }

    fn vn_leave(&mut self, vn: VnId, at: SimTime) -> bool {
        self.0.vn_leave(vn, at)
    }
}

/// Identifier of a TCP flow or application channel created on the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub usize);

/// Identifier of a UDP flow created on the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpFlowId(pub usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    A,
    B,
}

/// One byte: 0 for A, 1 for B.
impl Codec for Side {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(*self as u8);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Side::A),
            1 => Ok(Side::B),
            _ => Err(CodecError::Invalid("channel side")),
        }
    }
}

/// Work the driver loop has done, in events popped from its queue. Exact
/// counts of virtual-time behaviour (they repeat run to run), kept outside
/// snapshots and digests: they describe this `Runner`, not the emulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverCounters {
    /// Every event handled (wakeups, timers, polls, flow starts, ...).
    pub events: u64,
    /// TCP endpoint timer events among them.
    pub timer_events: u64,
    /// Timer events that found no timer due: the deadline they were armed
    /// for had moved or been cancelled by the time they fired.
    pub stale_timer_events: u64,
}

#[derive(Debug)]
enum Event {
    /// The emulator has scheduler work due.
    EmuWakeup,
    /// A TCP endpoint's timer may have expired.
    ChannelTimer { ch: usize, side: Side },
    /// An application timer fires.
    AppTimer { vn: VnId, token: u64 },
    /// A UDP source has datagrams due.
    UdpPoll { flow: usize },
    /// A bulk flow starts transmitting.
    FlowStart { ch: usize },
    /// A reconfiguration apply point: the dynamics schedule has events due.
    Reconfig,
    /// An auto-checkpoint point: serialize the run and arm the next one.
    Checkpoint,
}

/// A tag byte, then the variant's fields: 0 emulator wakeup, 1 channel
/// timer, 2 application timer, 3 UDP poll, 4 flow start, 5 reconfiguration,
/// 6 checkpoint.
impl Codec for Event {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut ByteWriter) {
        match *self {
            Event::EmuWakeup => w.put_u8(0),
            Event::ChannelTimer { ch, side } => (1u8, ch, side).put(w),
            Event::AppTimer { vn, token } => (2u8, vn, token).put(w),
            Event::UdpPoll { flow } => (3u8, flow).put(w),
            Event::FlowStart { ch } => (4u8, ch).put(w),
            Event::Reconfig => w.put_u8(5),
            Event::Checkpoint => w.put_u8(6),
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => Event::EmuWakeup,
            1 => Event::ChannelTimer {
                ch: usize::get(r)?,
                side: Side::get(r)?,
            },
            2 => Event::AppTimer {
                vn: VnId::get(r)?,
                token: u64::get(r)?,
            },
            3 => Event::UdpPoll {
                flow: usize::get(r)?,
            },
            4 => Event::FlowStart { ch: usize::get(r)? },
            5 => Event::Reconfig,
            6 => Event::Checkpoint,
            _ => return Err(CodecError::Invalid("runner event tag")),
        })
    }
}

/// Magic bytes identifying a runner snapshot ("MNRS"). The runner frames its
/// own payload, which nests the emulator snapshot. The frame carries
/// [`SNAPSHOT_VERSION`], as the nested one does, and is read in the same
/// versions ([`frame_sum`]); its sum covers the runner's own fields and the
/// nested frame's header and checksum, not that frame's payload a second
/// time ([`checksum_around_emulator_frame`]).
const RUNNER_SNAPSHOT_MAGIC: u32 = 0x4D4E_5253;

/// The `MNRS` sum of a payload: the virtual clock, a length and the `MNSP`
/// frame of that length lead it, and everything but that frame's own
/// payload is summed ([`checksum64_around`]). A payload too short to hold
/// what it says is summed whole — the decoder then refuses it.
fn checksum_around_emulator_frame(payload: &[u8]) -> u64 {
    let mut r = ByteReader::new(payload);
    let frame = SimTime::get(&mut r).and_then(|_| r.get_len());
    match frame {
        Ok(len) if len >= 24 && len <= r.remaining() => checksum64_around(payload, 16..16 + len),
        _ => checksum64(payload),
    }
}

/// Why [`Runner::snapshot`] refused to serialize the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// An application instance is installed. Application state is opaque
    /// (`Box<dyn Application>` plus type-erased in-flight message bodies),
    /// so checkpointing is only supported for runs driven by raw TCP/UDP
    /// flows and the dynamics schedule.
    AppsNotSupported,
    /// An application channel holds messages written but not yet dispatched
    /// (unreachable without apps installed; checked defensively).
    PendingAppMessages,
    /// The emulator itself failed (a dead or stalled worker on the threaded
    /// backend).
    Emulator(EmuError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::AppsNotSupported => {
                write!(f, "snapshot does not support installed applications")
            }
            SnapshotError::PendingAppMessages => {
                write!(f, "snapshot with undispatched application messages")
            }
            SnapshotError::Emulator(e) => write!(f, "emulator snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Why [`Runner::recover_from`] refused to restore a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// An application instance is installed on the recovering runner.
    AppsNotSupported,
    /// The snapshot bytes are truncated, corrupted or from an incompatible
    /// format version.
    Codec(CodecError),
    /// The snapshot carries a dynamics-schedule cursor but this runner has
    /// no schedule installed (or vice versa): the runner was not built from
    /// the same experiment configuration.
    ScheduleMismatch,
    /// The schedule cursor does not reconcile with the restored virtual
    /// time (see [`ScheduleRestoreError`]).
    Schedule(ScheduleRestoreError),
}

impl From<CodecError> for RecoverError {
    fn from(e: CodecError) -> Self {
        RecoverError::Codec(e)
    }
}

impl From<ScheduleRestoreError> for RecoverError {
    fn from(e: ScheduleRestoreError) -> Self {
        RecoverError::Schedule(e)
    }
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::AppsNotSupported => {
                write!(f, "recovery does not support installed applications")
            }
            RecoverError::Codec(e) => write!(f, "snapshot decode failed: {e:?}"),
            RecoverError::ScheduleMismatch => write!(
                f,
                "snapshot and runner disagree about having a dynamics schedule"
            ),
            RecoverError::Schedule(e) => write!(f, "schedule restore failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

mn_util::codec_record! {
    /// Per-direction message framing state of an application channel. A
    /// snapshot carries the two offsets; there is no outbox to carry, since
    /// only runs without applications are checkpointed.
    #[derive(Debug, Default)]
    struct DirState {
        /// Messages written to the stream and not yet dispatched at the
        /// receiver: (cumulative end offset in the stream, message).
        outbox: Transient<VecDeque<(u64, Message)>>,
        /// Total bytes written to the stream so far.
        written: u64,
        /// Receiver-side bytes already dispatched to the application.
        dispatched: u64,
    }
}

mn_util::codec_record! {
    /// One TCP connection between two VNs (an application channel or a raw
    /// bulk flow).
    #[derive(Debug)]
    struct Channel {
        a: VnId,
        b: VnId,
        port: u16,
        conn_a: TcpConnection,
        conn_b: TcpConnection,
        a_to_b: DirState,
        b_to_a: DirState,
        /// Bulk generator pumping the A-side, for raw netperf-style flows.
        bulk_a: Option<BulkSender>,
        /// Size of the fixed transfer, if bounded.
        bulk_total: Option<u64>,
        started: bool,
        start_at: SimTime,
        completed_at: Option<SimTime>,
        is_app_channel: bool,
        /// Per side (`Side as usize`): the times of this endpoint's
        /// `ChannelTimer` events still in the driver queue, latest first, so
        /// the last entry is the next to fire. An event is only pushed for a
        /// deadline earlier than every outstanding one, which keeps the list
        /// strictly decreasing and as short as the endpoint has distinct
        /// timers. It mirrors the queue exactly — never serialized, rebuilt
        /// from the pending events on restore.
        armed: Transient<[Vec<SimTime>; 2]>,
    }
}

impl Channel {
    fn conn(&self, side: Side) -> &TcpConnection {
        match side {
            Side::A => &self.conn_a,
            Side::B => &self.conn_b,
        }
    }

    fn conn_mut(&mut self, side: Side) -> &mut TcpConnection {
        match side {
            Side::A => &mut self.conn_a,
            Side::B => &mut self.conn_b,
        }
    }

    fn side_of(&self, vn: VnId) -> Option<Side> {
        if vn == self.a {
            Some(Side::A)
        } else if vn == self.b {
            Some(Side::B)
        } else {
            None
        }
    }
}

mn_util::codec_record! {
    /// A UDP flow (paced datagram source plus receiver counters).
    #[derive(Debug)]
    struct UdpFlow {
        src: VnId,
        dst: VnId,
        port: u16,
        stream: UdpStream,
        payload: u32,
        received: u64,
        bytes_received: u64,
        sent: u64,
    }
}

/// The simulation driver.
pub struct Runner {
    now: SimTime,
    /// The driver's wakeup queue. Emulator wakeups, TCP timers and UDP pacing
    /// are dense near-term deadlines, so they ride the same O(1) timing wheel
    /// as the core scheduler; idle application timers fall through to the
    /// wheel's overflow level.
    ///
    /// Invariant: a TCP endpoint has at most one *live* `ChannelTimer` event
    /// here — one firing at or before its `next_timer()` — plus the
    /// superseded ones armed for a later deadline before an earlier timer
    /// appeared (an RTO event under a delayed-ACK one). Those are bounded by
    /// the endpoint's number of distinct timers and retire when they fire,
    /// so the queue stays O(endpoints) however long the run (see
    /// [`Channel::armed`]).
    events: TimerWheel<Event>,
    emulator: Emulator,
    binding: Binding,
    tcp_config: TcpConfig,
    channels: Vec<Channel>,
    /// Dense port-indexed dispatch table: `port_bindings[port - PORT_BASE]`.
    port_bindings: Vec<PortBinding>,
    app_channel_by_pair: HashMap<(VnId, VnId), usize>,
    udp_flows: Vec<UdpFlow>,
    /// Application instances indexed densely by `VnId`.
    apps: Vec<Option<Box<dyn Application>>>,
    metrics: HashMap<&'static str, Cdf>,
    next_packet_id: u64,
    packets_submitted: u64,
    packets_delivered: u64,
    emu_wakeup_at: Option<SimTime>,
    apps_started: bool,
    /// Reusable buffer the emulator drains deliveries into; capacity
    /// persists across wakeups so the steady state allocates nothing.
    delivery_buf: Vec<Delivery>,
    /// Reusable buffers the transports poll into, same reason.
    segment_buf: Vec<SegmentToSend>,
    datagram_buf: Vec<u64>,
    counters: DriverCounters,
    /// Runtime reconfiguration engine, when the experiment carries a
    /// dynamics schedule. Taken out of the slot while applying (the engine
    /// mutates the backend, which also lives on `self`).
    dynamics: Option<mn_dynamics::ScheduleEngine>,
    /// The worker failure that poisoned the run, if any. Once set, every
    /// `run_until`/`run_for` call returns it until the runner recovers from
    /// a snapshot.
    failure: Option<EmuError>,
    /// Auto-checkpoint cadence, when armed (see
    /// [`Runner::set_auto_checkpoint`]).
    auto_checkpoint: Option<SimDuration>,
    /// The one instant a queued checkpoint event checkpoints at: an event
    /// for any other (one queued before a re-arm) is stale.
    checkpoint_at: Option<SimTime>,
    /// The most recent auto-checkpoint: (virtual time, framed snapshot).
    last_checkpoint: Option<(SimTime, Vec<u8>)>,
    /// Why auto-checkpointing disarmed itself, if it did.
    checkpoint_failure: Option<SnapshotError>,
}

impl Runner {
    /// Creates a runner over an already-built emulator, on either executor
    /// (sequential or threaded; see [`ExecutionBackend`]), and its binding.
    /// Most users construct one through [`crate::Experiment`].
    pub fn with_backend(
        emulator: impl Into<Emulator>,
        binding: Binding,
        tcp_config: TcpConfig,
    ) -> Self {
        Runner {
            now: SimTime::ZERO,
            events: TimerWheel::new(),
            emulator: emulator.into(),
            binding,
            tcp_config,
            channels: Vec::new(),
            port_bindings: Vec::new(),
            app_channel_by_pair: HashMap::new(),
            udp_flows: Vec::new(),
            apps: Vec::new(),
            metrics: HashMap::new(),
            next_packet_id: 0,
            packets_submitted: 0,
            packets_delivered: 0,
            emu_wakeup_at: None,
            apps_started: false,
            delivery_buf: Vec::new(),
            segment_buf: Vec::new(),
            datagram_buf: Vec::new(),
            counters: DriverCounters::default(),
            dynamics: None,
            failure: None,
            auto_checkpoint: None,
            checkpoint_at: None,
            last_checkpoint: None,
            checkpoint_failure: None,
        }
    }

    /// Installs a runtime reconfiguration engine: every scheduled event
    /// time becomes an apply point in the driver's event queue, where the
    /// engine mutates pipe parameters in place, installs/removes CBR
    /// injectors and incrementally reroutes — identically on both
    /// execution backends. Usually called through
    /// [`crate::Experiment::with_schedule`].
    pub fn install_schedule(&mut self, engine: mn_dynamics::ScheduleEngine) {
        for at in engine.schedule().times() {
            self.events.push(at.max(self.now), Event::Reconfig);
        }
        self.dynamics = Some(engine);
    }

    /// The reconfiguration engine, if a schedule is installed (its
    /// topology view reflects every change applied so far).
    pub fn dynamics(&self) -> Option<&mn_dynamics::ScheduleEngine> {
        self.dynamics.as_ref()
    }

    // ------------------------------------------------------------------
    // Setup API
    // ------------------------------------------------------------------

    /// The VNs available in this emulation, in binding order.
    pub fn vn_ids(&self) -> Vec<VnId> {
        self.binding.vns().collect()
    }

    /// The binding produced by the Bind phase.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// The emulator, on whichever executor drives it.
    pub fn backend(&self) -> &Emulator {
        &self.emulator
    }

    /// Mutable access to the emulator: routing changes, pipe updates,
    /// fluid flows and churn, on either executor. Work added here is
    /// picked up by the next `run_until` / `run_for`.
    pub fn backend_mut(&mut self) -> &mut Emulator {
        &mut self.emulator
    }

    /// The emulator, the same as [`Runner::backend`]: core statistics,
    /// accuracy logs and pipe counters (`cores()` only while it runs
    /// inline).
    pub fn emulator(&self) -> &Emulator {
        &self.emulator
    }

    /// Installs an application instance on a VN. Applications receive
    /// `on_start` when the run begins (or immediately, if it already has).
    pub fn add_application(&mut self, vn: VnId, app: Box<dyn Application>) {
        if self.apps.len() <= vn.index() {
            self.apps.resize_with(vn.index() + 1, || None);
        }
        self.apps[vn.index()] = Some(app);
        if self.apps_started {
            self.start_app(vn);
        }
    }

    /// Returns a typed view of the application bound to `vn`.
    pub fn app_as<T: Any>(&self, vn: VnId) -> Option<&T> {
        self.app(vn).and_then(|a| a.as_any().downcast_ref())
    }

    /// The application bound to `vn`, if any.
    #[inline]
    fn app(&self, vn: VnId) -> Option<&dyn Application> {
        self.apps.get(vn.index()).and_then(|a| a.as_deref())
    }

    /// Mutable access to the application bound to `vn`.
    #[inline]
    fn app_mut(&mut self, vn: VnId) -> Option<&mut Box<dyn Application>> {
        self.apps.get_mut(vn.index()).and_then(|a| a.as_mut())
    }

    /// Creates a netperf-style TCP flow from `src` to `dst`. `size = None`
    /// keeps transmitting for the whole run; `Some(size)` stops after exactly
    /// that many bytes (Figure 9's fixed file transfers).
    pub fn add_bulk_flow(
        &mut self,
        src: VnId,
        dst: VnId,
        size: Option<ByteSize>,
        start: SimTime,
    ) -> FlowId {
        let ch = self.push_channel(src, dst, false);
        let channel = &mut self.channels[ch];
        channel.bulk_a = Some(match size {
            Some(s) => BulkSender::fixed(s),
            None => BulkSender::unbounded(),
        });
        channel.bulk_total = size.map(|s| s.as_bytes());
        channel.start_at = start;
        self.events.push(start, Event::FlowStart { ch });
        FlowId(ch)
    }

    /// Creates a paced UDP flow from `src` to `dst`.
    pub fn add_udp_flow(
        &mut self,
        src: VnId,
        dst: VnId,
        config: UdpStreamConfig,
        start: SimTime,
    ) -> UdpFlowId {
        let idx = self.udp_flows.len();
        let port = self.bind_port(PortBinding::Udp(idx));
        let payload = config.payload;
        let flow = UdpFlow {
            src,
            dst,
            port,
            stream: UdpStream::new(config, start),
            payload,
            received: 0,
            bytes_received: 0,
            sent: 0,
        };
        self.udp_flows.push(flow);
        self.events.push(start, Event::UdpPoll { flow: idx });
        UdpFlowId(idx)
    }

    // ------------------------------------------------------------------
    // Results API
    // ------------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Packets submitted to the emulated network so far.
    pub fn packets_submitted(&self) -> u64 {
        self.packets_submitted
    }

    /// Packets delivered by the emulated network so far.
    pub fn packets_delivered(&self) -> u64 {
        self.packets_delivered
    }

    /// What the driver loop has handled so far (see [`DriverCounters`]).
    pub fn driver_counters(&self) -> DriverCounters {
        self.counters
    }

    /// Events waiting in the driver's queue.
    pub fn pending_driver_events(&self) -> usize {
        self.events.len()
    }

    /// Bytes acknowledged end-to-end on a TCP flow.
    pub fn flow_bytes_acked(&self, flow: FlowId) -> u64 {
        self.channels
            .get(flow.0)
            .map_or(0, |c| c.conn_a.bytes_acked())
    }

    /// Goodput of a TCP flow in kilobits/second, measured from its start time
    /// to `now` (or to completion, for fixed transfers).
    pub fn flow_goodput_kbps(&self, flow: FlowId) -> f64 {
        let Some(c) = self.channels.get(flow.0) else {
            return 0.0;
        };
        let end = c.completed_at.unwrap_or(self.now);
        let elapsed = end.duration_since(c.start_at).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            c.conn_a.bytes_acked() as f64 * 8.0 / elapsed / 1e3
        }
    }

    /// Completion time of a fixed-size TCP flow, if it has finished.
    pub fn flow_completed_at(&self, flow: FlowId) -> Option<SimTime> {
        self.channels.get(flow.0).and_then(|c| c.completed_at)
    }

    /// Retransmissions suffered by a TCP flow's sender.
    pub fn flow_retransmissions(&self, flow: FlowId) -> u64 {
        self.channels
            .get(flow.0)
            .map_or(0, |c| c.conn_a.retransmissions())
    }

    /// Datagrams received and payload bytes received on a UDP flow.
    pub fn udp_flow_received(&self, flow: UdpFlowId) -> (u64, u64) {
        self.udp_flows
            .get(flow.0)
            .map_or((0, 0), |f| (f.received, f.bytes_received))
    }

    /// Datagrams sent on a UDP flow.
    pub fn udp_flow_sent(&self, flow: UdpFlowId) -> u64 {
        self.udp_flows.get(flow.0).map_or(0, |f| f.sent)
    }

    /// The samples recorded by applications under `metric`.
    pub fn metric(&self, metric: &str) -> Option<&Cdf> {
        self.metrics.get(metric)
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs the emulation until virtual time `deadline`.
    ///
    /// An `Err` means a worker core of the threaded backend died or
    /// stalled; the run is poisoned (every further call returns the same
    /// error) until [`Runner::recover_from`] rebuilds it from a checkpoint.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), EmuError> {
        if let Some(error) = &self.failure {
            return Err(error.clone());
        }
        // Work added straight to the emulator since the last event (a fluid
        // flow, a reroute) needs a wakeup the queue may not hold yet.
        self.schedule_emu_wakeup();
        if !self.apps_started {
            self.apps_started = true;
            let vns: Vec<VnId> = (0..self.apps.len() as u32)
                .map(VnId)
                .filter(|&vn| self.app(vn).is_some())
                .collect();
            for vn in vns {
                self.start_app(vn);
            }
        }
        // pop_due hits the wheel's amortized O(1) path; a peek-then-pop pair
        // would scan a not-yet-active slot twice.
        while let Some((t, event)) = self.events.pop_due(deadline) {
            self.now = self.now.max(t);
            self.handle_event(t, event);
            if let Some(error) = &self.failure {
                return Err(error.clone());
            }
        }
        self.now = self.now.max(deadline);
        Ok(())
    }

    /// Runs the emulation for `duration` of additional virtual time, or to
    /// [`SimTime::MAX`], the end of virtual time, if that comes first.
    pub fn run_for(&mut self, duration: SimDuration) -> Result<(), EmuError> {
        self.run_until(self.now.saturating_add(duration))
    }

    /// The worker failure that stopped the run, if any.
    pub fn failure(&self) -> Option<&EmuError> {
        self.failure.as_ref()
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore
    // ------------------------------------------------------------------

    /// Serializes the complete run state — virtual clock, the emulator
    /// snapshot (pipes, wheels, RNGs, routes, fluid flows), every TCP/UDP
    /// endpoint, pending driver events, flow counters and the dynamics
    /// cursor — into a framed, versioned, checksummed byte string.
    ///
    /// Restoring via [`Runner::recover_from`] on a freshly built runner
    /// from the same experiment configuration and running forward is
    /// bit-identical to never having stopped, on either backend at any
    /// core count. Runs with applications installed are not supported
    /// (application state is type-erased).
    ///
    /// A checkpoint is one allocation of exactly its length
    /// ([`Runner::snapshot_into`]).
    pub fn snapshot(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let mut bytes = Vec::new();
        self.snapshot_into(&mut bytes)?;
        Ok(bytes)
    }

    /// [`Runner::snapshot`] into `buf`, replacing what it held: the frame
    /// is measured (written once to a measuring writer), then written into
    /// `buf`'s allocation if that has room, else into one of exactly the
    /// frame's length ([`ByteWriter::write_exact`]). A refusal, and a
    /// worker failure met while the frame is measured, leave `buf` as it
    /// was; a worker failure met while it is written leaves `buf` empty.
    pub fn snapshot_into(&mut self, buf: &mut Vec<u8>) -> Result<(), SnapshotError> {
        if self.apps.iter().any(|a| a.is_some()) {
            return Err(SnapshotError::AppsNotSupported);
        }
        let outboxes = self.channels.iter().flat_map(|ch| [&ch.a_to_b, &ch.b_to_a]);
        if outboxes.into_iter().any(|dir| !dir.outbox.is_empty()) {
            return Err(SnapshotError::PendingAppMessages);
        }
        ByteWriter::write_exact(buf, |w| self.put_frame(w))
    }

    /// Appends the `MNRS` frame. It is written out rather than declared: it
    /// nests the emulator's frame, whose length is patched in once it is
    /// streamed and whose payload the outer sum skips. Everything else in
    /// it is records.
    fn put_frame(&mut self, w: &mut ByteWriter) -> Result<(), SnapshotError> {
        let frame = w.begin_frame(RUNNER_SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.put_time(self.now);
        w.put_len(0);
        let emu_start = w.len();
        (self.emulator.snapshot_into(w)).map_err(SnapshotError::Emulator)?;
        let emu_frame = emu_start..w.len();
        w.patch_u64(emu_start - 8, emu_frame.len() as u64);
        let entries = self.events.entries_in_order();
        w.put_len(entries.len());
        for (at, event) in entries {
            at.put(w);
            event.put(w);
        }
        self.channels.put(w);
        self.port_bindings.put(w);
        self.udp_flows.put(w);
        self.next_packet_id.put(w);
        self.packets_submitted.put(w);
        self.packets_delivered.put(w);
        self.emu_wakeup_at.put(w);
        self.apps_started.put(w);
        let cursor = self.dynamics.as_ref().map(|engine| engine.cursor());
        (cursor, self.auto_checkpoint, self.checkpoint_at).put(w);
        // The emulator's payload is under its own frame's sum already.
        w.end_frame_around(frame, emu_frame);
        Ok(())
    }

    /// Restores a [`Runner::snapshot`] into this runner, replacing its
    /// entire run state.
    ///
    /// The runner must have been built from the same experiment
    /// configuration as the one that took the snapshot (same topology,
    /// binding, seeds and schedule) and must not have run yet when a
    /// dynamics schedule is installed (the schedule cursor fast-forward
    /// requires a fresh engine). The emulator is restored into whichever
    /// execution backend this runner uses — on the threaded backend that
    /// rebuilds a fresh worker pool, which is how a run poisoned by a
    /// worker failure recovers.
    pub fn recover_from(&mut self, bytes: &[u8]) -> Result<(), RecoverError> {
        if self.apps.iter().any(|a| a.is_some()) {
            return Err(RecoverError::AppsNotSupported);
        }
        let (_, mut r) = ByteReader::open_frame(bytes, RUNNER_SNAPSHOT_MAGIC, |v| {
            frame_sum(v, checksum_around_emulator_frame)
        })?;
        // Decode everything into locals first: a decode error part-way
        // through must leave the runner untouched. The emulator's frame is
        // borrowed where it lies; counts are bounded by their smallest record.
        let now = SimTime::get(&mut r)?;
        let emu_len = r.get_len()?;
        let emu_frame = r.take_bytes(emu_len)?;
        let pending = Vec::<(SimTime, Event)>::get(&mut r)?;
        let mut channels = Vec::<Channel>::get(&mut r)?;
        let port_bindings = Vec::<PortBinding>::get(&mut r)?;
        let udp_flows = Vec::<UdpFlow>::get(&mut r)?;
        let (next_packet_id, packets_submitted, packets_delivered) = Codec::get(&mut r)?;
        let (emu_wakeup_at, apps_started) = Codec::get(&mut r)?;
        let (dynamics_cursor, auto_checkpoint, checkpoint_at) = Codec::get(&mut r)?;
        r.finish()?;
        // The event loop and the delivery path index `channels` and
        // `udp_flows` with what the snapshot says, unchecked: refuse any
        // index they do not cover. The same walk over the pending events
        // rebuilds each endpoint's armed-timer list, which is a function of
        // the queue alone and must hold for any multiset of timer events, in
        // any order, as a hand-built frame may hold: many per endpoint,
        // several at one instant.
        for binding in &port_bindings {
            let in_range = match *binding {
                PortBinding::Tcp(ch) => ch < channels.len(),
                PortBinding::Udp(flow) => flow < udp_flows.len(),
            };
            if !in_range {
                return Err(CodecError::Invalid("port binding index").into());
            }
        }
        let mut events = TimerWheel::new();
        for (at, event) in pending {
            match event {
                Event::ChannelTimer { ch, side } => channels
                    .get_mut(ch)
                    .ok_or(CodecError::Invalid("timer event channel index"))?
                    .armed[side as usize]
                    .push(at),
                Event::FlowStart { ch } if ch >= channels.len() => {
                    return Err(CodecError::Invalid("flow start channel index").into());
                }
                Event::UdpPoll { flow } if flow >= udp_flows.len() => {
                    return Err(CodecError::Invalid("UDP poll flow index").into());
                }
                // Runs with applications are never checkpointed.
                Event::AppTimer { .. } => {
                    return Err(CodecError::Invalid("runner event tag").into());
                }
                _ => {}
            }
            events.push(at, event);
        }
        for channel in &mut channels {
            for armed in channel.armed.iter_mut() {
                armed.sort_unstable_by(|a, b| b.cmp(a));
            }
        }
        // On the threaded backend this spawns a fresh worker pool; a
        // poisoned one is torn down when the old value drops.
        let emulator = self.emulator.restore_like(emu_frame)?;
        // Fast-forward the schedule engine (validates the cursor against
        // the restored time) before replacing any state.
        match (dynamics_cursor, self.dynamics.as_mut()) {
            (Some(cursor), Some(engine)) => engine.restore_cursor(cursor, now)?,
            (None, None) => {}
            _ => return Err(RecoverError::ScheduleMismatch),
        }
        self.emulator = emulator;
        self.now = now;
        self.events = events;
        self.channels = channels;
        self.port_bindings = port_bindings;
        self.udp_flows = udp_flows;
        self.app_channel_by_pair.clear();
        for (idx, ch) in self.channels.iter().enumerate() {
            if ch.is_app_channel {
                self.app_channel_by_pair.insert((ch.a, ch.b), idx);
                self.app_channel_by_pair.insert((ch.b, ch.a), idx);
            }
        }
        self.next_packet_id = next_packet_id;
        self.packets_submitted = packets_submitted;
        self.packets_delivered = packets_delivered;
        self.emu_wakeup_at = emu_wakeup_at;
        self.apps_started = apps_started;
        self.auto_checkpoint = auto_checkpoint;
        self.checkpoint_at = checkpoint_at;
        self.failure = None;
        self.checkpoint_failure = None;
        self.delivery_buf.clear();
        self.metrics.clear();
        Ok(())
    }

    /// Arms periodic auto-checkpointing: every `every` of virtual time the
    /// runner serializes itself and keeps the most recent snapshot (see
    /// [`Runner::last_checkpoint`]), each written over the one before
    /// ([`Runner::snapshot_into`]). If a checkpoint fails — an application
    /// was installed mid-run, or the emulator died — checkpointing disarms
    /// and the cause is kept in [`Runner::checkpoint_failure`]; the last
    /// checkpoint survives unless a worker died while it was being
    /// overwritten.
    ///
    /// Each call replaces the cadence and the grid: the next checkpoint
    /// falls `every` from now, and one armed before is not taken. A zero
    /// cadence takes no checkpoint (and disarms an earlier cadence), and no
    /// checkpoint is armed past [`SimTime::MAX`]: the last one falls at or
    /// before the end of virtual time.
    pub fn set_auto_checkpoint(&mut self, every: SimDuration) {
        self.auto_checkpoint = (!every.is_zero()).then_some(every);
        self.arm_checkpoint(every);
    }

    /// Arms the auto-checkpoint `every` from now — the one instant a
    /// checkpoint event is taken at — unless that is now (it would repeat
    /// without time passing) or past the end of virtual time, which
    /// disarms it.
    fn arm_checkpoint(&mut self, every: SimDuration) {
        self.checkpoint_at = self.now.checked_add(every).filter(|&at| at > self.now);
        if let Some(at) = self.checkpoint_at {
            self.events.push(at, Event::Checkpoint);
        }
    }

    /// The most recent auto-checkpoint: the virtual time it was taken at
    /// and the framed snapshot bytes.
    pub fn last_checkpoint(&self) -> Option<(SimTime, &[u8])> {
        self.last_checkpoint
            .as_ref()
            .map(|(at, bytes)| (*at, bytes.as_slice()))
    }

    /// Why auto-checkpointing disarmed itself, if it did.
    pub fn checkpoint_failure(&self) -> Option<&SnapshotError> {
        self.checkpoint_failure.as_ref()
    }

    fn handle_event(&mut self, at: SimTime, event: Event) {
        self.counters.events += 1;
        match event {
            Event::EmuWakeup => {
                if self.emu_wakeup_at == Some(self.now) || self.emu_wakeup_at.is_none() {
                    self.emu_wakeup_at = None;
                }
                self.drain_emulator();
            }
            Event::ChannelTimer { ch, side } => self.handle_channel_timer(ch, side, at),
            Event::AppTimer { vn, token } => {
                let now = self.now;
                if let Some(app) = self.app_mut(vn) {
                    let mut ctx = AppCtx::new(now);
                    app.on_timer(&mut ctx, token);
                    let actions = ctx.into_actions();
                    self.process_app_actions(vn, actions);
                }
            }
            Event::UdpPoll { flow } => self.handle_udp_poll(flow),
            Event::FlowStart { ch } => {
                self.channels[ch].started = true;
                self.pump_channel(ch);
            }
            Event::Reconfig => {
                // Take the engine out so it can mutate the backend (both
                // live on `self`); the slot is restored immediately after.
                if let Some(mut engine) = self.dynamics.take() {
                    let target = &mut Reconfigure(&mut self.emulator);
                    let applied = engine.apply_due(self.now, target);
                    self.dynamics = Some(engine);
                    if !applied.is_empty() {
                        // A reconfiguration can create emulator work (CBR
                        // and fluid re-solves) or retire the pending wakeup.
                        self.schedule_emu_wakeup();
                    }
                }
            }
            // An event queued before a re-arm is stale.
            Event::Checkpoint if self.checkpoint_at != Some(at) => {}
            Event::Checkpoint => {
                if let Some(every) = self.auto_checkpoint {
                    // Arm the next point *before* serializing so the
                    // snapshot carries it: a recovered run keeps
                    // checkpointing on the same virtual-time grid.
                    self.arm_checkpoint(every);
                    // Into the last one's buffer, which a checkpoint of no
                    // more bytes fills without allocating.
                    let (at, mut bytes) = self.last_checkpoint.take().unwrap_or_default();
                    match self.snapshot_into(&mut bytes) {
                        Ok(()) => self.last_checkpoint = Some((self.now, bytes)),
                        Err(error) => {
                            // Refused before a byte was written: the last
                            // checkpoint stands.
                            if !bytes.is_empty() {
                                self.last_checkpoint = Some((at, bytes));
                            }
                            (self.auto_checkpoint, self.checkpoint_at) = (None, None);
                            if let SnapshotError::Emulator(emu_error) = &error {
                                if self.failure.is_none() {
                                    self.failure = Some(emu_error.clone());
                                }
                            }
                            self.checkpoint_failure = Some(error);
                        }
                    }
                }
            }
        }
    }

    fn start_app(&mut self, vn: VnId) {
        let now = self.now;
        if let Some(app) = self.app_mut(vn) {
            let mut ctx = AppCtx::new(now);
            app.on_start(&mut ctx);
            let actions = ctx.into_actions();
            self.process_app_actions(vn, actions);
        }
    }

    /// Allocates the next port and records what it dispatches to.
    ///
    /// Ports are never recycled, bounding a runner to `u16::MAX - PORT_BASE`
    /// flows over its lifetime (the assert below fires past that). The old
    /// allocator silently wrapped and corrupted dispatch instead; recycling
    /// completed flows' ports is future work if endurance runs ever need it.
    fn bind_port(&mut self, binding: PortBinding) -> u16 {
        let offset = self.port_bindings.len();
        assert!(
            offset < (u16::MAX - PORT_BASE) as usize,
            "port space exhausted: more than {} flows",
            u16::MAX - PORT_BASE
        );
        self.port_bindings.push(binding);
        PORT_BASE + offset as u16
    }

    /// The binding a runner-allocated port dispatches to, if any.
    #[inline]
    fn port_binding(&self, port: u16) -> Option<PortBinding> {
        let offset = port.checked_sub(PORT_BASE)? as usize;
        self.port_bindings.get(offset).copied()
    }

    fn push_channel(&mut self, a: VnId, b: VnId, is_app: bool) -> usize {
        let idx = self.channels.len();
        let port = self.bind_port(PortBinding::Tcp(idx));
        self.channels.push(Channel {
            a,
            b,
            port,
            conn_a: TcpConnection::client(self.tcp_config),
            conn_b: TcpConnection::server(self.tcp_config),
            a_to_b: DirState::default(),
            b_to_a: DirState::default(),
            bulk_a: None,
            bulk_total: None,
            started: is_app,
            start_at: self.now,
            completed_at: None,
            is_app_channel: is_app,
            armed: Default::default(),
        });
        if is_app {
            self.app_channel_by_pair.insert((a, b), idx);
            self.app_channel_by_pair.insert((b, a), idx);
        }
        idx
    }

    /// Finds (or creates and starts) the application channel between two VNs.
    fn app_channel(&mut self, from: VnId, to: VnId) -> usize {
        if let Some(&idx) = self.app_channel_by_pair.get(&(from, to)) {
            return idx;
        }
        let idx = self.push_channel(from, to, true);
        self.pump_channel(idx);
        idx
    }

    fn schedule_emu_wakeup(&mut self) {
        if let Some(t) = self.emulator.next_wakeup() {
            let t = t.max(self.now);
            let need = match self.emu_wakeup_at {
                Some(existing) => t < existing || existing < self.now,
                None => true,
            };
            if need {
                self.emu_wakeup_at = Some(t);
                self.events.push(t, Event::EmuWakeup);
            }
        }
    }

    fn submit_packet(&mut self, packet: Packet) {
        self.packets_submitted += 1;
        match self.emulator.submit(self.now, packet) {
            Ok(
                SubmitOutcome::Accepted | SubmitOutcome::VirtualDrop | SubmitOutcome::PhysicalDrop,
            ) => {}
            Ok(SubmitOutcome::NoRoute) => {
                // Silently dropped: the destination is unreachable (e.g. a
                // partitioned topology under fault injection).
            }
            Err(error) => {
                // Poison the run; run_until surfaces the error after the
                // current event finishes.
                if self.failure.is_none() {
                    self.failure = Some(error);
                }
                return;
            }
        }
        self.schedule_emu_wakeup();
    }

    fn build_tcp_packet(&mut self, src: VnId, dst: VnId, port: u16, seg: &SegmentToSend) -> Packet {
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        Packet::new(
            id,
            FlowKey {
                src,
                dst,
                src_port: port,
                dst_port: port,
                protocol: Protocol::Tcp,
            },
            TransportHeader::Tcp {
                seq: seg.seq,
                ack: seg.ack,
                payload_len: seg.payload_len,
                flags: seg.flags,
                window: seg.window,
            },
            self.now,
        )
    }

    /// Polls both endpoints of a channel for outgoing segments, submits them,
    /// and makes sure each endpoint's next timer has an event to fire it.
    fn pump_channel(&mut self, ch: usize) {
        if !self.channels[ch].started {
            return;
        }
        let now = self.now;
        // Top up the bulk generator.
        {
            let channel = &mut self.channels[ch];
            if let Some(bulk) = channel.bulk_a.as_mut() {
                bulk.pump(now, &mut channel.conn_a);
            }
        }
        // Taken out of `self` so `submit_packet` can run while it drains.
        let mut segs = std::mem::take(&mut self.segment_buf);
        for side in [Side::A, Side::B] {
            let channel = &mut self.channels[ch];
            let port = channel.port;
            let (src, dst) = match side {
                Side::A => (channel.a, channel.b),
                Side::B => (channel.b, channel.a),
            };
            channel.conn_mut(side).poll_send_into(now, &mut segs);
            for seg in segs.drain(..) {
                let packet = self.build_tcp_packet(src, dst, port, &seg);
                self.submit_packet(packet);
            }
            self.arm_channel_timer(ch, side);
        }
        self.segment_buf = segs;
    }

    /// Pushes a timer event for the endpoint's current deadline unless one
    /// already outstanding fires at or before it: that one will find the
    /// timer not yet due and arm the real deadline then. Most deadlines move
    /// *later* (every ACK restarts the RTO), so most calls push nothing.
    fn arm_channel_timer(&mut self, ch: usize, side: Side) {
        let channel = &mut self.channels[ch];
        let Some(deadline) = channel.conn(side).next_timer() else {
            return;
        };
        let at = deadline.max(self.now);
        let armed = &mut channel.armed[side as usize];
        if armed.last().is_none_or(|&next| at < next) {
            armed.push(at);
            self.events.push(at, Event::ChannelTimer { ch, side });
        }
    }

    fn handle_channel_timer(&mut self, ch: usize, side: Side, at: SimTime) {
        self.counters.timer_events += 1;
        let now = self.now;
        let channel = &mut self.channels[ch];
        // Events fire in time order, so the one firing is the last armed.
        let fired = channel.armed[side as usize].pop();
        debug_assert_eq!(fired, Some(at), "armed list out of step with the queue");
        let conn = channel.conn_mut(side);
        if conn.next_timer().is_some_and(|t| t <= now) {
            conn.on_timer(now);
            self.pump_channel(ch);
        } else {
            // The deadline moved since this event was armed.
            self.counters.stale_timer_events += 1;
            self.arm_channel_timer(ch, side);
        }
    }

    fn handle_udp_poll(&mut self, flow: usize) {
        let now = self.now;
        let mut seqs = std::mem::take(&mut self.datagram_buf);
        let (src, dst, port, payload, next) = {
            let f = &mut self.udp_flows[flow];
            f.stream.poll_into(now, &mut seqs);
            f.sent += seqs.len() as u64;
            (f.src, f.dst, f.port, f.payload, f.stream.next_send_time())
        };
        for seq in seqs.drain(..) {
            let id = PacketId(self.next_packet_id);
            self.next_packet_id += 1;
            let packet = Packet::new(
                id,
                FlowKey {
                    src,
                    dst,
                    src_port: port,
                    dst_port: port,
                    protocol: Protocol::Udp,
                },
                TransportHeader::Udp {
                    payload_len: payload,
                    seq,
                },
                now,
            );
            self.submit_packet(packet);
        }
        self.datagram_buf = seqs;
        if let Some(t) = next {
            self.events.push(t, Event::UdpPoll { flow });
        }
    }

    fn drain_emulator(&mut self) {
        // Reuse the delivery buffer across wakeups: take it out of `self` so
        // `handle_delivery` (which needs `&mut self`) can run while we drain.
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        if let Err(error) = self.emulator.advance_into(self.now, &mut deliveries) {
            if self.failure.is_none() {
                self.failure = Some(error);
            }
            deliveries.clear();
            self.delivery_buf = deliveries;
            return;
        }
        for delivery in deliveries.drain(..) {
            self.handle_delivery(delivery);
        }
        self.delivery_buf = deliveries;
        self.schedule_emu_wakeup();
    }

    fn handle_delivery(&mut self, delivery: Delivery) {
        self.packets_delivered += 1;
        let packet = delivery.packet;
        match packet.flow.protocol {
            Protocol::Udp => {
                if let Some(PortBinding::Udp(idx)) = self.port_binding(packet.flow.src_port) {
                    let f = &mut self.udp_flows[idx];
                    if f.src == packet.flow.src && f.dst == packet.flow.dst {
                        f.received += 1;
                        f.bytes_received += packet.header.payload_len() as u64;
                    }
                }
            }
            Protocol::Tcp => {
                let Some(PortBinding::Tcp(ch)) = self.port_binding(packet.flow.src_port) else {
                    return;
                };
                let TransportHeader::Tcp {
                    seq,
                    ack,
                    payload_len,
                    flags,
                    window,
                } = packet.header
                else {
                    return;
                };
                // The receiving endpoint is the one bound to the packet's
                // destination VN. A port can only have been allocated to this
                // channel, but verify both endpoints anyway so a stray packet
                // cannot corrupt an unrelated connection.
                let Some(receiver_side) = self.channels[ch].side_of(packet.flow.dst) else {
                    return;
                };
                if self.channels[ch].side_of(packet.flow.src).is_none() {
                    return;
                }
                let now = self.now;
                let conn = self.channels[ch].conn_mut(receiver_side);
                let event = conn.on_segment(now, seq, payload_len, ack, flags, window);
                // Dispatch any application messages this delivery completed.
                if self.channels[ch].is_app_channel && event.delivered_upto > 0 {
                    self.dispatch_messages(ch, receiver_side, event.delivered_upto);
                }
                // Completion detection for fixed-size bulk transfers.
                {
                    let channel = &mut self.channels[ch];
                    if let Some(total) = channel.bulk_total {
                        if channel.completed_at.is_none() && channel.conn_a.bytes_acked() >= total {
                            channel.completed_at = Some(now);
                        }
                    }
                }
                self.pump_channel(ch);
            }
        }
    }

    /// Hands the receiver application every message whose stream frame has
    /// been fully delivered.
    fn dispatch_messages(&mut self, ch: usize, receiver_side: Side, delivered_upto: u64) {
        loop {
            let (from, to, message) = {
                let channel = &mut self.channels[ch];
                let (dir, from, to) = match receiver_side {
                    // Receiver is B: messages travel A -> B.
                    Side::B => (&mut channel.a_to_b, channel.a, channel.b),
                    Side::A => (&mut channel.b_to_a, channel.b, channel.a),
                };
                let Some((end, msg)) = dir.outbox.pop_front() else {
                    break;
                };
                if end > delivered_upto {
                    dir.outbox.push_front((end, msg));
                    break;
                }
                dir.dispatched = end;
                (from, to, msg)
            };
            let now = self.now;
            if let Some(app) = self.app_mut(to) {
                let mut ctx = AppCtx::new(now);
                app.on_message(&mut ctx, from, message);
                let actions = ctx.into_actions();
                self.process_app_actions(to, actions);
            }
        }
    }

    fn process_app_actions(&mut self, vn: VnId, actions: Vec<AppAction>) {
        for action in actions {
            match action {
                AppAction::Send { to, message } => {
                    let ch = self.app_channel(vn, to);
                    {
                        let channel = &mut self.channels[ch];
                        // `push_channel` keys a channel by its own `a` and
                        // `b`, as does `recover_from`'s rebuilt map: `vn` is one.
                        let side = channel.side_of(vn).expect("sender is an endpoint");
                        let (dir, conn) = match side {
                            Side::A => (&mut channel.a_to_b, &mut channel.conn_a),
                            Side::B => (&mut channel.b_to_a, &mut channel.conn_b),
                        };
                        let size = message.wire_size.max(1) as u64;
                        dir.written += size;
                        dir.outbox.push_back((dir.written, message));
                        conn.write(size);
                    }
                    self.pump_channel(ch);
                }
                // A timer past the end of virtual time never fires.
                AppAction::SetTimer { delay, token } => {
                    if let Some(at) = self.now.checked_add(delay) {
                        self.events.push(at, Event::AppTimer { vn, token });
                    }
                }
                AppAction::Record { metric, value } => {
                    self.metrics.entry(metric).or_default().add(value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use mn_distill::DistillationMode;
    use mn_topology::generators::{dumbbell_topology, star_topology, DumbbellParams, StarParams};

    fn star_runner(clients: usize) -> Runner {
        let topo = star_topology(&StarParams {
            clients,
            ..StarParams::default()
        });
        Experiment::new(topo)
            .distillation(DistillationMode::HopByHop)
            .cores(1)
            .edge_nodes(2)
            .unconstrained_hardware()
            .seed(11)
            .build()
            .expect("experiment builds")
    }

    #[test]
    fn runner_records_keep_the_record_contract() {
        use mn_util::codec::record_contract;
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        runner.add_bulk_flow(vns[0], vns[1], Some(ByteSize::from_kb(64)), SimTime::ZERO);
        let config = UdpStreamConfig {
            max_datagrams: Some(9),
            ..UdpStreamConfig::default()
        };
        runner.add_udp_flow(vns[2], vns[3], config, SimTime::ZERO);
        runner.run_until(SimTime::from_millis(30)).unwrap();
        let armed = &runner.channels[0].armed;
        assert!(armed.iter().any(|times| !times.is_empty()));
        record_contract(runner.channels.remove(0));
        record_contract(runner.udp_flows.remove(0));
        record_contract((PortBinding::Tcp(0), PortBinding::Udp(1)));
        let (ch, flow) = (3, 1);
        let side = Side::B;
        let (vn, token) = (VnId(2), 9);
        record_contract(Event::ChannelTimer { ch, side });
        record_contract(Event::AppTimer { vn, token });
        record_contract(Event::UdpPoll { flow });
        record_contract(Event::FlowStart { ch });
        for event in [Event::EmuWakeup, Event::Reconfig, Event::Checkpoint] {
            record_contract(event);
        }
    }

    #[test]
    fn bulk_flow_completes_and_reports_goodput() {
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        let flow =
            runner.add_bulk_flow(vns[0], vns[1], Some(ByteSize::from_kb(256)), SimTime::ZERO);
        runner.run_for(SimDuration::from_secs(10)).unwrap();
        let done = runner.flow_completed_at(flow).expect("transfer finishes");
        assert!(done > SimTime::ZERO);
        assert_eq!(runner.flow_bytes_acked(flow), 256 * 1024);
        // 10 Mb/s spokes: the transfer takes at least 256KB*8/10Mb/s ≈ 0.2 s.
        assert!(done >= SimTime::from_millis(200), "done at {done}");
        let goodput = runner.flow_goodput_kbps(flow);
        assert!(
            goodput > 1_000.0 && goodput < 10_000.0,
            "goodput {goodput} kbps"
        );
    }

    #[test]
    fn unbounded_flow_saturates_its_bottleneck() {
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        let flow = runner.add_bulk_flow(vns[0], vns[1], None, SimTime::ZERO);
        runner.run_for(SimDuration::from_secs(5)).unwrap();
        let goodput = runner.flow_goodput_kbps(flow);
        // Two 10 Mb/s spokes in series: steady state close to 10 Mb/s minus
        // header overhead and slow-start warm-up.
        assert!(
            goodput > 7_000.0 && goodput < 10_000.0,
            "goodput {goodput} kbps should approach the 10 Mb/s spoke rate"
        );
        assert!(runner.flow_completed_at(flow).is_none());
    }

    #[test]
    fn competing_flows_share_a_bottleneck_fairly() {
        let (topo, left, right) = dumbbell_topology(&DumbbellParams {
            clients_per_side: 4,
            ..DumbbellParams::default()
        });
        let mut runner = Experiment::new(topo)
            .distillation(DistillationMode::HopByHop)
            .cores(1)
            .edge_nodes(2)
            .unconstrained_hardware()
            .seed(3)
            .build()
            .unwrap();
        let binding = runner.binding().clone();
        let mut flows = Vec::new();
        for i in 0..4 {
            let src = binding.vn_at(left[i]).unwrap();
            let dst = binding.vn_at(right[i]).unwrap();
            flows.push(runner.add_bulk_flow(src, dst, None, SimTime::ZERO));
        }
        runner.run_for(SimDuration::from_secs(12)).unwrap();
        let rates: Vec<f64> = flows.iter().map(|&f| runner.flow_goodput_kbps(f)).collect();
        let total: f64 = rates.iter().sum();
        // The 10 Mb/s bottleneck is shared: aggregate close to 10 Mb/s…
        assert!(
            total > 6_500.0 && total < 10_500.0,
            "aggregate {total} kbps across the 10 Mb/s bottleneck"
        );
        // …and no flow starves.
        for (i, r) in rates.iter().enumerate() {
            assert!(*r > 500.0, "flow {i} got only {r} kbps: {rates:?}");
        }
    }

    #[test]
    fn udp_flow_counts_sent_and_received() {
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        let flow = runner.add_udp_flow(
            vns[2],
            vns[3],
            UdpStreamConfig {
                payload: 1000,
                rate: mn_util::DataRate::from_mbps(2),
                max_datagrams: Some(200),
            },
            SimTime::ZERO,
        );
        runner.run_for(SimDuration::from_secs(5)).unwrap();
        assert_eq!(runner.udp_flow_sent(flow), 200);
        let (received, bytes) = runner.udp_flow_received(flow);
        // 2 Mb/s offered into 10 Mb/s spokes: nothing should be lost.
        assert_eq!(received, 200);
        assert_eq!(bytes, 200 * 1000);
    }

    #[test]
    fn udp_overload_loses_datagrams_to_the_first_hop() {
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        // 40 Mb/s offered into a 10 Mb/s spoke (the §2.3 scenario).
        let flow = runner.add_udp_flow(
            vns[0],
            vns[1],
            UdpStreamConfig {
                payload: 1472,
                rate: mn_util::DataRate::from_mbps(40),
                max_datagrams: Some(2000),
            },
            SimTime::ZERO,
        );
        runner.run_for(SimDuration::from_secs(5)).unwrap();
        let (received, _) = runner.udp_flow_received(flow);
        assert_eq!(runner.udp_flow_sent(flow), 2000);
        assert!(
            received < 1500,
            "most of a 4x-overload should be dropped, received {received}"
        );
        assert!(received > 300, "the 10 Mb/s share should still get through");
    }

    struct PingPong {
        peer: VnId,
        initiator: bool,
        rounds: u32,
        completed: Vec<f64>,
        outstanding_since: Option<SimTime>,
    }

    impl Application for PingPong {
        fn on_start(&mut self, ctx: &mut AppCtx) {
            if self.initiator {
                self.outstanding_since = Some(ctx.now());
                ctx.send(self.peer, Message::new(200, "ping".to_string()));
            }
        }
        fn on_message(&mut self, ctx: &mut AppCtx, from: VnId, message: Message) {
            let text = message.body_as::<String>().cloned().unwrap_or_default();
            if text == "ping" {
                ctx.send(from, Message::new(200, "pong".to_string()));
            } else if text == "pong" {
                if let Some(t0) = self.outstanding_since.take() {
                    let rtt_ms = (ctx.now() - t0).as_millis_f64();
                    self.completed.push(rtt_ms);
                    ctx.record("rtt_ms", rtt_ms);
                }
                if (self.completed.len() as u32) < self.rounds {
                    self.outstanding_since = Some(ctx.now());
                    ctx.send(from, Message::new(200, "ping".to_string()));
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut AppCtx, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn applications_exchange_messages_with_emulated_latency() {
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        runner.add_application(
            vns[0],
            Box::new(PingPong {
                peer: vns[1],
                initiator: true,
                rounds: 5,
                completed: vec![],
                outstanding_since: None,
            }),
        );
        runner.add_application(
            vns[1],
            Box::new(PingPong {
                peer: vns[0],
                initiator: false,
                rounds: 0,
                completed: vec![],
                outstanding_since: None,
            }),
        );
        runner.run_for(SimDuration::from_secs(10)).unwrap();
        let app = runner.app_as::<PingPong>(vns[0]).unwrap();
        assert_eq!(app.completed.len(), 5);
        // Star spokes are 5 ms each: a round trip crosses 4 spokes ≥ 20 ms.
        for rtt in &app.completed {
            assert!(*rtt >= 20.0, "RTT {rtt} ms below the propagation floor");
            assert!(*rtt < 200.0, "RTT {rtt} ms unreasonably high");
        }
        // The recorded metric matches the app's own view.
        let metric = runner.metric("rtt_ms").unwrap();
        assert_eq!(metric.len(), 5);
    }

    #[test]
    fn auto_checkpoint_fires_on_the_virtual_time_grid() {
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        runner.add_bulk_flow(vns[0], vns[1], None, SimTime::ZERO);
        runner.set_auto_checkpoint(SimDuration::from_secs(2));
        assert!(runner.last_checkpoint().is_none());
        runner.run_for(SimDuration::from_secs(3)).unwrap();
        let (at, bytes) = runner.last_checkpoint().expect("first checkpoint fired");
        assert_eq!(at, SimTime::from_secs(2));
        assert!(!bytes.is_empty());
        assert!(runner.checkpoint_failure().is_none());
        runner.run_for(SimDuration::from_secs(2)).unwrap();
        let (at, _) = runner.last_checkpoint().expect("checkpoint advanced");
        assert_eq!(at, SimTime::from_secs(4));
    }

    #[test]
    fn checkpointing_disarms_when_an_application_appears_mid_run() {
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        runner.set_auto_checkpoint(SimDuration::from_secs(1));
        runner.run_for(SimDuration::from_secs(2)).unwrap();
        assert!(runner.last_checkpoint().is_some());
        runner.add_application(
            vns[0],
            Box::new(PingPong {
                peer: vns[1],
                initiator: true,
                rounds: 1,
                completed: vec![],
                outstanding_since: None,
            }),
        );
        assert_eq!(
            runner.snapshot().unwrap_err(),
            SnapshotError::AppsNotSupported
        );
        assert_eq!(
            runner.recover_from(&[]).unwrap_err(),
            RecoverError::AppsNotSupported
        );
        // The next grid point hits the same refusal: checkpointing disarms
        // instead of failing the run, and keeps the cause.
        runner.run_for(SimDuration::from_secs(2)).unwrap();
        assert_eq!(
            runner.checkpoint_failure(),
            Some(&SnapshotError::AppsNotSupported)
        );
        let (at, _) = runner.last_checkpoint().expect("pre-app checkpoint kept");
        assert!(at <= SimTime::from_secs(2));
    }

    #[test]
    fn run_for_saturates_at_the_end_of_virtual_time() {
        let mut runner = star_runner(4);
        runner.run_until(SimTime::from_secs(1)).unwrap();
        runner.run_for(SimDuration::MAX).unwrap();
        assert_eq!(runner.now(), SimTime::MAX);
    }

    #[test]
    fn a_zero_checkpoint_cadence_takes_no_checkpoint() {
        let mut runner = star_runner(4);
        runner.set_auto_checkpoint(SimDuration::ZERO);
        runner.run_for(SimDuration::from_secs(1)).unwrap();
        assert!(runner.last_checkpoint().is_none());
        assert_eq!(runner.now(), SimTime::from_secs(1));
    }

    /// Re-arming replaces the grid: the checkpoint armed first is not
    /// taken, and neither is one armed before a zero cadence. A restore
    /// keeps the armed instant.
    #[test]
    fn re_arming_the_checkpoint_cadence_retires_the_earlier_grid() {
        let secs = SimTime::from_secs;
        let taken = |runner: &Runner| runner.last_checkpoint().map(|(at, _)| at);
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        runner.add_bulk_flow(vns[0], vns[1], None, SimTime::ZERO);
        runner.set_auto_checkpoint(SimDuration::from_secs(2));
        runner.set_auto_checkpoint(SimDuration::from_secs(3));
        let mut at_six = Vec::new();
        for (until, expected) in [(2, None), (3, Some(3)), (5, Some(3)), (6, Some(6))] {
            runner.run_until(secs(until)).unwrap();
            assert_eq!(taken(&runner), expected.map(secs), "at {until} s");
        }
        at_six.extend_from_slice(runner.last_checkpoint().unwrap().1);
        for (until, expected) in [(8, 6), (9, 9)] {
            runner.run_until(secs(until)).unwrap();
            assert_eq!(taken(&runner), Some(secs(expected)), "at {until} s");
        }
        let mut restored = star_runner(4);
        restored.recover_from(&at_six).unwrap();
        restored.run_until(secs(8)).unwrap();
        assert_eq!(taken(&restored), None);
        restored.run_until(secs(9)).unwrap();
        assert_eq!(taken(&restored), Some(secs(9)));

        let mut disarmed = star_runner(4);
        disarmed.set_auto_checkpoint(SimDuration::from_secs(2));
        disarmed.set_auto_checkpoint(SimDuration::ZERO);
        disarmed.run_for(SimDuration::from_secs(5)).unwrap();
        assert_eq!(taken(&disarmed), None);
    }

    #[test]
    fn checkpoints_stop_at_the_end_of_virtual_time() {
        let mut runner = star_runner(4);
        let last = SimTime::MAX - SimDuration::from_millis(500);
        runner.run_until(last - SimDuration::from_secs(2)).unwrap();
        runner.set_auto_checkpoint(SimDuration::from_secs(1));
        runner.run_for(SimDuration::MAX).unwrap();
        assert_eq!(runner.now(), SimTime::MAX);
        let (at, _) = runner.last_checkpoint().expect("checkpoints fired");
        assert_eq!(at, last);
        assert!(runner.checkpoint_failure().is_none());
        assert!(runner.events.is_empty(), "nothing re-armed past the end");
    }

    /// The construction path of the `bench/` package, which names the
    /// emulator's former types: each variant holds an emulator on the
    /// executor it names, and both run the same traffic to the same result.
    #[test]
    fn the_named_constructors_build_on_the_executor_their_variant_names() {
        use mn_assign::{greedy_k_clusters, BindingParams, CoreId};
        use mn_emucore::{ChaosPlan, HardwareProfile, MultiCoreEmulator, ParallelEmulator};
        use mn_routing::RoutingMatrix;
        let topo = star_topology(&StarParams {
            clients: 6,
            ..StarParams::default()
        });
        let d = mn_distill::distill(&topo, DistillationMode::HopByHop);
        let run = |threaded: bool| {
            let pod = greedy_k_clusters(&d, 2, 7);
            let matrix = RoutingMatrix::build(&d);
            let binding = Binding::bind(d.vns(), &BindingParams::new(2, 2));
            let profile = HardwareProfile::unconstrained();
            let backend = if threaded {
                let emulator = ParallelEmulator::new(&d, pod, matrix, &binding, profile, 7);
                EmulatorBackend::Threaded(emulator)
            } else {
                let emulator = MultiCoreEmulator::new(&d, pod, matrix, &binding, profile, 7);
                EmulatorBackend::Sequential(emulator)
            };
            let mut runner = Runner::with_backend(backend, binding, TcpConfig::default());
            // An inert chaos plan installs only on worker threads.
            let on_threads = runner.backend_mut().set_chaos(CoreId(0), ChaosPlan::new());
            assert_eq!(on_threads, threaded);
            let vns = runner.vn_ids();
            runner.add_bulk_flow(vns[0], vns[3], None, SimTime::ZERO);
            runner.add_bulk_flow(vns[4], vns[1], None, SimTime::ZERO);
            runner.run_for(SimDuration::from_secs(1)).unwrap();
            let stats = runner.backend().total_stats();
            (
                runner.packets_delivered(),
                stats,
                runner.snapshot().unwrap(),
            )
        };
        let sequential = run(false);
        assert!(sequential.0 > 0);
        assert!(sequential.1.tunnels_out > 0, "the star crosses cores");
        assert!(run(true) == sequential, "the executors diverge");
    }

    /// One short fixed transfer and one long-lived flow over two cores.
    fn timer_runner(backend: ExecutionBackend) -> Runner {
        let topo = star_topology(&StarParams {
            clients: 4,
            ..StarParams::default()
        });
        let mut runner = Experiment::new(topo)
            .distillation(DistillationMode::HopByHop)
            .cores(2)
            .edge_nodes(2)
            .backend(backend)
            .unconstrained_hardware()
            .seed(5)
            .build()
            .expect("experiment builds");
        let vns = runner.vn_ids();
        runner.add_bulk_flow(vns[0], vns[1], Some(ByteSize::from_kb(64)), SimTime::ZERO);
        runner.add_bulk_flow(vns[2], vns[3], None, SimTime::from_millis(100));
        runner
    }

    /// The short flow's receiver keeps its handshake RTO event (armed for
    /// one initial RTO after the SYN, cancelled by the handshake's ACK) in
    /// the queue for a second. Returns an instant at which a delayed-ACK
    /// event is armed on top of it, and one after the transfer at which
    /// the delayed-ACK events have all fired and only the RTO event is left.
    fn superseded_timer_instants() -> (SimTime, SimTime) {
        let mut scout = timer_runner(ExecutionBackend::Sequential);
        let (mut stacked, mut leftover) = (None, None);
        for ms in 1..1_000 {
            let at = SimTime::from_millis(ms);
            scout.run_until(at).unwrap();
            let channel = &scout.channels[0];
            let armed = &channel.armed[Side::B as usize];
            if stacked.is_none()
                && armed.len() == 2
                && channel.conn_b.next_timer() == armed.last().copied()
            {
                stacked = Some(at);
            }
            if stacked.is_some() && channel.completed_at.is_some() && armed.len() == 1 {
                assert_eq!(channel.conn_b.next_timer(), None);
                leftover = Some(at);
                break;
            }
        }
        (
            stacked.expect("a delayed ACK armed over the handshake RTO event"),
            leftover.expect("the RTO event outlives the transfer"),
        )
    }

    #[test]
    fn restore_with_a_superseded_timer_event_in_the_queue_is_exact() {
        let (stacked, leftover) = superseded_timer_instants();
        let end = SimTime::from_secs(3);
        for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
            let mut reference = timer_runner(backend);
            reference.run_until(end).unwrap();
            let want = reference.snapshot().unwrap();
            for (at, armed_events) in [(stacked, 2), (leftover, 1)] {
                let mut first = timer_runner(backend);
                first.run_until(at).unwrap();
                assert_eq!(
                    first.channels[0].armed[Side::B as usize].len(),
                    armed_events
                );
                let checkpoint = first.snapshot().unwrap();
                let mut resumed = timer_runner(backend);
                resumed.recover_from(&checkpoint).unwrap();
                for (was, is) in first.channels.iter().zip(&resumed.channels) {
                    assert_eq!(*was.armed, *is.armed, "armed lists rebuilt from the queue");
                }
                assert!(
                    resumed.snapshot().unwrap() == checkpoint,
                    "re-serialized differently straight after restore ({backend:?}, {at})"
                );
                resumed.run_until(end).unwrap();
                assert!(
                    resumed.snapshot().unwrap() == want,
                    "resume diverged from the uninterrupted run ({backend:?}, {at})"
                );
            }
        }
    }

    #[test]
    fn recover_rejects_out_of_range_indices() {
        let at = SimTime::from_millis(700);
        type Corrupt = fn(&mut Runner, SimTime);
        let hostile: [(&str, Corrupt); 5] = [
            ("timer event channel index", |r, t| {
                r.events.push(
                    t,
                    Event::ChannelTimer {
                        ch: 2,
                        side: Side::B,
                    },
                );
            }),
            ("flow start channel index", |r, t| {
                r.events.push(t, Event::FlowStart { ch: usize::MAX });
            }),
            ("UDP poll flow index", |r, t| {
                r.events.push(t, Event::UdpPoll { flow: 0 });
            }),
            ("port binding index", |r, _| {
                r.port_bindings.push(PortBinding::Tcp(2));
            }),
            ("port binding index", |r, _| {
                r.port_bindings.push(PortBinding::Udp(0));
            }),
        ];
        let mut target = timer_runner(ExecutionBackend::Sequential);
        for (what, corrupt) in hostile {
            // Corrupting the state before it is serialized yields a snapshot
            // with a valid frame and checksum around the bad index.
            let mut source = timer_runner(ExecutionBackend::Sequential);
            source.run_until(SimTime::from_millis(500)).unwrap();
            corrupt(&mut source, at);
            let bytes = source.snapshot().unwrap();
            assert_eq!(
                target.recover_from(&bytes).unwrap_err(),
                RecoverError::Codec(CodecError::Invalid(what))
            );
        }
        // Every refusal left the target untouched: it still runs from zero.
        assert_eq!(target.now(), SimTime::ZERO);
        target.run_until(at).unwrap();
        assert!(target.packets_delivered() > 0);
    }

    #[test]
    fn recover_accepts_any_multiset_of_timer_events() {
        // The push-per-pump driver wrote many timer events per endpoint,
        // duplicates at equal times included, in no particular push order.
        let mut source = timer_runner(ExecutionBackend::Sequential);
        source.run_until(SimTime::from_millis(500)).unwrap();
        for ms in [900, 600, 600, 501, 900, 600, 2_500] {
            for side in [Side::B, Side::A] {
                source.events.push(
                    SimTime::from_millis(ms),
                    Event::ChannelTimer { ch: 1, side },
                );
            }
        }
        let bytes = source.snapshot().unwrap();
        let mut resumed = timer_runner(ExecutionBackend::Sequential);
        resumed.recover_from(&bytes).unwrap();
        assert!(resumed.snapshot().unwrap() == bytes);
        let extra = resumed.pending_driver_events();
        // Every fire pops its own entry (checked in `handle_channel_timer`),
        // the surplus retires, and the flow carries on.
        resumed.run_until(SimTime::from_secs(3)).unwrap();
        assert!(resumed.pending_driver_events() < extra - 10);
        assert!(resumed.driver_counters().stale_timer_events >= 12);
        assert!(resumed.flow_bytes_acked(FlowId(1)) > 1_000_000);
    }

    #[test]
    fn emulator_counters_match_runner_counters() {
        let mut runner = star_runner(4);
        let vns = runner.vn_ids();
        runner.add_bulk_flow(vns[0], vns[1], Some(ByteSize::from_kb(64)), SimTime::ZERO);
        runner.run_for(SimDuration::from_secs(5)).unwrap();
        let stats = runner.emulator().total_stats();
        assert!(stats.packets_delivered > 0);
        assert_eq!(stats.physical_drops(), 0);
        assert!(runner.packets_submitted() >= stats.packets_admitted);
        assert_eq!(runner.packets_delivered(), stats.packets_delivered);
    }
}
