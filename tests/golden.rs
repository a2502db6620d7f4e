//! Golden fixtures: the emulator's `MNSP` snapshot and the runner's `MNRS`
//! checkpoint, pinned to bytes.
//!
//! Both frames carry `SNAPSHOT_VERSION`, N, and a build reads N and N − 1.
//! Each row of the table below is a scenario stopped mid-run, kept as
//! `tests/data/{mnsp|mnrs}_v{N}_{name}.bin` and the same at N − 1: paths
//! derived from the constant, so no test names a version. `golden!` stamps
//! each property as a test of each row: both executors write the N file;
//! the N and N − 1 files restore on both, at the stop, and finish on the
//! row's tail digest; the N − 1 file restored and written again is the N
//! file; every bit flip and truncation of either file is a typed error;
//! bytes after the frame or the decoded payload are refused; every version
//! word outside [N − 1, N] is `BadVersion` (a refused recovery leaves the
//! runner as it was); and, on `MNSP` rows, a restore rebuilds the VN tables
//! and the join index, which no tail digest sees.
//!
//! A file is never re-blessed. A digest is re-recorded only by a deliberate
//! behaviour change (path4's was at v8, when the CBR meter stopped waking
//! the emulator). A format bump does not edit this file: bump
//! `SNAPSHOT_VERSION`; write the N − 1 reader; run `cargo test --test golden
//! -- --ignored write_fixtures`; delete the N − 2 fixtures and their arms.

use mn_assign::{Binding, BindingParams, CoreId, PipeOwnershipDirectory};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeAttrs, PipeId};
use mn_emucore::{Emulator, EmulatorSnapshot, HardwareProfile, SNAPSHOT_VERSION};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{path_pairs_topology, ring_topology, PathPairsParams, RingParams};
use mn_topology::NodeId;
use mn_transport::UdpStreamConfig;
use mn_util::codec::{fnv1a64, Codec};
use mn_util::{ByteWriter, CodecError, DataRate, SimDuration, SimTime};
use modelnet::ExecutionBackend::{self, Sequential, Threaded};
use modelnet::{ByteSize, Experiment, FlowId, RecoverError, Runner, UdpFlowId};

mod common;
mod membership;
use common::on_threads;
use membership::membership;

const CURRENT: u32 = SNAPSHOT_VERSION;
const PREVIOUS: u32 = SNAPSHOT_VERSION - 1;
const EXECUTORS: [ExecutionBackend; 2] = [Sequential, Threaded];

/// A scenario: its files' name, how it runs, and where a restored run ends.
struct Row<F: Frame> {
    name: &'static str,
    scenario: F::Scenario,
    /// What holds at the stop, of the uninterrupted run and of every restore.
    at_stop: fn(&F::Run),
    stop_at: SimTime,
    horizon: SimTime,
    /// FNV-1a over what a restored run observes up to the horizon.
    tail: u64,
}

/// An entry point that decodes a frame: what it refused, if anything.
type Decoder = Box<dyn FnMut(&[u8]) -> Result<(), CodecError>>;

/// What the properties need of a frame.
trait Frame: Sized {
    const PREFIX: &'static str;
    const MAGIC: &'static [u8; 4];
    /// Whether the payload opens with a clock and a nested `MNSP` frame.
    const NESTS: bool;
    type Scenario;
    type Run;
    /// The row's scenario on `exec`, driven to its stop.
    fn stop(row: &Row<Self>, exec: ExecutionBackend) -> Self::Run;
    fn restore(row: &Row<Self>, bytes: &[u8], exec: ExecutionBackend) -> Self::Run;
    fn checkpoint(run: &mut Self::Run) -> Vec<u8>;
    /// Drives a run at the stop to the horizon and digests what it observes.
    fn tail(row: &Row<Self>, run: Self::Run) -> u64;
    /// Every entry point, the cheapest (the one the sweeps use) first.
    fn decoders(row: &Row<Self>) -> Vec<Decoder>;
}

impl<F: Frame> Row<F> {
    fn path(&self, version: u32) -> String {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
        format!("{dir}/{}_v{version}_{}.bin", F::PREFIX, self.name)
    }

    /// The row's file of `version`, whose header names its frame and version.
    fn file(&self, version: u32) -> Vec<u8> {
        let path = self.path(version);
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(&bytes[..4], F::MAGIC, "{path}: magic");
        assert_eq!(bytes[4..8], version.to_le_bytes(), "{path}: version word");
        bytes
    }
}

/// The emulator's snapshot frame.
struct Mnsp;

/// An `MNSP` scenario at its stop: the emulator, the topology as the run
/// left it, and the client locations fresh VNs join at.
type Stopped = (Emulator, DistilledTopology, Vec<NodeId>);

fn on(exec: ExecutionBackend, emu: Emulator) -> Emulator {
    match exec {
        Sequential => emu,
        Threaded => on_threads(emu),
    }
}

impl Frame for Mnsp {
    const PREFIX: &'static str = "mnsp";
    const MAGIC: &'static [u8; 4] = b"PSNM";
    const NESTS: bool = false;
    type Scenario = fn(ExecutionBackend) -> Stopped;
    type Run = Emulator;

    fn stop(row: &Row<Self>, exec: ExecutionBackend) -> Emulator {
        let (emu, ..) = (row.scenario)(exec);
        (row.at_stop)(&emu);
        emu
    }

    fn restore(row: &Row<Self>, bytes: &[u8], exec: ExecutionBackend) -> Emulator {
        let emu = Emulator::restore_bytes(bytes).expect("the file restores");
        let emu = on(exec, emu);
        (row.at_stop)(&emu);
        emu
    }

    fn checkpoint(emu: &mut Emulator) -> Vec<u8> {
        emu.snapshot().unwrap().to_bytes()
    }

    fn tail(row: &Row<Self>, mut emu: Emulator) -> u64 {
        let mut w = ByteWriter::with_capacity(4096);
        let mut deliveries = Vec::new();
        let mut now = row.stop_at;
        while let Some(t) = emu.next_wakeup().filter(|&t| t <= row.horizon) {
            now = now.max(t);
            deliveries.clear();
            emu.advance_into(now, &mut deliveries).unwrap();
            for d in &deliveries {
                let (id, hops) = (d.packet.id.0, d.hops);
                (id, d.delivered_at, d.entered_at, hops, d.emulation_error).put(&mut w);
            }
        }
        assert!(!w.is_empty(), "the tail of the run delivers");
        let stats = emu.total_stats();
        assert_eq!(stats.tunnels_out, stats.tunnels_in, "tunnels all landed");
        w.put_bytes(format!("{stats:?}").as_bytes());
        w.put_u64(emu.fluid_flow_goodput_bytes(1).expect("flow 1 is live"));
        fnv1a64(w.as_slice())
    }

    fn decoders(_: &Row<Self>) -> Vec<Decoder> {
        vec![
            Box::new(|bytes| Emulator::restore_bytes(bytes).map(drop)),
            Box::new(|bytes| Emulator::restore(&EmulatorSnapshot::from_bytes(bytes)?).map(drop)),
        ]
    }
}

/// The runner's checkpoint frame, which nests an `MNSP` frame.
struct Mnrs;

/// An `MNRS` scenario: builds the runner, not yet run, and writes what the
/// tail digest reads of its flows.
type RunnerScenario = (fn(ExecutionBackend) -> Runner, fn(&Runner, &mut ByteWriter));

impl Frame for Mnrs {
    const PREFIX: &'static str = "mnrs";
    const MAGIC: &'static [u8; 4] = b"SRNM";
    const NESTS: bool = true;
    type Scenario = RunnerScenario;
    type Run = Runner;

    fn stop(row: &Row<Self>, exec: ExecutionBackend) -> Runner {
        let mut runner = (row.scenario.0)(exec);
        runner.run_until(row.stop_at).unwrap();
        (row.at_stop)(&runner);
        runner
    }

    fn restore(row: &Row<Self>, bytes: &[u8], exec: ExecutionBackend) -> Runner {
        let mut runner = (row.scenario.0)(exec);
        runner.recover_from(bytes).expect("the file restores");
        assert_eq!(runner.now(), row.stop_at);
        (row.at_stop)(&runner);
        runner
    }

    fn checkpoint(runner: &mut Runner) -> Vec<u8> {
        runner.snapshot().unwrap()
    }

    fn tail(row: &Row<Self>, mut runner: Runner) -> u64 {
        runner.run_until(row.horizon).unwrap();
        let mut w = ByteWriter::with_capacity(256);
        let counts = (
            runner.now(),
            runner.packets_submitted(),
            runner.packets_delivered(),
        );
        counts.put(&mut w);
        (row.scenario.1)(&runner, &mut w);
        w.put_bytes(format!("{:?}", runner.backend().total_stats()).as_bytes());
        fnv1a64(w.as_slice())
    }

    /// `recover_from` on a fresh runner, then on each executor a runner
    /// holding the N − 1 file, which a refusal must leave as it was.
    fn decoders(row: &Row<Self>) -> Vec<Decoder> {
        let codec = |e| match e {
            RecoverError::Codec(e) => e,
            other => panic!("not a codec error: {other:?}"),
        };
        let mut fresh = (row.scenario.0)(Sequential);
        let first: Decoder = Box::new(move |bytes| fresh.recover_from(bytes).map_err(codec));
        let mut decoders = vec![first];
        for exec in EXECUTORS {
            let mut runner = Self::restore(row, &row.file(PREVIOUS), exec);
            let before = runner.snapshot().unwrap();
            decoders.push(Box::new(move |bytes| {
                let refused = runner.recover_from(bytes).map_err(codec);
                let unchanged = refused.is_ok() || runner.snapshot().unwrap() == before;
                assert!(unchanged, "a refusal changed the runner on {exec:?}");
                refused
            }));
        }
        decoders
    }
}

fn reproduces<F: Frame>(row: &Row<F>) {
    let current = row.file(CURRENT);
    for exec in EXECUTORS {
        let bytes = F::checkpoint(&mut F::stop(row, exec));
        assert!(bytes == current, "{exec:?} drifted from the current file");
    }
}

fn finishes<F: Frame>(row: &Row<F>, version: u32) {
    let file = row.file(version);
    for exec in EXECUTORS {
        let tail = F::tail(row, F::restore(row, &file, exec));
        assert_eq!(tail, row.tail, "the v{version} tail diverged on {exec:?}");
    }
}

fn reserialises<F: Frame>(row: &Row<F>) {
    let (previous, current) = (row.file(PREVIOUS), row.file(CURRENT));
    for exec in EXECUTORS {
        let bytes = F::checkpoint(&mut F::restore(row, &previous, exec));
        assert!(bytes == current, "{exec:?} rewrote the previous file");
    }
}

/// A frame guards its bytes: whatever single bit flips, wherever the file
/// is cut, decoding stops at a typed error, before any state is built.
fn sweep<F: Frame>(row: &Row<F>, version: u32) {
    let mut decode = F::decoders(row).swap_remove(0);
    let mut bytes = row.file(version);
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert!(decode(&bytes).is_err(), "v{version}: bit {bit} flipped");
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    for len in 0..bytes.len() {
        assert!(decode(&bytes[..len]).is_err(), "v{version}: cut to {len}");
    }
    assert_eq!(decode(&bytes), Ok(()));
}

/// Bytes after the frame, and bytes the payload's decoder did not consume,
/// are refused by every entry point rather than ignored.
fn trailing<F: Frame>(row: &Row<F>) {
    let file = row.file(CURRENT);
    let mut after_frame = file.clone();
    after_frame.push(0);
    // A sound frame (its length and sum cover the extra byte) around a
    // payload one byte longer than the decoder reads.
    let mut w = ByteWriter::new();
    let frame = w.begin_frame(u32::from_le_bytes(*F::MAGIC), CURRENT);
    w.put_bytes(&file[16..file.len() - 8]);
    w.put_u8(0);
    if F::NESTS {
        let nested = u64::from_le_bytes(file[24..32].try_into().unwrap()) as usize;
        w.end_frame_around(frame, frame + 16..frame + 16 + nested);
    } else {
        w.end_frame(frame);
    }
    let after_payload = w.into_bytes();
    for mut decode in F::decoders(row) {
        for bytes in [&after_frame, &after_payload] {
            assert_eq!(decode(bytes), Err(CodecError::Invalid("trailing bytes")));
        }
    }
}

/// Both frames decode N and N − 1, and no other version.
fn window<F: Frame>(row: &Row<F>) {
    let mut bytes = row.file(CURRENT);
    let mut decoders = F::decoders(row);
    for v in (0..PREVIOUS).chain([CURRENT + 1, u32::MAX]) {
        bytes[4..8].copy_from_slice(&v.to_le_bytes());
        for decode in &mut decoders {
            assert_eq!(decode(&bytes), Err(CodecError::BadVersion(v)));
        }
    }
    for version in [PREVIOUS, CURRENT] {
        for decode in &mut decoders {
            assert_eq!(decode(&row.file(version)), Ok(()), "v{version} restores");
        }
    }
}

/// The tables a restore rebuilds rather than reads hold what the
/// uninterrupted run holds: every VN's location, liveness and entry core,
/// and the cores fresh VNs joined at every client land on.
fn a_restore_rebuilds_the_vn_tables_and_the_join_index(row: &Row<Mnsp>) {
    let (mut uninterrupted, distilled, homes) = (row.scenario)(Sequential);
    let expected = membership(&mut uninterrupted, &distilled, &homes, row.stop_at);
    let joined = &expected.2;
    assert!(joined.contains(&Some(CoreId(0))) && joined.contains(&Some(CoreId(1))));
    for version in [PREVIOUS, CURRENT] {
        for exec in EXECUTORS {
            let mut restored = Mnsp::restore(row, &row.file(version), exec);
            let restored = membership(&mut restored, &distilled, &homes, row.stop_at);
            assert_eq!(restored, expected, "v{version} on {exec:?}");
        }
    }
}

/// Stamps every property as a test of row `$table` in module `$row`, and
/// the row's `$extra` properties.
macro_rules! golden {
    ($row:ident: $table:expr $(, $extra:ident)*) => {
        mod $row {
            use super::*;
            #[test]
            fn both_executors_reproduce_the_current_file() { reproduces(&$table) }
            #[test]
            fn the_current_file_finishes_on_the_tail_digest() { finishes(&$table, CURRENT) }
            #[test]
            fn the_previous_file_finishes_on_the_tail_digest() { finishes(&$table, PREVIOUS) }
            #[test]
            fn the_previous_file_reserialises_to_the_current_one() { reserialises(&$table) }
            #[test]
            fn every_bit_flip_and_truncation_of_the_current_file_is_refused() {
                sweep(&$table, CURRENT)
            }
            #[test]
            fn every_bit_flip_and_truncation_of_the_previous_file_is_refused() {
                sweep(&$table, PREVIOUS)
            }
            #[test]
            fn bytes_after_the_frame_or_the_payload_are_refused() { trailing(&$table) }
            #[test]
            fn versions_outside_the_window_are_bad_version() { window(&$table) }
            $(#[test] fn $extra() { super::$extra(&$table) })*
        }
    };
}

golden!(path4: PATH4, a_restore_rebuilds_the_vn_tables_and_the_join_index);
golden!(mux_churn: MUX_CHURN, a_restore_rebuilds_the_vn_tables_and_the_join_index);
golden!(tcp: TCP);
golden!(udp: UDP);

/// Writes every row's file of the current version, never over an existing
/// one, and prints its tail digest.
#[test]
#[ignore = "writes the current version's files under tests/data"]
fn write_fixtures() {
    fn write<F: Frame>(row: &Row<F>) {
        let bytes = F::checkpoint(&mut F::stop(row, Sequential));
        assert!(
            bytes == F::checkpoint(&mut F::stop(row, Threaded)),
            "executors disagree"
        );
        let path = row.path(CURRENT);
        let mut file = std::fs::File::create_new(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        std::io::Write::write_all(&mut file, &bytes).unwrap();
        let digest = F::tail(row, F::restore(row, &bytes, Sequential));
        println!("{path}: {} bytes, tail {digest:#018x}", bytes.len());
    }
    write(&PATH4);
    write(&MUX_CHURN);
    write(&TCP);
    write(&UDP);
}

/// Three 4-hop paths, hops alternating between two cores, stopped with
/// tunnels in flight, a fluid flow, a CBR episode, a compensation rate, a
/// departed VN (so one stub alone reads its hub's row) and a rejoined one.
const PATH4: Row<Mnsp> = Row {
    name: "path4",
    scenario: path4,
    at_stop: |emu| {
        let stats = emu.total_stats();
        assert!(stats.tunnels_out > stats.tunnels_in, "tunnels in flight");
        // Path 0's four pipes carry flow 1's 3 Mb/s, its second the 1 Mb/s
        // compensation and its third the 2 Mb/s episode. By 4.9 ms core 1
        // (hops 1 and 3) has modelled 7 Mb/s for 4.9 ms, 4 287 bytes of
        // 4 287.5, and core 0 (hops 0 and 2) 8 Mb/s for 3.9 ms, 3 900
        // bytes: the episode, installed first, moved that core's fluid
        // clock to its 1 ms start.
        assert_eq!(stats.fluid_modelled_bytes, 8_187);
        // Path 2's receiver departed; path 1's sender rejoined.
        assert!(!emu.vn_is_active(VnId(5)) && emu.vn_is_active(VnId(2)));
    },
    stop_at: SimTime::from_micros(4_900),
    horizon: SimTime::from_millis(40),
    tail: 0xe2a2_658b_1cfc_bdc6,
};

/// An 8-router ring with three VNs at every client (rows 8 columns wide, so
/// they spill), two cores and one fluid flow, stopped after, in this order:
/// a link down, a leave whose siblings stay, a location emptied, the link
/// up, a rejoin into the emptied location, a rejoin elsewhere, a fresh VN id
/// and a second link down.
const MUX_CHURN: Row<Mnsp> = Row {
    name: "mux_churn",
    scenario: mux_churn,
    at_stop: |emu| {
        let stats = emu.total_stats();
        let exercised = stats.tunnels_out > 0 && stats.fluid_modelled_bytes > 0;
        assert!(exercised, "tunnels and the fluid flow are exercised");
        assert!(emu.next_wakeup().is_some(), "stopped mid-run");
        let vn = |i: usize| VnId(i as u32);
        assert!(!emu.vn_is_active(vn(3)) && !emu.vn_is_active(vn(3 + 2 * ROUTERS)));
        assert!(emu.vn_is_active(vn(3 + ROUTERS)) && emu.vn_is_active(vn(ROUTERS)));
        assert_eq!(emu.active_vn_count(), MUX * ROUTERS + 1 - 2);
    },
    stop_at: SimTime::from_micros(4_850),
    horizon: SimTime::from_millis(30),
    tail: 0x3756_c0d7_c052_e133,
};

/// Two TCP flows over a small ring on two cores, stopped mid-transfer with
/// segments in flight, retransmission timers armed and an auto-checkpoint
/// pending.
const TCP: Row<Mnrs> = Row {
    name: "tcp",
    scenario: (tcp, |runner, w| {
        for flow in [BOUNDED, OPEN] {
            let completed = runner.flow_completed_at(flow);
            let acked = runner.flow_bytes_acked(flow);
            (acked, runner.flow_retransmissions(flow), completed).put(w);
        }
        let finished = runner.flow_completed_at(BOUNDED).is_some();
        assert!(finished, "the bounded transfer finishes in the tail");
        let last = runner.last_checkpoint();
        w.put_time(last.expect("auto-checkpoints survive").0);
    }),
    at_stop: |runner| {
        let acked = runner.flow_bytes_acked(BOUNDED) > 0;
        let done = runner.flow_completed_at(BOUNDED).is_some();
        assert!(acked && !done, "the scenario stops mid-transfer");
    },
    stop_at: SimTime::from_millis(1_500),
    horizon: SimTime::from_secs(4),
    tail: 0x8199_df7f_0859_e4bd,
};

/// Two paced UDP flows (one open-ended, one bounded and still sending at
/// the stop) beside a bulk TCP flow: pacing state, the UDP flow table,
/// `Udp` port bindings and pending `UdpPoll` events.
const UDP: Row<Mnrs> = Row {
    name: "udp",
    scenario: (udp, |runner, w| {
        let sent = runner.udp_flow_sent(UDP_FLOWS[1]);
        assert_eq!(sent, 300, "the bounded stream ends in the tail");
        let acked = runner.flow_bytes_acked(BULK);
        (acked, runner.flow_retransmissions(BULK)).put(w);
        for flow in UDP_FLOWS {
            (runner.udp_flow_sent(flow), runner.udp_flow_received(flow)).put(w);
        }
    }),
    at_stop: |runner| {
        let sent = runner.udp_flow_sent(UDP_FLOWS[1]);
        assert!(sent > 0 && sent < 300, "the bounded stream is mid-way");
    },
    stop_at: SimTime::from_millis(1_500),
    horizon: SimTime::from_secs(3),
    tail: 0x43a2_a02a_f374_57bc,
};

fn udp_packet(id: u64, src: VnId, dst: VnId, now: SimTime) -> Packet {
    let (src_port, dst_port, protocol) = (1000, 2000, Protocol::Udp);
    let flow = FlowKey {
        src,
        dst,
        src_port,
        dst_port,
        protocol,
    };
    let header = TransportHeader::Udp {
        payload_len: 600,
        seq: id,
    };
    Packet::new(PacketId(id), flow, header, now)
}

fn path4(exec: ExecutionBackend) -> Stopped {
    let (topo, node_pairs) = path_pairs_topology(&PathPairsParams {
        pairs: 3,
        hops: 4,
        bandwidth: DataRate::from_mbps(10),
        end_to_end_latency: SimDuration::from_millis(8),
    });
    let distilled = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&distilled);
    let binding = Binding::bind(distilled.vns(), &BindingParams::new(2, 2));
    // Hops alternate between the two cores, so every hop boundary tunnels.
    let mut owners = vec![CoreId(0); distilled.pipe_count()];
    for &(a, b) in &node_pairs {
        for (src, dst) in [(a, b), (b, a)] {
            let route = matrix.lookup(src, dst).expect("path routes");
            for (hop, pipe) in route.pipes.iter().enumerate() {
                owners[pipe.index()] = CoreId(hop % 2);
            }
        }
    }
    let pod = PipeOwnershipDirectory::from_owners(owners, 2);
    let (a0, b0) = node_pairs[0];
    let path0 = matrix.lookup(a0, b0).expect("path routes").pipes.to_vec();
    assert_eq!(path0.len(), 4);
    let vns = |&(a, b): &(NodeId, NodeId)| (binding.vn_at(a).unwrap(), binding.vn_at(b).unwrap());
    let pairs: Vec<_> = node_pairs.iter().map(vns).collect();
    let mut profile = HardwareProfile::unconstrained();
    profile.tunnel_latency = SimDuration::from_micros(250);
    let emu = Emulator::new(&distilled, pod, matrix, &binding, profile, 13);
    let mut emu = on(exec, emu);
    let (mbps, ms) = (DataRate::from_mbps, SimTime::from_millis);
    assert!(emu.set_pipe_compensation(path0[1], Some(mbps(1)), SimTime::ZERO));
    assert!(emu.set_pipe_compensation(path0[2], Some(mbps(2)), ms(1)));
    let (src, dst) = pairs[0];
    assert!(emu.add_fluid_flow(1, src, dst, mbps(3), 4, SimTime::ZERO));
    let (rejoiner, departed) = (pairs[1].0, pairs[2].1);
    assert_eq!((rejoiner, departed), (VnId(2), VnId(5)));
    let rejoin_at = distilled.vns()[rejoiner.index()];
    let (mut sink, mut id) = (Vec::new(), 0);
    for round in 0..12u64 {
        let now = SimTime::from_micros(round * 400);
        emu.advance_into(now, &mut sink).unwrap();
        match round {
            3 => {
                assert!(emu.vn_leave(rejoiner, now));
                assert!(emu.vn_leave(departed, now));
            }
            7 => assert!(emu.vn_join(&distilled, rejoiner, rejoin_at, now)),
            _ => {}
        }
        for (src, dst) in pairs.iter().flat_map(|&(a, b)| [(a, b), (b, a)]) {
            let _ = emu.submit(now, udp_packet(id, src, dst, now)).unwrap();
            id += 1;
        }
    }
    emu.advance_into(PATH4.stop_at, &mut sink).unwrap();
    let homes = distilled.vns().to_vec();
    (emu, distilled, homes)
}

const ROUTERS: usize = 8;
/// VNs bound at each client location when the run starts.
const MUX: usize = 3;

/// Fails (`up: None`) or restores (to `up`) both directions of ring link `k`.
fn set_link(emu: &mut Emulator, topo: &mut DistilledTopology, k: usize, up: Option<&[PipeAttrs]>) {
    let link = [PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
    for p in link {
        let attrs = topo.pipe_attrs_mut(p).expect("ring pipe exists");
        match up {
            Some(healthy) => *attrs = healthy[p.index()],
            None => attrs.bandwidth = DataRate::ZERO,
        }
        let attrs = *attrs;
        assert!(emu.update_pipe_attrs(p, attrs));
    }
    let update = emu.reroute(topo, &link);
    assert!(!update.is_empty(), "a ring link carries routes");
}

fn mux_churn(exec: ExecutionBackend) -> Stopped {
    let topo = ring_topology(&RingParams {
        routers: ROUTERS,
        clients_per_router: 1,
        ring_bandwidth: DataRate::from_mbps(20),
        ring_latency: SimDuration::from_micros(300),
        client_bandwidth: DataRate::from_mbps(10),
        client_latency: SimDuration::from_micros(100),
    });
    let mut distilled = distill(&topo, DistillationMode::HopByHop);
    // The client node VN `i`, `i + ROUTERS` and `i + 2 * ROUTERS` start at.
    let homes = distilled.vns().to_vec();
    assert_eq!(homes.len(), ROUTERS);
    let mut ring = (0..ROUTERS).map(|k| distilled.pipe(PipeId::from_index(2 * k)));
    let ring = ring.all(|pipe| !homes.contains(&pipe.src) && !homes.contains(&pipe.dst));
    assert!(ring, "the first {ROUTERS} duplex pairs are the ring links");
    let matrix = RoutingMatrix::build(&distilled);
    let locations: Vec<NodeId> = (0..MUX).flat_map(|_| homes.clone()).collect();
    let binding = Binding::bind(&locations, &BindingParams::new(2, 2));
    // Neighbouring pipes alternate between the two cores, so routes tunnel.
    let owners = (0..distilled.pipe_count()).map(|p| CoreId((p / 2) % 2));
    let pod = PipeOwnershipDirectory::from_owners(owners.collect(), 2);
    let mut profile = HardwareProfile::unconstrained();
    profile.tunnel_latency = SimDuration::from_micros(250);
    let emu = Emulator::new(&distilled, pod, matrix, &binding, profile, 29);
    let mut emu = on(exec, emu);
    let healthy: Vec<PipeAttrs> = distilled.pipes().map(|(_, p)| p.attrs).collect();
    let vn = |i: usize| VnId(i as u32);
    assert!(emu.add_fluid_flow(1, vn(1), vn(4), DataRate::from_mbps(3), 4, SimTime::ZERO));
    let (mut vn_count, mut sink, mut id) = (MUX * ROUTERS, Vec::new(), 0);
    for round in 0..12usize {
        let now = SimTime::from_micros(round as u64 * 400);
        emu.advance_into(now, &mut sink).unwrap();
        match round {
            2 => set_link(&mut emu, &mut distilled, 2, None),
            // Leaves location 0 to VNs 0 and 16.
            3 => assert!(emu.vn_leave(vn(ROUTERS), now)),
            // Empties location 3.
            4 => (0..MUX).for_each(|m| assert!(emu.vn_leave(vn(3 + m * ROUTERS), now))),
            6 => set_link(&mut emu, &mut distilled, 2, Some(&healthy)),
            // Into the emptied location, routes refreshed from the matrix.
            7 => assert!(emu.vn_join(&distilled, vn(3 + ROUTERS), homes[3], now)),
            // Elsewhere: VN 8 left location 0 and comes back at location 5.
            8 => assert!(emu.vn_join(&distilled, vn(ROUTERS), homes[5], now)),
            9 => {
                assert!(emu.vn_join(&distilled, vn(vn_count), homes[6], now));
                vn_count += 1;
            }
            10 => set_link(&mut emu, &mut distilled, 5, None),
            _ => {}
        }
        // Every other VN sends, departed ones included (refused at
        // admission), to a destination that moves round by round.
        for src in (round % 2..vn_count).step_by(2) {
            let dst = (src * 7 + round + 1) % vn_count;
            let packet = udp_packet(id, vn(src), vn(dst), now);
            let _ = emu.submit(now, packet).unwrap();
            id += 1;
        }
    }
    emu.advance_into(MUX_CHURN.stop_at, &mut sink).unwrap();
    assert!(!sink.is_empty(), "some packets arrive before the stop");
    // Every VN id the run used has a location, the departed ones too.
    let located = (0..).take_while(|&i| emu.vn_location(vn(i)).is_some());
    assert_eq!(located.count(), MUX * ROUTERS + 1);
    (emu, distilled, homes)
}

fn small_ring(exec: ExecutionBackend, seed: u64) -> Runner {
    let topo = ring_topology(&RingParams {
        routers: 4,
        clients_per_router: 2,
        ..RingParams::default()
    });
    Experiment::new(topo)
        .cores(2)
        .edge_nodes(4)
        .backend(exec)
        .unconstrained_hardware()
        .seed(seed)
        .build()
        .expect("experiment builds")
}

const BOUNDED: FlowId = FlowId(0);
const OPEN: FlowId = FlowId(1);

fn tcp(exec: ExecutionBackend) -> Runner {
    let mut runner = small_ring(exec, 17);
    let vns = runner.vn_ids();
    let size = Some(ByteSize::from_kb(768));
    let bounded = runner.add_bulk_flow(vns[0], vns[5], size, SimTime::ZERO);
    let open = runner.add_bulk_flow(vns[2], vns[7], None, SimTime::from_millis(200));
    assert_eq!([bounded, open], [BOUNDED, OPEN]);
    runner.set_auto_checkpoint(SimDuration::from_millis(700));
    runner
}

const BULK: FlowId = FlowId(0);
const UDP_FLOWS: [UdpFlowId; 2] = [UdpFlowId(0), UdpFlowId(1)];

fn udp(exec: ExecutionBackend) -> Runner {
    let mut runner = small_ring(exec, 23);
    let vns = runner.vn_ids();
    let bulk = runner.add_bulk_flow(vns[0], vns[5], None, SimTime::ZERO);
    let stream = |payload, mbps, max_datagrams| UdpStreamConfig {
        payload,
        rate: DataRate::from_mbps(mbps),
        max_datagrams,
    };
    let ms = SimTime::from_millis;
    let open = runner.add_udp_flow(vns[1], vns[6], stream(1_000, 2, None), ms(50));
    let bounded = runner.add_udp_flow(vns[3], vns[4], stream(512, 1, Some(300)), ms(500));
    assert_eq!((bulk, [open, bounded]), (BULK, UDP_FLOWS));
    runner
}
