//! Checkpoint/restore cost at scale: serialization time, snapshot size,
//! restore time, and the zero-alloc steady state surviving a restore.
//!
//! A checkpoint is only a viable crash-recovery policy if taking one is
//! cheap relative to the emulation it protects and restoring one does not
//! degrade the emulator it rebuilds. This bench pins both halves on warmed
//! single-core emulators of 4 096 and 16 384 VNs carrying live traffic:
//!
//! * `checkpoint_ms` / `snapshot_bytes` — wall time (best of 5) to
//!   serialize the complete emulator state and the framed size of the
//!   result, per VN count.
//! * `restore_ms` — wall time to rebuild a fresh emulator from the framed
//!   bytes (parse + checksum + full state reconstruction).
//! * `steady_allocs_after_restore` — allocator calls in a 20 000-iteration
//!   submit/advance window on the *restored* emulator after re-warm-up.
//!
//! `shape_holds` in `BENCH_snapshot.json` asserts the ISSUE's acceptance
//! criteria: the restored emulator re-serializes to the exact original
//! bytes at every size (restore loses nothing), and the steady-state window
//! after a restore performs **zero** allocations (the rebuilt emulator is
//! as warm-capable as the original — restore does not trade away the
//! steady-state guarantee pinned by `tests/steady_state_alloc.rs`).

use std::time::Instant;

use mn_assign::{Binding, BindingParams};
use mn_distill::{distill, DistillationMode};
use mn_emucore::{EmulatorSnapshot, HardwareProfile, MultiCoreEmulator};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TcpFlags, TransportHeader, VnId};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{ring_topology, RingParams};
use mn_topology::NodeId;
use mn_util::alloc::thread_alloc_calls;
use mn_util::SimTime;

#[global_allocator]
static ALLOC: mn_util::alloc::CountingAlloc = mn_util::alloc::CountingAlloc;

/// Emulated VN counts to measure (the ISSUE's two scale points).
const SIZES: [usize; 2] = [4_096, 16_384];
/// Submit/advance iterations to warm an emulator before any measurement.
const WARM_ITERS: u64 = 20_000;
/// Iterations in the post-restore steady-state allocation window.
const MEASURE_ITERS: u64 = 20_000;
/// Snapshot repetitions; the best (minimum) wall time is reported.
const SNAP_REPS: usize = 5;

fn tcp_packet(id: u64, src: VnId, dst: VnId, now: SimTime) -> Packet {
    Packet::new(
        PacketId(id),
        FlowKey {
            src,
            dst,
            src_port: 1000,
            dst_port: 2000,
            protocol: Protocol::Tcp,
        },
        TransportHeader::Tcp {
            seq: 0,
            ack: 0,
            // Small payloads keep pipes below line rate so queue depths (and
            // their backing buffers) settle during warm-up.
            payload_len: 200,
            flags: TcpFlags::ACK,
            window: 65535,
        },
        now,
    )
}

/// Builds a single-core emulator with `vns_total` VNs multiplexed over the
/// 512 client locations of a 64-router ring (the same shape the churn and
/// residency benches sweep): VN count is the scaling axis, the physical
/// topology — and hence the route state — stays fixed.
fn build(vns_total: usize) -> (MultiCoreEmulator, Vec<VnId>) {
    let topo = ring_topology(&RingParams {
        routers: 64,
        clients_per_router: 8,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let base: Vec<NodeId> = d.vns().to_vec();
    let locations: Vec<NodeId> = (0..vns_total).map(|i| base[i % base.len()]).collect();
    let binding = Binding::bind(&locations, &BindingParams::new(4, 1));
    let matrix = RoutingMatrix::build(&d);
    let emu =
        MultiCoreEmulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    let vns: Vec<VnId> = binding.vns().collect();
    (emu, vns)
}

/// Drives `iters` submit/advance cycles from index `start` on a
/// wheel-aligned cadence (16.384 µs, an exact divisor of the 2^17 ns slot
/// width) so buffer high-water marks saturate during warm-up — the same
/// cadence `tests/steady_state_alloc.rs` uses to pin the zero-alloc
/// guarantee this bench re-checks across a restore.
fn drive(
    emu: &mut MultiCoreEmulator,
    vns: &[VnId],
    deliveries: &mut Vec<mn_emucore::Delivery>,
    start: u64,
    iters: u64,
) -> u64 {
    const CADENCE_NS: u64 = 1 << 14;
    let mut delivered = 0;
    for i in start..start + iters {
        let now = SimTime::from_nanos(i * CADENCE_NS);
        let src = vns[i as usize % vns.len()];
        let dst = vns[(i as usize + 7) % vns.len()];
        let _ = emu.submit(now, tcp_packet(i, src, dst, now));
        if i % 8 == 0 {
            deliveries.clear();
            emu.advance_into(now, deliveries).unwrap();
            delivered += deliveries.len() as u64;
        }
    }
    delivered
}

fn main() {
    if criterion::invoked_as_test() {
        return;
    }

    let mut checkpoint_ms = Vec::new();
    let mut snapshot_bytes = Vec::new();
    let mut restore_ms = Vec::new();
    let mut steady_allocs = Vec::new();
    let mut shape_holds = true;

    for &clients in &SIZES {
        let (mut emu, vns) = build(clients);
        let mut deliveries: Vec<mn_emucore::Delivery> = Vec::new();
        let delivered = drive(&mut emu, &vns, &mut deliveries, 0, WARM_ITERS);
        assert!(delivered > 0, "warm-up must move traffic");

        // Checkpoint: serialize the live emulator, best of SNAP_REPS.
        let mut snap_secs = f64::MAX;
        let mut bytes = Vec::new();
        for _ in 0..SNAP_REPS {
            let t = Instant::now();
            let snap = emu.snapshot().unwrap();
            let framed = snap.to_bytes();
            snap_secs = snap_secs.min(t.elapsed().as_secs_f64());
            bytes = framed;
        }

        // Restore: parse + checksum + rebuild, best of SNAP_REPS.
        let mut rest_secs = f64::MAX;
        let mut restored = None;
        for _ in 0..SNAP_REPS {
            let t = Instant::now();
            let snap = EmulatorSnapshot::from_bytes(&bytes).expect("framing parses");
            let emu = MultiCoreEmulator::restore(&snap).expect("state reconstructs");
            rest_secs = rest_secs.min(t.elapsed().as_secs_f64());
            restored = Some(emu);
        }
        let mut restored = restored.expect("at least one restore ran");

        // Fidelity: the restored emulator re-serializes to the exact bytes.
        let identical = restored.snapshot().unwrap().to_bytes() == bytes;

        // Steady state across the restore: re-warm (restore drops scratch
        // buffers by design — they hold no state), then a measured window
        // must allocate nothing.
        drive(&mut restored, &vns, &mut deliveries, WARM_ITERS, WARM_ITERS);
        let before = thread_alloc_calls();
        drive(
            &mut restored,
            &vns,
            &mut deliveries,
            2 * WARM_ITERS,
            MEASURE_ITERS,
        );
        let allocs = thread_alloc_calls() - before;

        println!(
            "{clients} VNs: checkpoint {:.2} ms ({} bytes), restore {:.2} ms, \
             re-snapshot identical: {identical}, steady-state allocs after \
             restore: {allocs}",
            snap_secs * 1e3,
            bytes.len(),
            rest_secs * 1e3,
        );
        shape_holds &= identical && allocs == 0;
        checkpoint_ms.push((clients as f64, snap_secs * 1e3));
        snapshot_bytes.push((clients as f64, bytes.len() as f64));
        restore_ms.push((clients as f64, rest_secs * 1e3));
        steady_allocs.push((clients as f64, allocs as f64));
    }

    println!("shape {}", if shape_holds { "ok" } else { "VIOLATED" });
    let report = mn_bench::report::Report::new("snapshot", shape_holds)
        .with_series("checkpoint_ms", checkpoint_ms)
        .with_series("snapshot_bytes", snapshot_bytes)
        .with_series("restore_ms", restore_ms)
        .with_series("steady_allocs_after_restore", steady_allocs);
    match report.write_json("BENCH_snapshot") {
        Ok(path) => println!("bench report written to {path} (shape_holds: {shape_holds})"),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
