//! Live topology dynamics: a link failover with CBR cross traffic, driven
//! entirely by a declarative schedule.
//!
//! Two disjoint paths join the clients — a fast 10 Mb/s primary and a slow
//! 2 Mb/s detour. The schedule fails the primary mid-run (the emulation
//! reroutes incrementally; in-flight packets drain on their old route),
//! restores it later, and along the way runs a CBR cross-traffic episode on
//! the primary's second hop. The TCP flow's goodput timeline shows all
//! three regimes.
//!
//! Run with: `cargo run --release --example link_failover`

use mn_topology::{LinkAttrs, NodeKind, Topology};
use modelnet::{DataRate, DistillationMode, Experiment, Schedule, SimDuration, SimTime};

fn main() {
    // Create: clients a, b joined by a fast path (via r1) and a detour
    // (via r2).
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Client);
    let b = topo.add_node(NodeKind::Client);
    let r1 = topo.add_node(NodeKind::Stub);
    let r2 = topo.add_node(NodeKind::Stub);
    let fast = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
    let slow = LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(6));
    topo.add_link(a, r1, fast).unwrap();
    topo.add_link(
        r1,
        b,
        LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(2)),
    )
    .unwrap();
    topo.add_link(a, r2, slow).unwrap();
    topo.add_link(
        r2,
        b,
        LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(7)),
    )
    .unwrap();

    // The schedule speaks distilled PipeIds; hop-by-hop distillation keeps
    // them 1:1 with target links, so look them up on an identical
    // distillation.
    let d = modelnet::distill(&topo, DistillationMode::HopByHop);
    let duplex = |x, y| (d.find_pipe(x, y).unwrap(), d.find_pipe(y, x).unwrap());
    let (ar1, r1a) = duplex(a, r1);
    let (r1b, _) = duplex(r1, b);
    let schedule = Schedule::new()
        // t=4s: the primary's access link fails — the route falls back to
        // the 2 Mb/s detour without restarting anything.
        .duplex_down(SimTime::from_secs(4), ar1, r1a)
        // t=8s: the link recovers; traffic returns to the fast path.
        .duplex_up(SimTime::from_secs(8), ar1, r1a)
        // t=10s..14s: 6 Mb/s of CBR cross traffic on the restored primary's
        // second hop — the flow now competes for the remaining headroom.
        .cbr_start(SimTime::from_secs(10), r1b, DataRate::from_mbps(6))
        .cbr_stop(SimTime::from_secs(14), r1b);

    let mut runner = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(2)
        .unconstrained_hardware()
        .seed(7)
        .with_schedule(schedule)
        .build()
        .expect("experiment builds");
    let binding = runner.binding().clone();
    let src = binding.vn_at(a).unwrap();
    let dst = binding.vn_at(b).unwrap();
    let flow = runner.add_bulk_flow(src, dst, None, SimTime::ZERO);

    println!("t[s]  goodput[Mb/s]  regime");
    let mut last_acked = 0u64;
    for step in 1..=16u64 {
        runner.run_until(SimTime::from_secs(step)).unwrap();
        let acked = runner.flow_bytes_acked(flow);
        let mbps = (acked - last_acked) as f64 * 8.0 / 1e6;
        last_acked = acked;
        let regime = match step {
            1..=4 => "fast path",
            5..=8 => "FAILED OVER to the 2 Mb/s detour",
            9..=10 => "recovered",
            11..=14 => "competing with 6 Mb/s CBR cross traffic",
            _ => "clear again",
        };
        println!("{step:>4}  {mbps:>13.2}  {regime}");
    }
    let stats = runner.backend().total_stats();
    println!(
        "\n{} packets delivered, {} bytes of CBR cross traffic modelled, schedule {}",
        stats.packets_delivered,
        stats.fluid_modelled_bytes,
        if runner.dynamics().unwrap().finished() {
            "fully applied"
        } else {
            "still pending"
        }
    );
}
