//! Integration tests spanning the whole workspace: the five-phase pipeline,
//! single- vs multi-core equivalence, fault injection with re-routing, and
//! accuracy bounds — each exercising several crates together through the
//! public `modelnet` API.

use mn_apps::{CfsClient, CfsConfig, CfsServer, ChordRing};
use mn_distill::DistillationMode;
use mn_dynamics::{FaultKind, LinkPerturbation};
use mn_topology::generators::{ring_topology, star_topology, RingParams, StarParams};
use mn_topology::gml;
use mn_topology::ron::{ron_mesh, RonMeshParams};
use modelnet::{
    ByteSize, DataRate, ExecutionBackend, Experiment, HardwareProfile, RoutingMatrix, Runner,
    Schedule, SimDuration, SimTime,
};

fn finish_bulk(runner: &mut Runner, flow: modelnet::FlowId, secs: u64) -> Option<SimTime> {
    runner.run_for(SimDuration::from_secs(secs)).unwrap();
    runner.flow_completed_at(flow)
}

#[test]
fn gml_roundtrip_feeds_the_full_pipeline() {
    // Create a topology, write it to GML, read it back, and emulate on it.
    let topo = ring_topology(&RingParams {
        routers: 4,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let text = gml::write_topology(&topo);
    let parsed = gml::parse_topology(&text).expect("round trip parses");
    let mut runner = Experiment::new(parsed)
        .distillation(DistillationMode::HopByHop)
        .unconstrained_hardware()
        .build()
        .expect("experiment builds from parsed GML");
    let vns = runner.vn_ids();
    let flow = runner.add_bulk_flow(vns[0], vns[5], Some(ByteSize::from_kb(64)), SimTime::ZERO);
    assert!(finish_bulk(&mut runner, flow, 20).is_some());
}

#[test]
fn single_and_multi_core_emulations_agree_when_unconstrained() {
    // With no hardware ceilings, splitting the emulation across cores must
    // not change what flows achieve (tunnelling adds only switch latency).
    let run = |cores: usize| -> f64 {
        let topo = star_topology(&StarParams {
            clients: 12,
            ..StarParams::default()
        });
        let mut runner = Experiment::new(topo)
            .distillation(DistillationMode::HopByHop)
            .cores(cores)
            .edge_nodes(4)
            .unconstrained_hardware()
            .seed(9)
            .build()
            .unwrap();
        let vns = runner.vn_ids();
        let mut flows = Vec::new();
        for i in 0..6 {
            flows.push(runner.add_bulk_flow(vns[i], vns[i + 6], None, SimTime::ZERO));
        }
        runner.run_for(SimDuration::from_secs(8)).unwrap();
        flows
            .iter()
            .map(|&f| runner.flow_goodput_kbps(f))
            .sum::<f64>()
            / flows.len() as f64
    };
    let single = run(1);
    let quad = run(4);
    assert!(
        single > 5_000.0,
        "flows should approach the 10 Mb/s spokes: {single}"
    );
    let ratio = quad / single;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "multi-core emulation diverged: single {single:.0} kbps vs quad {quad:.0} kbps"
    );
}

#[test]
fn distillation_modes_preserve_uncontended_path_quality() {
    // A single flow sees the same bandwidth and latency regardless of
    // distillation mode (differences only appear under shared congestion).
    let mut results = Vec::new();
    for mode in [
        DistillationMode::HopByHop,
        DistillationMode::LAST_MILE,
        DistillationMode::EndToEnd,
    ] {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let mut runner = Experiment::new(topo)
            .distillation(mode)
            .unconstrained_hardware()
            .seed(4)
            .build()
            .unwrap();
        let vns = runner.vn_ids();
        let flow = runner.add_bulk_flow(vns[0], vns[7], None, SimTime::ZERO);
        runner.run_for(SimDuration::from_secs(10)).unwrap();
        results.push(runner.flow_goodput_kbps(flow));
    }
    let min = results.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = results.iter().cloned().fold(0.0, f64::max);
    assert!(
        min > 1_500.0,
        "a lone flow should fill its 2 Mb/s access link: {results:?}"
    );
    assert!(
        max / min < 1.15,
        "distillation changed an uncontended flow: {results:?}"
    );
}

#[test]
fn link_failure_reroutes_after_matrix_rebuild() {
    // Fail a link on the flow's current route, reroute, and check traffic
    // still flows if an alternative exists (a ring always has one).
    let topo = ring_topology(&RingParams {
        routers: 6,
        clients_per_router: 1,
        ..RingParams::default()
    });
    let (mut runner, mut distilled) = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .unconstrained_hardware()
        .seed(6)
        .build_with_distilled()
        .expect("builds");
    let vns = runner.vn_ids();
    let flow = runner.add_bulk_flow(vns[0], vns[3], None, SimTime::ZERO);
    runner.run_for(SimDuration::from_secs(3)).unwrap();
    let before = runner.flow_bytes_acked(flow);
    assert!(before > 0);

    // Fail one ring link on the shortest arc by zeroing its bandwidth in both
    // the emulator and the distilled graph, then recompute routes.
    let src_loc = runner.binding().location(vns[0]).unwrap();
    let dst_loc = runner.binding().location(vns[3]).unwrap();
    let route = runner
        .emulator()
        .routing()
        .lookup(src_loc, dst_loc)
        .unwrap()
        .clone();
    let failed_pipe = route.pipes[1];
    let mut failed_attrs = distilled.pipe(failed_pipe).attrs;
    failed_attrs.bandwidth = DataRate::ZERO;
    distilled.pipe_attrs_mut(failed_pipe).unwrap().bandwidth = DataRate::ZERO;
    // Also fail the reverse pipe so ACKs cannot sneak through.
    let rev = distilled
        .find_pipe(
            distilled.pipe(failed_pipe).dst,
            distilled.pipe(failed_pipe).src,
        )
        .unwrap();
    distilled.pipe_attrs_mut(rev).unwrap().bandwidth = DataRate::ZERO;
    runner
        .backend_mut()
        .update_pipe_attrs(failed_pipe, failed_attrs);
    runner.backend_mut().update_pipe_attrs(rev, failed_attrs);
    // "Perfect routing protocol": the routes the failure moved are
    // recomputed immediately.
    let update = runner
        .backend_mut()
        .reroute(&distilled, &[failed_pipe, rev]);
    assert!(!update.is_empty(), "the failed arc carried routes");

    runner.run_for(SimDuration::from_secs(6)).unwrap();
    let after = runner.flow_bytes_acked(flow);
    assert!(
        after > before + 200_000,
        "flow should keep making progress around the other arc of the ring \
         (before {before}, after {after})"
    );
}

#[test]
fn emulation_error_stays_within_per_hop_tick_bound() {
    let topo = ring_topology(&RingParams {
        routers: 8,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let mut runner = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .hardware(HardwareProfile::paper_core())
        .seed(12)
        .build()
        .unwrap();
    let vns = runner.vn_ids();
    for i in 0..4 {
        runner.add_bulk_flow(vns[i], vns[i + 8], None, SimTime::ZERO);
    }
    runner.run_for(SimDuration::from_secs(5)).unwrap();
    let core = &runner.emulator().cores()[0];
    assert!(core.accuracy().delivered() > 1_000);
    assert!(
        core.accuracy().within_bound(SimDuration::from_micros(100)),
        "per-hop error {} us exceeds the tick",
        core.accuracy().max_per_hop_error().as_micros_f64()
    );
}

#[test]
fn cfs_download_completes_over_the_ron_mesh() {
    let mesh = ron_mesh(&RonMeshParams::default());
    let mut runner = Experiment::new(mesh.topology)
        .distillation(DistillationMode::HopByHop)
        .unconstrained_hardware()
        .edge_nodes(12)
        .seed(2002)
        .build()
        .unwrap();
    let vns = runner.vn_ids();
    let ring = ChordRing::new(vns.iter().copied());
    let config = CfsConfig {
        prefetch_window: 40 * 1024,
        ..CfsConfig::default()
    };
    for (i, &vn) in vns.iter().enumerate() {
        if i == 0 {
            runner.add_application(vn, Box::new(CfsClient::new(vn, ring.clone(), config)));
        } else {
            runner.add_application(vn, Box::new(CfsServer::new(vn, ring.clone())));
        }
    }
    runner.run_for(SimDuration::from_secs(120)).unwrap();
    let client = runner.app_as::<CfsClient>(vns[0]).unwrap();
    assert!(
        client.is_complete(),
        "completed {} blocks",
        client.blocks_completed()
    );
    let speed = client.download_speed_kbytes_per_sec().unwrap();
    assert!(
        speed > 20.0 && speed < 5_000.0,
        "download speed {speed} kB/s outside the plausible wide-area range"
    );
}

/// The ACDC experiment's perturbation (25 % of the pipes, delay +0–25 %),
/// scheduled on a ring whose opposite routers tie on two directions: the
/// emulator's routes after it are the shortest paths of the perturbed graph,
/// as if routed from scratch, on both executors.
#[test]
fn fault_injector_and_emulator_stay_consistent() {
    let perturbation = LinkPerturbation {
        fraction: 0.25,
        kind: FaultKind::DelayIncrease {
            min: 0.0,
            max: 0.25,
        },
    };
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        let topo = ring_topology(&RingParams {
            routers: 8,
            clients_per_router: 1,
            ..RingParams::default()
        });
        let mut runner = Experiment::new(topo)
            .distillation(DistillationMode::HopByHop)
            .unconstrained_hardware()
            .backend(backend)
            .with_schedule(Schedule::new().perturb(SimTime::from_secs(1), perturbation, 29))
            .build()
            .unwrap();
        runner.run_until(SimTime::from_secs(2)).unwrap();
        let engine = runner.dynamics().unwrap();
        assert!(engine.finished());
        let perturbed = engine.topology();
        let fresh = RoutingMatrix::build(perturbed);
        let routing = runner.emulator().routing();
        let mut reached = 0;
        for &a in perturbed.vns() {
            for &b in perturbed.vns() {
                assert_eq!(routing.lookup(a, b), fresh.lookup(a, b), "{a} -> {b}");
                reached += usize::from(fresh.lookup(a, b).is_some());
            }
        }
        assert_eq!(reached, 8 * 8);
    }
}
