//! Event budget of the `Runner` driver loop.
//!
//! The driver must not be what sets an experiment's pace: a TCP endpoint
//! keeps at most one live timer event in the queue, so timer events per
//! delivered packet stay a small constant and the queue stays as large as
//! the number of endpoints, however long the run. Everything here is an
//! exact count of virtual-time behaviour — no host timing.

use mn_topology::generators::{ring_topology, RingParams};
use modelnet::{
    DataRate, DistillationMode, DriverCounters, ExecutionBackend, Experiment, Runner, SimDuration,
    SimTime,
};

const FLOWS: usize = 20;

/// 20 unbounded bulk flows, each crossing two ring links of a 5-router ring.
fn bulk_ring() -> Runner {
    let topo = ring_topology(&RingParams {
        routers: 5,
        clients_per_router: 8,
        ..RingParams::default()
    });
    let mut runner = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(4)
        .unconstrained_hardware()
        .seed(17)
        .build()
        .expect("experiment builds");
    let vns = runner.vn_ids();
    for i in 0..FLOWS {
        let (src, dst) = (vns[i], vns[(i + 16) % vns.len()]);
        runner.add_bulk_flow(src, dst, None, SimTime::ZERO);
    }
    runner
}

fn timers_per_delivery(runner: &Runner) -> f64 {
    let DriverCounters {
        events,
        timer_events,
        stale_timer_events,
    } = runner.driver_counters();
    assert!(stale_timer_events <= timer_events && timer_events < events);
    timer_events as f64 / runner.packets_delivered() as f64
}

#[test]
fn timer_events_stay_a_fraction_of_deliveries_and_the_queue_stays_small() {
    let mut runner = bulk_ring();
    runner.run_for(SimDuration::from_secs(5)).unwrap();
    assert!(runner.packets_delivered() > 10_000, "the flows must run");
    let short = timers_per_delivery(&runner);
    assert!(
        short <= 0.25,
        "{short:.3} timer events per delivered packet after 5 s"
    );
    assert!(
        runner.pending_driver_events() <= 4 * FLOWS + 8,
        "{} events pending for {FLOWS} channels",
        runner.pending_driver_events()
    );

    // The cost per packet does not grow with virtual time, and neither does
    // the queue.
    runner.run_for(SimDuration::from_secs(5)).unwrap();
    let long = timers_per_delivery(&runner);
    assert!(
        long <= short * 1.1,
        "timer events per delivered packet rose from {short:.3} (5 s) to {long:.3} (10 s)"
    );
    assert!(runner.pending_driver_events() <= 4 * FLOWS + 8);
}

/// Work added straight to the emulator through `Runner::backend_mut` is
/// picked up by the next run: a fluid flow started there wakes the driver at
/// every rate epoch up to the deadline — the wakeups a twin emulator, stepped
/// by hand from one `next_wakeup` to the next, makes — and accrues the same
/// goodput, on both executors.
#[test]
fn a_fluid_flow_added_through_the_backend_wakes_the_driver() {
    let end = SimTime::from_secs(2);
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        let build = || {
            let topo = ring_topology(&RingParams {
                routers: 4,
                clients_per_router: 2,
                ..RingParams::default()
            });
            let mut runner = Experiment::new(topo)
                .distillation(DistillationMode::HopByHop)
                .cores(2)
                .edge_nodes(4)
                .backend(backend)
                .unconstrained_hardware()
                .seed(17)
                .build()
                .expect("experiment builds");
            let (vns, now) = (runner.vn_ids(), runner.now());
            let rate = DataRate::from_kbps(200);
            assert!(runner
                .backend_mut()
                .add_fluid_flow(1, vns[0], vns[5], rate, 1, now));
            runner
        };
        let mut runner = build();
        runner.run_until(end).unwrap();

        let mut twin = build();
        let emulator = twin.backend_mut();
        let (mut wakeups, mut sink) = (0, Vec::new());
        while let Some(at) = emulator.next_wakeup().filter(|&at| at <= end) {
            emulator.advance_into(at, &mut sink).unwrap();
            wakeups += 1;
        }
        assert!(wakeups > 200, "{wakeups} fluid epochs in 2 s");
        assert_eq!(runner.driver_counters().events, wakeups, "{backend:?}");
        let goodput = runner.backend().fluid_flow_goodput_bytes(1);
        assert!(goodput > Some(40_000), "{goodput:?} B at 200 kb/s for 2 s");
        assert_eq!(goodput, emulator.fluid_flow_goodput_bytes(1), "{backend:?}");
    }
}
