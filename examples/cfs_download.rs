//! CFS over a wide-area mesh: download a striped 1 MB file through Chord.
//!
//! Reproduces the structure of the paper's §5.1 case study at example scale:
//! 12 wide-area sites (the synthetic RON-like mesh), a CFS server on each,
//! and one client downloading a 1 MB file striped across the ring with a
//! configurable prefetch window.
//!
//! Run with: `cargo run --release --example cfs_download [window_kb]`

use mn_apps::{CfsClient, CfsConfig, CfsServer, ChordRing};
use mn_topology::ron::{ron_mesh, RonMeshParams};
use modelnet::{DistillationMode, Experiment, SimDuration};

fn main() {
    let window_kb: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(40);

    let mesh = ron_mesh(&RonMeshParams::default());
    println!(
        "RON-like mesh: {} sites, {} end-to-end paths",
        mesh.sites.len(),
        mesh.topology.link_count()
    );
    let mut runner = Experiment::new(mesh.topology)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(12)
        .unconstrained_hardware()
        .seed(2002)
        .build()
        .expect("experiment builds");

    let vns = runner.vn_ids();
    let ring = ChordRing::new(vns.iter().copied());
    let config = CfsConfig {
        prefetch_window: window_kb * 1024,
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
    let client = runner
        .app_as::<CfsClient>(vns[0])
        .expect("client installed");
    println!(
        "prefetch window {window_kb} KB: {} of {} blocks in {:?}",
        client.blocks_completed(),
        config.block_count(),
        client.download_time()
    );
    match client.download_speed_kbytes_per_sec() {
        Some(speed) => println!("download speed: {speed:.1} kB/s"),
        None => println!("download did not finish"),
    }
}
