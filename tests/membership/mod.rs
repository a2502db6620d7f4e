//! What a restore rebuilds rather than reads, observed through the
//! emulator's public API: each VN's location and liveness, and the active
//! VNs per entry core that a join picks the least-loaded core by. No tail
//! digest sees the load vector, since no VN joins after a fixture's stop.

use mn_assign::CoreId;
use mn_distill::DistilledTopology;
use mn_emucore::Emulator;
use mn_packet::VnId;
use mn_topology::NodeId;
use mn_util::SimTime;

/// Each VN's location, liveness and entry core, the active count, then the
/// entry core of a fresh VN joined at each of `homes` in turn.
pub type Membership = (
    Vec<(Option<NodeId>, bool, Option<CoreId>)>,
    usize,
    Vec<Option<CoreId>>,
);

/// [`Membership`] of `emu`, joining the fresh VNs at `at`.
pub fn membership(
    emu: &mut Emulator,
    distilled: &DistilledTopology,
    homes: &[NodeId],
    at: SimTime,
) -> Membership {
    let vns = (0..)
        .map(VnId)
        .take_while(|&vn| emu.vn_location(vn).is_some());
    let table: Vec<_> = vns
        .map(|vn| {
            (
                emu.vn_location(vn),
                emu.vn_is_active(vn),
                emu.vn_entry_core(vn),
            )
        })
        .collect();
    let active = emu.active_vn_count();
    let mut joined = Vec::new();
    for (vn, &home) in (table.len() as u32..).map(VnId).zip(homes) {
        assert!(emu.vn_join(distilled, vn, home, at));
        joined.push(emu.vn_entry_core(vn));
    }
    (table, active, joined)
}
