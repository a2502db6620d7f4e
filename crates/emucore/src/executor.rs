//! Where the cores run: the one dispatch point between the coordinator
//! ([`crate::Emulator`]) and its two executors.

use std::sync::Arc;

use mn_assign::CoreId;
use mn_routing::{RouteId, RouteNumbering, RouteTable};
use mn_util::{ByteWriter, SimTime};

use crate::core::CoreStats;
use crate::descriptor::Delivery;
use crate::emulator::{CoreCommand, Dispatch, SubmitOutcome};
use crate::error::EmuError;
use crate::multicore::InlineExecutor;
use crate::parallel::ThreadedExecutor;

/// Where the cores run, chosen when the emulator is built. The coordinator
/// owns all global state and calls down through this surface only; an
/// executor owns the [`crate::EmulatorCore`]s, each holding the tunnels
/// addressed to it, carries tunnelled descriptors from core to core, and
/// nothing else. Every call is one `match` onto the executor inside.
///
/// # Contract
///
/// Results must be bit-identical to running the cores inline: admissions
/// and `apply` take effect on the named core in call order, and `advance`
/// reproduces the round structure *tick every core → hand each fresh tunnel
/// to its owner ([`crate::EmulatorCore::receive_tunnel`]) → repeat while
/// one is already due*, appending deliveries round-major, core-major, and
/// filing tunnels round-major, source-core-major. After any call returns,
/// `stats` and `next_wakeup` reflect it. The threaded executor can fail (a
/// dead or stalled worker): it reports [`EmuError`] from the failing call
/// and from every call after it, and `health` says so without touching a
/// core. The inline executor never errs.
///
/// The forwards are `#[inline]` for the reason [`InlineExecutor`]'s
/// per-packet methods are: the admission path is generic over its batch,
/// so it is monomorphized in the calling crate.
#[derive(Debug)]
pub(crate) enum Executor {
    /// Every core on the calling thread.
    Inline(InlineExecutor),
    /// One OS thread per core.
    Threaded(ThreadedExecutor),
}

/// Evaluates `$call` with `$x` bound to the executor inside `$exec`.
macro_rules! on_executor {
    ($exec:expr, $x:ident => $call:expr) => {
        match $exec {
            Executor::Inline($x) => $call,
            Executor::Threaded($x) => $call,
        }
    };
}

impl Executor {
    /// `Err` with the first failure once the executor is poisoned.
    #[inline]
    pub(crate) fn health(&self) -> Result<(), EmuError> {
        on_executor!(self, x => x.health())
    }

    #[inline]
    pub(crate) fn stats(&self, core: CoreId) -> Option<CoreStats> {
        on_executor!(self, x => x.stats(core))
    }

    #[inline]
    pub(crate) fn next_wakeup(&self) -> Option<SimTime> {
        on_executor!(self, x => x.next_wakeup())
    }

    /// The one admission path (`submit` is a batch of one): settles each
    /// dispatch in input order, an `Ingress` by
    /// [`crate::EmulatorCore::ingress_into`] on its core, appending one
    /// outcome each. May overlap the cores' work; on error `outcomes` is
    /// left as it was.
    #[inline]
    pub(crate) fn ingress_batch<I: Iterator<Item = Dispatch>>(
        &mut self,
        batch: I,
        outcomes: &mut Vec<SubmitOutcome>,
    ) -> Result<(), EmuError> {
        on_executor!(self, x => x.ingress_batch(batch, outcomes))
    }

    /// One un-chopped advance of every core to `now`, then settles each
    /// core's fluid byte integral there.
    #[inline]
    pub(crate) fn advance(
        &mut self,
        now: SimTime,
        deliveries: &mut Vec<Delivery>,
    ) -> Result<(), EmuError> {
        on_executor!(self, x => x.advance(now, deliveries))
    }

    /// Carries out `command` on `core`; `Ok(false)` if the core refused it.
    #[inline]
    pub(crate) fn apply(&mut self, core: CoreId, command: CoreCommand) -> Result<bool, EmuError> {
        on_executor!(self, x => x.apply(core, command))
    }

    #[inline]
    pub(crate) fn broadcast_routes(&mut self, routes: &Arc<RouteTable>) -> Result<(), EmuError> {
        on_executor!(self, x => x.broadcast_routes(routes))
    }

    /// Appends every descriptor's route, read where its core lives. Read-only.
    #[inline]
    pub(crate) fn route_reads(&mut self, routes: &mut Vec<RouteId>) -> Result<(), EmuError> {
        on_executor!(self, x => x.route_reads(routes))
    }

    /// The executor's share of a checkpoint: appends the core count and
    /// every core's state in core order, its routes numbered as given, each
    /// encoded where it lives — nothing is cloned. Read-only: nothing ticks.
    #[inline]
    pub(crate) fn encode_cores(
        &mut self,
        w: &mut ByteWriter,
        numbering: Option<&Arc<RouteNumbering>>,
    ) -> Result<(), EmuError> {
        on_executor!(self, x => x.encode_cores(w, numbering))
    }
}
