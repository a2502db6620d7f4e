//! The executor chosen at run time, so that one type, `Emulator<Executor>`,
//! stands for an emulation whichever way its cores run.

use std::sync::Arc;

use mn_assign::{CoreId, PipeOwnershipDirectory};
use mn_routing::RouteTable;
use mn_util::{ByteWriter, CodecError, SimTime};

use crate::chaos::ChaosPlan;
use crate::core::{CoreStats, EmulatorCore};
use crate::descriptor::Delivery;
use crate::emulator::{CoreCommand, CoreExecutor, Dispatch, Emulator, SubmitOutcome};
use crate::error::EmuError;
use crate::multicore::{InlineExecutor, MultiCoreEmulator};
use crate::parallel::{ParallelEmulator, ThreadedExecutor};

/// The inline or the threaded executor, chosen when the emulator is built.
/// Every call is one `match` onto the executor inside, so results are
/// bit-identical either way. The forwards are `#[inline]` for the reason
/// [`InlineExecutor`]'s per-packet methods are: `Emulator<Executor>` is
/// monomorphized in the calling crate.
#[derive(Debug)]
pub enum Executor {
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

impl CoreExecutor for Executor {
    /// Runs the cores inline; [`ParallelEmulator::new`] or
    /// [`Emulator::restore_like`] builds on the threaded executor.
    fn from_cores(cores: Vec<EmulatorCore>, pod: Arc<PipeOwnershipDirectory>) -> Self {
        Executor::Inline(InlineExecutor::from_cores(cores, pod))
    }

    #[inline]
    fn core_count(&self) -> usize {
        on_executor!(self, x => x.core_count())
    }

    #[inline]
    fn health(&self) -> Result<(), EmuError> {
        on_executor!(self, x => x.health())
    }

    #[inline]
    fn stats(&self, core: CoreId) -> Option<CoreStats> {
        on_executor!(self, x => x.stats(core))
    }

    #[inline]
    fn next_wakeup(&self) -> Option<SimTime> {
        on_executor!(self, x => x.next_wakeup())
    }

    #[inline]
    fn ingress_batch<I: Iterator<Item = Dispatch>>(
        &mut self,
        batch: I,
        outcomes: &mut Vec<SubmitOutcome>,
    ) -> Result<(), EmuError> {
        on_executor!(self, x => x.ingress_batch(batch, outcomes))
    }

    #[inline]
    fn advance(&mut self, now: SimTime, deliveries: &mut Vec<Delivery>) -> Result<(), EmuError> {
        on_executor!(self, x => x.advance(now, deliveries))
    }

    #[inline]
    fn apply(&mut self, core: CoreId, command: CoreCommand) -> Result<bool, EmuError> {
        on_executor!(self, x => x.apply(core, command))
    }

    #[inline]
    fn broadcast_routes(&mut self, routes: &Arc<RouteTable>) -> Result<(), EmuError> {
        on_executor!(self, x => x.broadcast_routes(routes))
    }

    #[inline]
    fn encode_cores(&mut self, w: &mut ByteWriter) -> Result<(), EmuError> {
        on_executor!(self, x => x.encode_cores(w))
    }
}

impl From<MultiCoreEmulator> for Emulator<Executor> {
    fn from(emulator: MultiCoreEmulator) -> Self {
        emulator.rehost(Executor::Inline)
    }
}

impl From<ParallelEmulator> for Emulator<Executor> {
    fn from(emulator: ParallelEmulator) -> Self {
        emulator.rehost(Executor::Threaded)
    }
}

impl Emulator<Executor> {
    /// The cores themselves (accuracy logs, utilisation, pipes).
    ///
    /// # Panics
    ///
    /// Panics on the threaded executor, whose cores live on their own
    /// threads; read counters through [`Emulator::total_stats`] there.
    pub fn cores(&self) -> &[EmulatorCore] {
        match &self.exec {
            Executor::Inline(inline) => &inline.cores,
            Executor::Threaded(_) => panic!(
                "the cores of a threaded emulator live on their worker threads; \
                 use the coordinator's counters instead"
            ),
        }
    }

    /// [`Emulator::restore_bytes`] onto the executor `self` runs on: a
    /// fresh worker pool on the threaded one (the way out of a poisoned
    /// run), the calling thread on the inline one.
    pub fn restore_like(&self, framed: &[u8]) -> Result<Self, CodecError> {
        let restored = MultiCoreEmulator::restore_bytes(framed)?;
        Ok(match self.exec {
            Executor::Inline(_) => restored.into(),
            Executor::Threaded(_) => ParallelEmulator::from_sequential(restored).into(),
        })
    }

    /// [`ParallelEmulator::set_chaos`] on the threaded executor; `false` on
    /// the inline one, which has no worker to fault.
    pub fn set_chaos(&mut self, core: CoreId, plan: ChaosPlan) -> bool {
        match &mut self.exec {
            Executor::Inline(_) => false,
            Executor::Threaded(threaded) => threaded.set_chaos(core, plan),
        }
    }
}
