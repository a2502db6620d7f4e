//! Test-only fault injection for the threaded backend.
//!
//! A [`ChaosPlan`] arms deterministic fault points inside a worker thread:
//! a panic at a chosen epoch, a stall (sleep) at a chosen epoch, or a panic
//! on the next command the worker processes. The chaos tests use these to
//! prove that recovery from the last checkpoint lands on the *exact* output
//! of an uninterrupted run — worker death becomes a structured
//! [`crate::EmuError::WorkerFailure`], never a hang or process abort.
//!
//! The module is always compiled (integration tests in the workspace root
//! cannot see `#[cfg(test)]` APIs), but nothing routes through it unless
//! [`crate::ParallelEmulator::set_chaos`] is called; a default plan is
//! completely inert and costs two branch checks per epoch.

use std::time::Duration;

/// A set of armed fault points for one worker core.
///
/// Epochs are the global, monotonically increasing barrier counters a worker
/// advances through (they never reset between `advance` calls), so "panic at
/// epoch N" pinpoints a deterministic position in the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    pub(crate) panic_at_epoch: Option<u64>,
    pub(crate) stall_at_epoch: Option<(u64, Duration)>,
    pub(crate) panic_on_next_command: bool,
}

impl ChaosPlan {
    /// An inert plan: no fault points armed.
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Arms a worker panic at the start of the given epoch.
    pub fn panic_at_epoch(mut self, epoch: u64) -> Self {
        self.panic_at_epoch = Some(epoch);
        self
    }

    /// Arms a wall-clock stall (the worker sleeps, holding the epoch barrier
    /// hostage) at the start of the given epoch.
    pub fn stall_at_epoch(mut self, epoch: u64, hold: Duration) -> Self {
        self.stall_at_epoch = Some((epoch, hold));
        self
    }

    /// Arms a panic on the next request the worker receives after
    /// installing this plan (the installing `SetChaos` itself is exempt).
    /// This kills a worker while no peer waits for it at the epoch barrier,
    /// so only its reported death ends the coordinator's wait.
    pub fn panic_on_next_command(mut self) -> Self {
        self.panic_on_next_command = true;
        self
    }

    /// Runs the epoch-boundary fault points. Called by the worker at the
    /// start of every epoch; panics or sleeps if a fault is due.
    pub(crate) fn check_epoch(&mut self, epoch: u64) {
        if let Some((at, hold)) = self.stall_at_epoch {
            if epoch >= at {
                self.stall_at_epoch = None;
                std::thread::sleep(hold);
            }
        }
        if self.panic_at_epoch.is_some_and(|at| epoch >= at) {
            panic!("chaos: injected worker panic at epoch {epoch}");
        }
    }

    /// Runs the command-boundary fault point. Called by the worker before
    /// handling each request it receives (after the plan was installed).
    pub(crate) fn check_command(&mut self) {
        if self.panic_on_next_command {
            panic!("chaos: injected worker panic on command");
        }
    }
}
