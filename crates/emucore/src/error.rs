//! Structured emulator failures.
//!
//! The threaded backend runs each core on its own OS thread; a core that
//! panics or stops making progress used to take the whole process down (the
//! coordinator asserted the thread was alive and panicked itself otherwise).
//! Worker death is instead surfaced as a typed [`EmuError::WorkerFailure`]
//! through [`crate::Emulator::advance_into`] and friends, so a
//! supervisor (the runner) can tear the pool down and recover from the last
//! checkpoint instead of aborting.

use std::fmt;
use std::time::Duration;

use mn_assign::CoreId;

/// Why a worker core stopped servicing its command ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The worker thread panicked; the payload message is preserved when it
    /// was a string (the common case — `panic!("...")`).
    Panicked(String),
    /// The worker thread is alive but made no heartbeat progress for at
    /// least the configured stall timeout (see
    /// [`crate::Emulator::set_stall_timeout`]).
    Stalled {
        /// How long the coordinator waited without observing a heartbeat.
        waited: Duration,
    },
}

/// A structured emulator error.
///
/// Today the only variant is a worker failure on the threaded backend; the
/// enum is `#[non_exhaustive]` in spirit (matched with a wildcard arm by
/// callers that only care about the message) but kept open so future error
/// classes slot in without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// A worker core thread died or stalled. The emulator is poisoned once
    /// this is returned: every subsequent submit/advance call yields the
    /// same error until the pool is rebuilt (e.g. by restoring a snapshot).
    WorkerFailure {
        /// The core whose thread failed.
        core: CoreId,
        /// What happened to it.
        cause: FailureCause,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::WorkerFailure { core, cause } => match cause {
                FailureCause::Panicked(msg) => {
                    write!(f, "emulator core {} panicked: {msg}", core.index())
                }
                FailureCause::Stalled { waited } => write!(
                    f,
                    "emulator core {} stalled: no heartbeat for {waited:?}",
                    core.index()
                ),
            },
        }
    }
}

impl std::error::Error for EmuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_core_and_cause() {
        let e = EmuError::WorkerFailure {
            core: CoreId(3),
            cause: FailureCause::Panicked("boom".into()),
        };
        assert_eq!(e.to_string(), "emulator core 3 panicked: boom");

        let e = EmuError::WorkerFailure {
            core: CoreId(1),
            cause: FailureCause::Stalled {
                waited: Duration::from_millis(50),
            },
        };
        assert!(e.to_string().contains("core 1 stalled"));
    }
}
