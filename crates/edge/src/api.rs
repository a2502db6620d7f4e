//! The application programming interface for code running on VNs.
//!
//! The paper runs *unmodified* binaries on edge nodes and interposes on their
//! socket calls so that every endpoint binds to the VN's emulated 10/8
//! address. A Rust reproduction cannot run arbitrary binaries, so the
//! equivalent surface is a small callback trait: an [`Application`] instance
//! is bound to a VN, exchanges framed [`Message`]s with applications on other
//! VNs over emulated TCP connections, and sets timers. All side effects are
//! expressed as [`AppAction`]s collected by the [`AppCtx`]; the simulation
//! driver executes them, which keeps applications deterministic and free of
//! any knowledge of the emulation machinery.

use std::any::Any;

use mn_packet::VnId;
use mn_util::{SimDuration, SimTime};

/// A framed application message.
///
/// The body is an arbitrary Rust value moved by reference from sender to
/// receiver (exactly as ModelNet moves packet payloads by reference); the
/// `wire_size` is what the emulated network charges for it.
pub struct Message {
    /// Bytes the message occupies on the emulated TCP stream.
    pub wire_size: u32,
    /// Application-defined content.
    pub body: Box<dyn Any + Send>,
}

impl Message {
    /// Creates a message with an explicit wire size.
    pub fn new<T: Any + Send>(wire_size: u32, body: T) -> Self {
        Message {
            wire_size,
            body: Box::new(body),
        }
    }

    /// Attempts to view the body as a `T`.
    pub fn body_as<T: Any>(&self) -> Option<&T> {
        self.body.downcast_ref::<T>()
    }

    /// Attempts to take the body as a `T`, returning the message on failure.
    pub fn into_body<T: Any>(self) -> Result<Box<T>, Message> {
        let wire_size = self.wire_size;
        self.body
            .downcast::<T>()
            .map_err(|body| Message { wire_size, body })
    }
}

impl std::fmt::Debug for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Message")
            .field("wire_size", &self.wire_size)
            .finish_non_exhaustive()
    }
}

/// A side effect requested by an application callback.
#[derive(Debug)]
pub enum AppAction {
    /// Send a message to the application on another VN.
    Send {
        /// Destination VN.
        to: VnId,
        /// The message.
        message: Message,
    },
    /// Arm a one-shot timer; `on_timer` fires with the given token.
    SetTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Token passed back to `on_timer`.
        token: u64,
    },
    /// Record a named scalar measurement (collected by the experiment
    /// harness).
    Record {
        /// Metric name.
        metric: &'static str,
        /// Sample value.
        value: f64,
    },
}

/// The context handed to every application callback.
pub struct AppCtx {
    now: SimTime,
    actions: Vec<AppAction>,
}

impl AppCtx {
    /// Creates a context for a callback delivered at `now`.
    pub fn new(now: SimTime) -> Self {
        AppCtx {
            now,
            actions: Vec::new(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends a message to the application bound to `to`.
    pub fn send(&mut self, to: VnId, message: Message) {
        self.actions.push(AppAction::Send { to, message });
    }

    /// Arms a one-shot timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(AppAction::SetTimer { delay, token });
    }

    /// Records a measurement sample.
    pub fn record(&mut self, metric: &'static str, value: f64) {
        self.actions.push(AppAction::Record { metric, value });
    }

    /// Consumes the context, yielding the collected actions.
    pub fn into_actions(self) -> Vec<AppAction> {
        self.actions
    }

    /// Number of actions collected so far.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }
}

/// An application instance bound to one VN.
///
/// Implementations must be deterministic given the callback sequence: all
/// randomness should be derived from seeds passed at construction.
pub trait Application {
    /// Called once when the emulation starts.
    fn on_start(&mut self, ctx: &mut AppCtx);

    /// Called when a framed message from another VN has been fully delivered
    /// by the emulated transport.
    fn on_message(&mut self, ctx: &mut AppCtx, from: VnId, message: Message);

    /// Called when a timer armed with [`AppCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut AppCtx, token: u64);

    /// Downcasting hook so experiment harnesses can extract results after the
    /// run.
    fn as_any(&self) -> &dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);

    struct Echo {
        received: Vec<u32>,
    }

    impl Application for Echo {
        fn on_start(&mut self, ctx: &mut AppCtx) {
            ctx.set_timer(SimDuration::from_secs(1), 7);
        }
        fn on_message(&mut self, ctx: &mut AppCtx, from: VnId, message: Message) {
            if let Some(Ping(v)) = message.body_as::<Ping>() {
                self.received.push(*v);
                ctx.send(from, Message::new(8, Ping(*v + 1)));
            }
        }
        fn on_timer(&mut self, ctx: &mut AppCtx, token: u64) {
            ctx.record("timer", token as f64);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn message_roundtrips_typed_bodies() {
        let m = Message::new(100, Ping(42));
        assert_eq!(m.wire_size, 100);
        assert_eq!(m.body_as::<Ping>(), Some(&Ping(42)));
        assert!(m.body_as::<String>().is_none());
        let body = m.into_body::<Ping>().unwrap();
        assert_eq!(*body, Ping(42));
    }

    #[test]
    fn into_body_returns_message_on_type_mismatch() {
        let m = Message::new(10, Ping(1));
        let back = m.into_body::<String>().unwrap_err();
        assert_eq!(back.wire_size, 10);
        assert_eq!(back.body_as::<Ping>(), Some(&Ping(1)));
    }

    #[test]
    fn ctx_collects_actions_in_order() {
        let mut ctx = AppCtx::new(SimTime::from_secs(5));
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        ctx.send(VnId(4), Message::new(16, Ping(1)));
        ctx.set_timer(SimDuration::from_millis(10), 99);
        ctx.record("latency_ms", 12.5);
        assert_eq!(ctx.action_count(), 3);
        let actions = ctx.into_actions();
        assert!(matches!(actions[0], AppAction::Send { to: VnId(4), .. }));
        assert!(matches!(actions[1], AppAction::SetTimer { token: 99, .. }));
        assert!(matches!(
            actions[2],
            AppAction::Record {
                metric: "latency_ms",
                ..
            }
        ));
    }

    #[test]
    fn application_callbacks_drive_actions() {
        let mut app = Echo { received: vec![] };
        let mut ctx = AppCtx::new(SimTime::ZERO);
        app.on_start(&mut ctx);
        assert_eq!(ctx.action_count(), 1);

        let mut ctx = AppCtx::new(SimTime::from_millis(1));
        app.on_message(&mut ctx, VnId(9), Message::new(8, Ping(5)));
        assert_eq!(app.received, vec![5]);
        let actions = ctx.into_actions();
        match &actions[0] {
            AppAction::Send { to, message } => {
                assert_eq!(*to, VnId(9));
                assert_eq!(message.body_as::<Ping>(), Some(&Ping(6)));
            }
            other => panic!("unexpected action {other:?}"),
        }
        // Downcast hook.
        assert!(app.as_any().downcast_ref::<Echo>().is_some());
    }
}
