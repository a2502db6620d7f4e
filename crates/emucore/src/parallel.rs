//! True multi-threaded core execution with bit-identical determinism.
//!
//! [`ThreadedExecutor`] runs every [`EmulatorCore`] on its own OS thread —
//! the execution model of the paper's testbed, where each core node is a
//! separate machine — while producing **bit-identical** results to the
//! inline executor: the same deliveries in the same order at the same
//! virtual times, the same per-core counters, the same RNG streams. The
//! coordinator above it ([`crate::Emulator`]) is the same code for both, so
//! only what happens *between* cores needs an argument, and this is it.
//!
//! # Architecture
//!
//! * **One thread per core.** Each worker owns its `EmulatorCore` outright,
//!   the tunnels addressed to it included; no emulation state is shared
//!   between threads. The route table and the pipe ownership directory are
//!   immutable and shared through `Arc`s.
//! * **One epoch barrier, one mailbox per pair.** The inline executor
//!   advances all cores in rounds: tick every core (each admitting the
//!   tunnels due in its inbox first), file the freshly produced tunnels in
//!   their owners' inboxes, repeat while one of them is due. The workers
//!   reproduce those rounds as *epochs*. In each, a worker ticks its core,
//!   sorts its fresh tunnels by target and posts each target's batch —
//!   with its vote on whether to continue — to the mailbox for (epoch
//!   parity, itself, target), taking one lock per pair per epoch. It then
//!   waits at the one barrier all workers share, and afterwards drains the
//!   mailboxes addressed to it in source-core order into its core's inbox:
//!   the inline rounds' (epoch, source core, FIFO) filing order. Every
//!   worker ORs the same votes, so all agree on whether another epoch
//!   follows, and virtual clocks never drift farther apart than one tunnel
//!   exchange — the paper's bound on core cooperation.
//! * **Why parity is enough.** The mailbox for epoch e + 2 is written only
//!   after barrier e + 1, which its reader reaches only once it has drained
//!   epoch e's; so the barrier is the only synchronisation, and each
//!   mailbox lock is never contended. A lock rather than a bare cell makes
//!   a protocol bug a wrong answer, not undefined behaviour. The batches'
//!   buffers rotate between a worker's outbox and its two mailboxes per
//!   target, so the steady state allocates nothing on the tunnel path.
//! * **Determinism of delivery streams.** A worker appends an advance's
//!   deliveries to one buffer, epoch after epoch, records where each epoch
//!   ends, and hands both back in its one reply; the coordinator thread
//!   interleaves the replies epoch-major, core-major — the same order the
//!   inline rounds append them.
//! * **Every request is answered, once.** Each worker takes requests from
//!   its own bounded channel, one message per core per call (a batch's
//!   packets for a core are one admission request, an advance is one
//!   request), and all reply over one shared bounded channel, tagged with
//!   their core; a reply that comes while the coordinator waits on another
//!   worker is filed in that worker's slot. A reply carries the core's
//!   refreshed counters and earliest deadline, which `stats` and
//!   `next_wakeup` read. Buffers travel with the messages and come back in
//!   the replies, so the steady state allocates nothing on any thread.
//! * **Waiting leaves the CPU to the workers.** Both sides poll a few
//!   times, yielding between polls, then block on their channel, which
//!   wakes whichever thread blocks on it: any thread may drive the emulator.
//! * **Supervision lives here and only here.** A worker's loop runs under
//!   `catch_unwind`, and a panic is its last message, which ends any wait;
//!   an opt-in heartbeat watchdog bounds a wait on a stalled worker. The
//!   first failure raises the shared abort flag, which releases every
//!   worker waiting at the barrier, and poisons the executor.
//!
//! Placement is the OS scheduler's: workers are named `mn-core-N`
//! (what a profiler or `top -H` shows) and never pinned — `std` offers no
//! portable pinning.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use mn_assign::{CoreId, PipeOwnershipDirectory};
use mn_distill::PipeId;
use mn_routing::{RouteId, RouteNumbering, RouteTable};
use mn_util::{ByteWriter, SimTime, SpinBarrier};

use crate::chaos::ChaosPlan;
use crate::core::{CoreStats, EmulatorCore, IngressOutcome, TickOutput};
use crate::descriptor::{Delivery, Descriptor};
use crate::emulator::{CoreCommand, Dispatch, SubmitOutcome};
use crate::error::{EmuError, FailureCause};

/// Messages in flight per worker, each way, at most: every call's replies
/// are read before the next call, so one request and its reply, plus —
/// after a failed call — the `Finish` and the worker's last message.
const IN_FLIGHT: usize = 2;
/// Polls of the request channel, each after a yield, before an idle worker
/// blocks on it.
const IDLE_POLLS_BEFORE_BLOCKING: u32 = 256;
/// Polls of the reply channel, each after a yield, before the waiting
/// coordinator blocks on it: a reply that comes this soon costs no futex
/// round trip.
const WAIT_POLLS_BEFORE_BLOCKING: u32 = 32;

/// Blocks on the empty `receiver` for a moment. std puts a channel's list
/// of blocked receivers, and a thread's context for blocking, on the heap
/// the first time either blocks; priming every channel and thread at
/// construction leaves that allocation to no steady-state wait.
fn prime<T>(receiver: &Receiver<T>) {
    let _ = receiver.recv_timeout(Duration::from_micros(10));
}

/// A packet offered at a core's NIC at a time, into its resolved first pipe.
type Admission = (SimTime, PipeId, Descriptor);

/// Coordinator → worker requests. Delivered in FIFO order per worker, so
/// admission/command/advance interleaving matches the coordinator's call
/// order.
enum Request {
    /// This core's packets of one batch, admitted in order; `outcomes`
    /// arrives empty and returns one decision per packet.
    Admit {
        batch: Vec<Admission>,
        outcomes: Vec<IngressOutcome>,
    },
    /// Run scheduler epochs at `now` until no tunnel remains due, appending
    /// every epoch's deliveries to `deliveries` and the length they reach
    /// at each epoch's end to `epoch_ends` (both arrive empty).
    Advance {
        now: SimTime,
        deliveries: Vec<Delivery>,
        epoch_ends: Vec<usize>,
    },
    /// Carry out a coordinator command on this core.
    Apply(CoreCommand),
    /// Hand back the route of every descriptor on the core. Read-only.
    RouteReads,
    /// Encode the core, its routes numbered as given, into the buffer
    /// carried (the one this worker filled last time) and hand it back.
    Snapshot(Vec<u8>, Option<Arc<RouteNumbering>>),
    /// Install a chaos fault plan (test-only fault injection; see
    /// [`crate::chaos`]).
    SetChaos(ChaosPlan),
    /// Stop: hand the core back and exit the thread.
    Finish,
}

/// What the coordinator caches per worker: refreshed by every reply.
#[derive(Clone, Copy)]
struct Status {
    stats: CoreStats,
    next_wakeup: Option<SimTime>,
}

impl Status {
    /// Counters plus the earliest due work on `core`, tick-rounded.
    fn of(core: &EmulatorCore) -> Self {
        Status {
            stats: *core.stats(),
            next_wakeup: core.next_wakeup(),
        }
    }
}

/// Worker → coordinator responses: one per request, and a last message.
enum Response {
    /// Reply to [`Request::Admit`]: its two buffers, `batch` drained and
    /// `outcomes` filled in batch order.
    Admitted {
        batch: Vec<Admission>,
        outcomes: Vec<IngressOutcome>,
        status: Status,
    },
    /// Reply to [`Request::Advance`]: its two buffers, filled.
    Advanced {
        deliveries: Vec<Delivery>,
        epoch_ends: Vec<usize>,
        status: Status,
    },
    /// Reply to [`Request::Apply`]: whether the core accepted the command;
    /// and to [`Request::SetChaos`], always `ok`.
    Done { ok: bool, status: Status },
    /// Reply to [`Request::RouteReads`].
    RouteReads(Vec<RouteId>),
    /// Reply to [`Request::Snapshot`]: the core's encoded state.
    Snapshot(Vec<u8>),
    /// Last message after [`Request::Finish`]: the core.
    Core(Box<EmulatorCore>),
    /// Last message of a worker whose loop panicked: the panic message.
    Died(String),
}

/// A tunnelled descriptor arriving on its target core at a time.
type Tunnel = (SimTime, Descriptor);

/// One epoch's tunnels from one core to another.
#[derive(Default)]
struct Post {
    /// In the order the sender's tick produced them.
    tunnels: Vec<Tunnel>,
    /// Whether any tunnel the sender produced this epoch, to whichever
    /// core, is due at the advance time: the inline rounds' continue
    /// condition.
    produced_due: bool,
}

/// A [`Post`] slot on its own cache line.
#[repr(align(64))]
#[derive(Default)]
struct Mailbox(Mutex<Post>);

/// What the workers share: the epoch barrier and one mailbox per (epoch
/// parity, source core, target core).
struct Exchange {
    cores: usize,
    barrier: SpinBarrier,
    mailboxes: Box<[Mailbox]>,
}

impl Exchange {
    fn new(cores: usize) -> Self {
        Exchange {
            cores,
            barrier: SpinBarrier::new(cores),
            mailboxes: (0..2 * cores * cores).map(|_| Mailbox::default()).collect(),
        }
    }

    /// The mailbox `source` posts its `epoch` tunnels for `target` to. A
    /// lock a panicking peer poisoned is read through: the coordinator
    /// reports that peer, and the run's results are void anyway.
    fn mailbox(&self, epoch: u64, source: usize, target: usize) -> MutexGuard<'_, Post> {
        let parity = (epoch & 1) as usize;
        let slot = &self.mailboxes[(parity * self.cores + source) * self.cores + target];
        slot.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One core's execution thread.
struct Worker {
    me: usize,
    core: EmulatorCore,
    pod: Arc<PipeOwnershipDirectory>,
    requests: Receiver<Request>,
    /// Shared by every worker; each message is tagged with `me`.
    replies: SyncSender<(usize, Response)>,
    exchange: Arc<Exchange>,
    /// This epoch's tunnels, by target core (empty at `me`); each batch
    /// trades buffers with the mailbox it is posted to.
    outbox: Vec<Vec<Tunnel>>,
    /// Global epoch counter; every worker holds the same value at every
    /// point of the protocol.
    epoch: u64,
    tick_buf: TickOutput,
    /// Coordinator-raised kill switch. Once set (a peer died or stalled),
    /// the barrier releases this worker instead of holding it for a peer
    /// that will never arrive, and the worker replies and returns to its
    /// request loop so shutdown still completes.
    abort: Arc<AtomicBool>,
    /// Liveness counter the coordinator's stall watchdog reads: bumped on
    /// every request received and every epoch entered.
    heartbeat: Arc<AtomicU64>,
    /// Armed fault points (inert by default; see [`crate::chaos`]).
    chaos: ChaosPlan,
}

impl Worker {
    /// Serves requests until `Finish`, then hands the core (accuracy log,
    /// pipe counters) back as its last message; a panic on the way is
    /// caught and sent as the last message instead.
    fn run(mut self) {
        // This thread's first block, on a channel of its own.
        let (_sender, own) = mpsc::sync_channel::<()>(1);
        prime(&own);
        let last = match panic::catch_unwind(AssertUnwindSafe(|| self.serve())) {
            Ok(()) => Response::Core(Box::new(self.core)),
            Err(payload) => Response::Died(panic_message(payload.as_ref())),
        };
        // Refused only once the coordinator, its one reader, is gone.
        let _ = self.replies.send((self.me, last));
    }

    fn serve(&mut self) {
        while let Some(request) = self.next_request() {
            self.heartbeat.fetch_add(1, Ordering::Relaxed);
            if !matches!(request, Request::SetChaos(_)) {
                self.chaos.check_command();
            }
            let reply = match request {
                Request::Admit {
                    mut batch,
                    mut outcomes,
                } => {
                    let core = &mut self.core;
                    let admit = |(now, first, descriptor): Admission| {
                        core.ingress_into(now, first, descriptor)
                    };
                    outcomes.extend(batch.drain(..).map(admit));
                    Response::Admitted {
                        batch,
                        outcomes,
                        status: Status::of(&self.core),
                    }
                }
                Request::Advance {
                    now,
                    deliveries,
                    epoch_ends,
                } => self.advance(now, deliveries, epoch_ends),
                Request::Apply(command) => Response::Done {
                    ok: command.apply_to(&mut self.core),
                    status: Status::of(&self.core),
                },
                Request::RouteReads => {
                    let mut routes = Vec::new();
                    self.core.route_reads(&mut routes);
                    Response::RouteReads(routes)
                }
                Request::Snapshot(buf, numbering) => {
                    // Kept between checkpoints: grown as it is written.
                    let mut state = ByteWriter::reusing(buf, 0);
                    self.core.encode_state(&mut state, numbering.as_deref());
                    Response::Snapshot(state.into_bytes())
                }
                Request::SetChaos(plan) => {
                    self.chaos = plan;
                    Response::Done {
                        ok: true,
                        status: Status::of(&self.core),
                    }
                }
                Request::Finish => return,
            };
            // Refused only once the coordinator is gone; then so are the
            // requests, and the loop ends.
            let _ = self.replies.send((self.me, reply));
        }
    }

    /// The next request, or `None` once the coordinator is gone: a few
    /// yielding polls, then a blocking receive.
    fn next_request(&self) -> Option<Request> {
        for _ in 0..IDLE_POLLS_BEFORE_BLOCKING {
            match self.requests.try_recv() {
                Ok(request) => return Some(request),
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(TryRecvError::Disconnected) => return None,
            }
        }
        self.requests.recv().ok()
    }

    /// Mirrors [`InlineExecutor`]'s advance for this core: epochs of
    /// (tick → exchange), repeated while any core produced a tunnel that is
    /// already due. Returns the one reply, with every epoch's deliveries.
    fn advance(
        &mut self,
        now: SimTime,
        mut deliveries: Vec<Delivery>,
        mut epoch_ends: Vec<usize>,
    ) -> Response {
        let me = self.me;
        let peers = (0..self.exchange.cores).filter(move |&core| core != me);
        loop {
            self.epoch += 1;
            let epoch = self.epoch;
            self.heartbeat.fetch_add(1, Ordering::Relaxed);
            self.chaos.check_epoch(epoch);
            // One scheduler pass through the reusable buffer.
            let mut tick_buf = std::mem::take(&mut self.tick_buf);
            self.core.tick_into(now, &mut tick_buf);
            let mut produced_due = false;
            for (pipe, descriptor, arrival) in tick_buf.tunnels.drain(..) {
                // Invariant: the POD covers every pipe a route names (it
                // covers the topology; a restore refuses routes past it).
                let owner = self
                    .pod
                    .get_owner(pipe)
                    .expect("route references a pipe covered by the POD");
                debug_assert_ne!(owner.index(), self.me, "own pipes never tunnel");
                produced_due |= arrival <= now;
                self.outbox[owner.index()].push((arrival, descriptor));
            }
            deliveries.append(&mut tick_buf.deliveries);
            self.tick_buf = tick_buf;
            // The mailbox's buffer was drained two epochs ago; it becomes
            // the next outbox.
            for target in peers.clone() {
                let mut post = self.exchange.mailbox(epoch, me, target);
                std::mem::swap(&mut post.tunnels, &mut self.outbox[target]);
                post.produced_due = produced_due;
            }
            if !self.exchange.barrier.wait(&self.abort) {
                // A peer died or stalled and the coordinator aborted this
                // advance: reply at once (the poisoned coordinator skips the
                // reply), so Finish still reaches us.
                break;
            }
            let mut any_due = produced_due;
            for source in peers.clone() {
                let mut post = self.exchange.mailbox(epoch, source, me);
                any_due |= post.produced_due;
                for (arrival, descriptor) in post.tunnels.drain(..) {
                    self.core.receive_tunnel(arrival, descriptor);
                }
            }
            epoch_ends.push(deliveries.len());
            if !any_due {
                break;
            }
        }
        // Settle the fluid byte integral at the advance target, as the
        // executor contract requires.
        self.core.integrate_fluid_to(now);
        Response::Advanced {
            deliveries,
            epoch_ends,
            status: Status::of(&self.core),
        }
    }
}

/// Coordinator-side endpoint of one worker.
struct WorkerHandle {
    /// The core this worker runs, for failure attribution.
    core: CoreId,
    thread: Option<JoinHandle<()>>,
    requests: SyncSender<Request>,
    /// This worker's reply, if it came while the coordinator waited on
    /// another worker.
    reply: Option<Response>,
    /// Whether the worker's last message — its core or its death — came.
    gone: bool,
    /// The worker's liveness counter, read by the stall watchdog.
    heartbeat: Arc<AtomicU64>,
    /// Latest counters and wakeup reported by the worker.
    status: Status,
    /// A batch's packets for this core and the outcome slot of each, filled
    /// while the batch is split and emptied by the reply.
    admissions: Vec<Admission>,
    slots: Vec<usize>,
    /// The buffers the requests carry, back from the worker between calls
    /// (empty, keeping their capacity): admission outcomes, an advance's
    /// deliveries and its epoch ends, a checkpoint's encoded core.
    outcomes: Vec<IngressOutcome>,
    deliveries: Vec<Delivery>,
    epoch_ends: Vec<usize>,
    snapshot_buf: Vec<u8>,
    /// `snapshot_buf` is the core as it is: no request has gone to the
    /// worker since it encoded it.
    staged: bool,
}

/// Best-effort extraction of a panic payload message (the common
/// `panic!("...")` cases carry a `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    (payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs every core on its own OS thread, called over bounded channels.
/// Owns everything supervision needs — abort flag, heartbeats, the stall
/// watchdog, the first failure — so none of it leaks into the coordinator.
pub(crate) struct ThreadedExecutor {
    workers: Vec<WorkerHandle>,
    /// Every worker's messages, tagged with its index.
    replies: Receiver<(usize, Response)>,
    /// Shared kill switch raised on the first worker failure so surviving
    /// workers leave the epoch barrier instead of spinning forever.
    abort: Arc<AtomicBool>,
    /// First failure observed; poisons the executor — every subsequent
    /// call returns this same error until the pool is rebuilt (e.g. from a
    /// checkpoint).
    failure: Option<EmuError>,
    /// Wall-clock budget the stall watchdog allows a worker's heartbeat to
    /// stand still while the coordinator waits on it. `None` (the default)
    /// disables the watchdog.
    pub(crate) stall_timeout: Option<Duration>,
    /// The route numbering the staged encodings were written under.
    staged_numbering: Option<Arc<RouteNumbering>>,
}

impl std::fmt::Debug for ThreadedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedExecutor")
            .field("core_count", &self.workers.len())
            .field("failure", &self.failure)
            .finish()
    }
}

impl ThreadedExecutor {
    /// Records the first worker failure: raises the shared abort flag (so
    /// surviving workers leave the epoch barrier) and poisons the
    /// executor. Returns the error for propagation.
    fn fail(&mut self, error: EmuError) -> EmuError {
        self.abort.store(true, Ordering::Release);
        if self.failure.is_none() {
            self.failure = Some(error.clone());
        }
        error
    }

    /// Sends worker `index` a request (FIFO per worker). A worker hangs up
    /// only on its way out, after its last message, so a refused send reads
    /// on to that message.
    fn send(&mut self, index: usize, request: Request) -> Result<(), EmuError> {
        self.workers[index].staged = false;
        if self.workers[index].requests.send(request).is_ok() {
            return Ok(());
        }
        loop {
            self.wait(index)?;
        }
    }

    /// Blocks until worker `index`'s next reply, filing the replies of
    /// other workers that arrive first in their slots.
    ///
    /// Instead of hanging forever on a dead or wedged worker, fails
    /// structurally: a worker's death, reported as its last message, ends
    /// the wait as a [`FailureCause::Panicked`] — *any* worker's, because
    /// the epoch barrier couples them, so the worker being waited on may be
    /// innocently wedged behind a dead peer and it is the peer's death that
    /// must surface. With a stall timeout configured, a worker whose
    /// heartbeat stops moving for that long (wall clock) is reported as
    /// [`FailureCause::Stalled`]; the stalled core named is the one waited
    /// on, which may itself be a victim of a stalled peer.
    ///
    /// A few yielding polls come first, then a blocking receive.
    fn wait(&mut self, index: usize) -> Result<Response, EmuError> {
        let mut polls = 0;
        loop {
            if let Some(response) = self.workers[index].reply.take() {
                return Ok(response);
            }
            let message = if polls < WAIT_POLLS_BEFORE_BLOCKING {
                polls += 1;
                match self.replies.try_recv() {
                    Err(TryRecvError::Empty) => {
                        std::thread::yield_now();
                        continue;
                    }
                    received => received.ok(),
                }
            } else if let Some(timeout) = self.stall_timeout {
                let heartbeat = &self.workers[index].heartbeat;
                let beat = heartbeat.load(Ordering::Relaxed);
                match self.replies.recv_timeout(timeout) {
                    Err(RecvTimeoutError::Timeout) if heartbeat.load(Ordering::Relaxed) == beat => {
                        return Err(self.fail(EmuError::WorkerFailure {
                            core: self.workers[index].core,
                            cause: FailureCause::Stalled { waited: timeout },
                        }));
                    }
                    Err(RecvTimeoutError::Timeout) => continue,
                    received => received.ok(),
                }
            } else {
                self.replies.recv().ok()
            };
            // `None`: every worker has hung up, each after its last message.
            let (from, response) = message.unwrap_or_else(|| {
                (
                    index,
                    Response::Died("worker exited without replying".into()),
                )
            });
            let worker = &mut self.workers[from];
            match response {
                Response::Died(message) => {
                    worker.gone = true;
                    let core = worker.core;
                    return Err(self.fail(EmuError::WorkerFailure {
                        core,
                        cause: FailureCause::Panicked(message),
                    }));
                }
                response if from == index => return Ok(response),
                response => worker.reply = Some(response),
            }
        }
    }

    /// Waits for worker `index`'s [`Response::Done`], refreshing its cached
    /// status; returns the reply's `ok`.
    fn wait_done(&mut self, index: usize) -> Result<bool, EmuError> {
        let Response::Done { ok, status } = self.wait(index)? else {
            unreachable!("Apply and SetChaos are answered by Done")
        };
        self.workers[index].status = status;
        Ok(ok)
    }

    /// Sends worker `index` a request answered by [`Response::Done`] and
    /// returns the reply's `ok`.
    fn call(&mut self, index: usize, request: Request) -> Result<bool, EmuError> {
        self.send(index, request)?;
        self.wait_done(index)
    }

    /// Splits a batch by core and sends each core with work its share in
    /// one request, then fills the outcome slots from each core's one reply.
    /// On error `outcomes` holds unanswered placeholders, and the executor
    /// is poisoned, so no later batch meets the slots left behind.
    fn admit(
        &mut self,
        batch: impl Iterator<Item = Dispatch>,
        outcomes: &mut Vec<SubmitOutcome>,
    ) -> Result<(), EmuError> {
        for dispatch in batch {
            let outcome = match dispatch {
                Dispatch::Resolved(outcome) => outcome,
                Dispatch::Ingress {
                    core,
                    now,
                    first,
                    descriptor,
                } => {
                    let worker = &mut self.workers[core.index()];
                    worker.admissions.push((now, first, descriptor));
                    worker.slots.push(outcomes.len());
                    // Placeholder, overwritten by the core's reply.
                    SubmitOutcome::NoRoute
                }
            };
            outcomes.push(outcome);
        }
        for index in 0..self.workers.len() {
            let worker = &mut self.workers[index];
            if worker.slots.is_empty() {
                continue;
            }
            let request = Request::Admit {
                batch: std::mem::take(&mut worker.admissions),
                outcomes: std::mem::take(&mut worker.outcomes),
            };
            self.send(index, request)?;
        }
        for index in 0..self.workers.len() {
            if self.workers[index].slots.is_empty() {
                continue;
            }
            let Response::Admitted {
                batch,
                outcomes: mut decided,
                status,
            } = self.wait(index)?
            else {
                unreachable!("Admit is answered by Admitted")
            };
            let worker = &mut self.workers[index];
            for (&slot, &outcome) in worker.slots.iter().zip(&decided) {
                outcomes[slot] = outcome.into();
            }
            worker.slots.clear();
            decided.clear();
            (worker.admissions, worker.outcomes, worker.status) = (batch, decided, status);
        }
        Ok(())
    }

    /// [`crate::Emulator::set_chaos`]'s body.
    pub(crate) fn set_chaos(&mut self, core: CoreId, plan: ChaosPlan) -> bool {
        self.failure.is_none()
            && core.index() < self.workers.len()
            && self.call(core.index(), Request::SetChaos(plan)) == Ok(true)
    }

    /// Shutdown must never panic (it also runs from [`Drop`]), so unlike
    /// the normal protocol paths it tolerates dead workers: every worker not
    /// yet gone is sent `Finish`, and messages are read until each has sent
    /// its last — its core, or its death, which loses the core from the
    /// returned set. Replies a failed call left unread are skipped.
    pub(crate) fn shutdown(&mut self) -> Vec<EmulatorCore> {
        let mut cores: Vec<Option<EmulatorCore>> = self.workers.iter().map(|_| None).collect();
        for worker in &mut self.workers {
            if !worker.gone {
                let _ = worker.requests.send(Request::Finish);
            }
        }
        while self.workers.iter().any(|worker| !worker.gone) {
            let Ok((from, response)) = self.replies.recv() else {
                break;
            };
            match response {
                Response::Core(core) => cores[from] = Some(*core),
                Response::Died(_) => {}
                _ => continue,
            }
            self.workers[from].gone = true;
        }
        for worker in &mut self.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
        cores.into_iter().flatten().collect()
    }

    /// Takes ownership of the cores, in core order (`pod` names the core a
    /// tunnel is for), and spawns one execution thread per core.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread cannot be spawned.
    pub(crate) fn new(cores: Vec<EmulatorCore>, pod: Arc<PipeOwnershipDirectory>) -> Self {
        // Every worker is wired before any is spawned, and none reads a
        // peer's mailbox before the first epoch's barrier.
        let n = cores.len();
        let exchange = Arc::new(Exchange::new(n));
        let abort = Arc::new(AtomicBool::new(false));
        // The coordinator keeps no sender, so a receive fails only once
        // every worker has hung up.
        let (reply_tx, replies) = mpsc::sync_channel(IN_FLIGHT * n);
        prime(&replies);
        let mut workers = Vec::with_capacity(n);
        for (me, core) in cores.into_iter().enumerate() {
            let (request_tx, request_rx) = mpsc::sync_channel(IN_FLIGHT);
            prime(&request_rx);
            let heartbeat = Arc::new(AtomicU64::new(0));
            // The core may carry counters and scheduled deadlines from a
            // previous life (a converted emulator, a restored checkpoint).
            let status = Status::of(&core);
            let worker = Worker {
                me,
                core,
                pod: pod.clone(),
                requests: request_rx,
                replies: reply_tx.clone(),
                exchange: exchange.clone(),
                outbox: vec![Vec::new(); n],
                epoch: 0,
                tick_buf: TickOutput::default(),
                abort: abort.clone(),
                heartbeat: heartbeat.clone(),
                chaos: ChaosPlan::default(),
            };
            // The panic `Emulator::threaded` documents.
            let thread = std::thread::Builder::new()
                .name(format!("mn-core-{me}"))
                .spawn(move || worker.run())
                .expect("spawn emulator core thread");
            workers.push(WorkerHandle {
                core: CoreId(me),
                thread: Some(thread),
                requests: request_tx,
                reply: None,
                gone: false,
                heartbeat,
                status,
                admissions: Vec::new(),
                slots: Vec::new(),
                outcomes: Vec::new(),
                deliveries: Vec::new(),
                epoch_ends: Vec::new(),
                snapshot_buf: Vec::new(),
                staged: false,
            });
        }

        ThreadedExecutor {
            workers,
            replies,
            abort,
            failure: None,
            stall_timeout: None,
            staged_numbering: None,
        }
    }

    pub(crate) fn health(&self) -> Result<(), EmuError> {
        match &self.failure {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }

    pub(crate) fn stats(&self, core: CoreId) -> Option<CoreStats> {
        self.workers.get(core.index()).map(|w| w.status.stats)
    }

    pub(crate) fn next_wakeup(&self) -> Option<SimTime> {
        self.workers
            .iter()
            .filter_map(|w| w.status.next_wakeup)
            .min()
    }

    pub(crate) fn ingress_batch<I: Iterator<Item = Dispatch>>(
        &mut self,
        batch: I,
        outcomes: &mut Vec<SubmitOutcome>,
    ) -> Result<(), EmuError> {
        let base = outcomes.len();
        let result = self.admit(batch, outcomes);
        if result.is_err() {
            outcomes.truncate(base);
        }
        result
    }

    pub(crate) fn advance(
        &mut self,
        now: SimTime,
        deliveries: &mut Vec<Delivery>,
    ) -> Result<(), EmuError> {
        for index in 0..self.workers.len() {
            let worker = &mut self.workers[index];
            let request = Request::Advance {
                now,
                deliveries: std::mem::take(&mut worker.deliveries),
                epoch_ends: std::mem::take(&mut worker.epoch_ends),
            };
            self.send(index, request)?;
        }
        for index in 0..self.workers.len() {
            let Response::Advanced {
                deliveries,
                epoch_ends,
                status,
            } = self.wait(index)?
            else {
                unreachable!("Advance is answered by Advanced")
            };
            let worker = &mut self.workers[index];
            (worker.deliveries, worker.epoch_ends, worker.status) =
                (deliveries, epoch_ends, status);
        }
        // Epoch-major, core-major: the inline rounds' order. Every worker
        // ran the same epochs, having agreed through the mailboxes on each
        // one's continue decision.
        let epochs = self.workers[0].epoch_ends.len();
        for epoch in 0..epochs {
            for worker in &self.workers {
                debug_assert_eq!(worker.epoch_ends.len(), epochs, "cores agree on epochs");
                let start = epoch.checked_sub(1).map_or(0, |e| worker.epoch_ends[e]);
                deliveries.extend_from_slice(&worker.deliveries[start..worker.epoch_ends[epoch]]);
            }
        }
        for worker in &mut self.workers {
            worker.deliveries.clear();
            worker.epoch_ends.clear();
        }
        Ok(())
    }

    pub(crate) fn apply(&mut self, core: CoreId, command: CoreCommand) -> Result<bool, EmuError> {
        self.call(core.index(), Request::Apply(command))
    }

    pub(crate) fn broadcast_routes(&mut self, routes: &Arc<RouteTable>) -> Result<(), EmuError> {
        for index in 0..self.workers.len() {
            self.send(
                index,
                Request::Apply(CoreCommand::SetRoutes(routes.clone())),
            )?;
        }
        for index in 0..self.workers.len() {
            self.wait_done(index)?;
        }
        Ok(())
    }

    /// Appends every descriptor's route, one request a worker, all at once.
    pub(crate) fn route_reads(&mut self, routes: &mut Vec<RouteId>) -> Result<(), EmuError> {
        for index in 0..self.workers.len() {
            self.send(index, Request::RouteReads)?;
        }
        for index in 0..self.workers.len() {
            let Response::RouteReads(held) = self.wait(index)? else {
                unreachable!("RouteReads is answered by RouteReads")
            };
            routes.extend_from_slice(&held);
        }
        Ok(())
    }

    /// Every worker whose core may have changed since it last encoded it,
    /// or that encoded it under another numbering `Arc`, encodes it again,
    /// all at once, into its kept buffer; the coordinator appends the
    /// encodings in order, so a checkpoint's writing pass sends nothing.
    pub(crate) fn encode_cores(
        &mut self,
        w: &mut ByteWriter,
        numbering: Option<&Arc<RouteNumbering>>,
    ) -> Result<(), EmuError> {
        if numbering.map(Arc::as_ptr) != self.staged_numbering.as_ref().map(Arc::as_ptr) {
            self.workers.iter_mut().for_each(|h| h.staged = false);
            self.staged_numbering = numbering.cloned();
        }
        for index in 0..self.workers.len() {
            if !self.workers[index].staged {
                let buf = std::mem::take(&mut self.workers[index].snapshot_buf);
                self.send(index, Request::Snapshot(buf, numbering.cloned()))?;
            }
        }
        for index in 0..self.workers.len() {
            if !self.workers[index].staged {
                let Response::Snapshot(state) = self.wait(index)? else {
                    unreachable!("Snapshot is answered by Snapshot")
                };
                self.workers[index].snapshot_buf = state;
                self.workers[index].staged = true;
            }
        }
        w.put_len(self.workers.len());
        for worker in &self.workers {
            w.put_bytes(&worker.snapshot_buf);
        }
        Ok(())
    }
}

impl Drop for ThreadedExecutor {
    fn drop(&mut self) {
        // During a panic unwind, surviving workers may be wedged at the
        // epoch barrier waiting for a dead core forever, and an orderly
        // shutdown would hang and mask the panic: hang up instead.
        if std::thread::panicking() {
            return;
        }
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::Emulator;
    use crate::hardware::HardwareProfile;
    use mn_assign::{greedy_k_clusters, Binding, BindingParams};
    use mn_distill::{distill, DistillationMode, DistilledTopology};
    use mn_packet::{FlowKey, Packet, PacketId, Protocol, TcpFlags, TransportHeader, VnId};
    use mn_routing::RoutingMatrix;
    use mn_topology::generators::{
        path_pairs_topology, ring_topology, PathPairsParams, RingParams,
    };
    use mn_util::{DataRate, SimDuration};

    fn tcp_packet(id: u64, src: VnId, dst: VnId, payload: u32, now: SimTime) -> Packet {
        Packet::new(
            PacketId(id),
            FlowKey {
                src,
                dst,
                src_port: 1000,
                dst_port: 2000,
                protocol: Protocol::Tcp,
            },
            TransportHeader::Tcp {
                seq: 0,
                ack: 0,
                payload_len: payload,
                flags: TcpFlags::ACK,
                window: 65535,
            },
            now,
        )
    }

    /// `emu` with its cores moved onto worker threads, checked: an inert
    /// chaos plan installs only there, so a pair cannot silently compare
    /// the inline executor with itself.
    fn on_threads(emu: Emulator) -> Emulator {
        let mut emu = emu.threaded();
        assert!(
            emu.set_chaos(CoreId(0), ChaosPlan::new()),
            "cores on worker threads"
        );
        emu
    }

    /// The standard fixture: a 4-router, 8-client ring (hop-by-hop) split
    /// over `cores`, unconstrained hardware, its cores inline.
    fn ring_emulator(cores: usize) -> (Emulator, Binding, DistilledTopology) {
        ring_emulator_with(cores, HardwareProfile::unconstrained())
    }

    /// [`ring_emulator`] on `profile`.
    fn ring_emulator_with(
        cores: usize,
        profile: HardwareProfile,
    ) -> (Emulator, Binding, DistilledTopology) {
        let topo = ring_topology(&RingParams {
            routers: 4,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, cores));
        let pod = greedy_k_clusters(&d, cores, 7);
        let emu = Emulator::new(&d, pod, matrix, &binding, profile, 11);
        (emu, binding, d)
    }

    /// One delivery, reduced to the fields bit-identity must pin.
    type DeliveryRecord = (u64, SimTime, SimTime, usize);

    /// A ring workload split over `cores`, drained to idle on both
    /// backends; returns every delivery field that must be bit-identical.
    fn run_both(cores: usize) -> (Vec<DeliveryRecord>, CoreStats, CoreStats) {
        let (mut seq, binding, _) = ring_emulator(cores);
        let seq_log = drive(&mut seq, &binding);
        let (seq2, binding2, _) = ring_emulator(cores);
        let mut par = on_threads(seq2);
        let par_log = drive(&mut par, &binding2);
        assert_eq!(seq_log, par_log, "{cores}-core delivery streams diverge");
        (seq_log, seq.total_stats(), par.total_stats())
    }

    /// One driver for both backends, so the bit-identity comparison cannot
    /// silently diverge between two copies of the schedule.
    fn drive(emu: &mut Emulator, binding: &Binding) -> Vec<DeliveryRecord> {
        let vns: Vec<VnId> = binding.vns().collect();
        let mut id = 0u64;
        for round in 0..4u64 {
            let now = SimTime::from_micros(round * 900);
            let _ = emu.advance(now);
            for (i, &src) in vns.iter().enumerate() {
                let dst = vns[(i + 3) % vns.len()];
                emu.submit(now, tcp_packet(id, src, dst, 900, now)).unwrap();
                id += 1;
            }
        }
        finish_run(emu)
    }

    #[test]
    fn an_emulator_moved_to_another_thread_wakes_that_thread() {
        // Built on this thread, driven on another: a reply wakes whichever
        // thread blocks on the reply channel, so the driving thread is
        // woken, not the builder, and the run stays byte for byte the
        // inline one.
        fn run(emu: &mut Emulator, binding: &Binding) -> (Vec<DeliveryRecord>, Vec<u8>) {
            let log = drive(emu, binding);
            (log, emu.snapshot().unwrap().to_bytes())
        }
        let (mut seq, binding, _) = ring_emulator(2);
        let expected = run(&mut seq, &binding);
        let (par, binding, _) = ring_emulator(2);
        let par = on_threads(par);
        let driven = std::thread::spawn(move || {
            let mut par = par;
            run(&mut par, &binding)
        })
        .join()
        .expect("the driving thread completes");
        assert!(!expected.0.is_empty());
        assert!(
            driven == expected,
            "a threaded run driven elsewhere diverges"
        );
    }

    #[test]
    fn single_core_parallel_matches_sequential() {
        let (log, seq_stats, par_stats) = run_both(1);
        assert!(!log.is_empty());
        assert_eq!(seq_stats, par_stats);
        assert_eq!(seq_stats.tunnels_out, 0);
    }

    #[test]
    fn multi_core_parallel_matches_sequential_bit_for_bit() {
        for cores in [2, 3, 4] {
            let (log, seq_stats, par_stats) = run_both(cores);
            assert!(!log.is_empty());
            assert_eq!(seq_stats, par_stats, "{cores}-core stats diverge");
        }
        // The 4-way ring split genuinely tunnels.
        let (_, stats, _) = run_both(4);
        assert!(stats.tunnels_out > 0);
        assert_eq!(stats.tunnels_out, stats.tunnels_in);
    }

    /// Interleaves traffic with leave/rejoin churn: every third VN departs
    /// mid-round (with its descriptors still in flight) and rejoins one
    /// round later. Admission outcomes and delivery streams are recorded
    /// for the bit-identity comparison.
    fn drive_churn(
        emu: &mut Emulator,
        d: &DistilledTopology,
        binding: &Binding,
    ) -> (Vec<DeliveryRecord>, Vec<SubmitOutcome>) {
        let vns: Vec<VnId> = binding.vns().collect();
        let mut log = Vec::new();
        let mut outcomes = Vec::new();
        let mut id = 0u64;
        for round in 0..6u64 {
            let now = SimTime::from_micros(round * 900);
            for delivery in emu.advance(now).unwrap() {
                log.push((
                    delivery.packet.id.0,
                    delivery.delivered_at,
                    delivery.entered_at,
                    delivery.hops,
                ));
            }
            let churner = vns[((round as usize / 2) * 3) % vns.len()];
            if round % 2 == 0 {
                assert!(emu.vn_leave(churner, now), "{churner} leaves once");
            } else {
                let loc = binding.location(churner).unwrap();
                assert!(emu.vn_join(d, churner, loc, now), "{churner} rejoins");
            }
            for (i, &src) in vns.iter().enumerate() {
                let dst = vns[(i + 3) % vns.len()];
                outcomes.push(emu.submit(now, tcp_packet(id, src, dst, 900, now)).unwrap());
                id += 1;
            }
        }
        log.extend(finish_run(emu));
        (log, outcomes)
    }

    #[test]
    fn churn_is_bit_identical_across_backends_and_core_counts() {
        for cores in [1, 2, 4] {
            let (mut seq, binding, d) = ring_emulator(cores);
            let seq_run = drive_churn(&mut seq, &d, &binding);
            let (seq2, binding2, _) = ring_emulator(cores);
            let mut par = on_threads(seq2);
            let par_run = drive_churn(&mut par, &d, &binding2);
            assert_eq!(seq_run, par_run, "{cores}-core churn run diverges");
            assert_eq!(
                seq.total_stats(),
                par.total_stats(),
                "{cores}-core churn stats diverge"
            );
            // The churn was real: some admissions were refused while a VN
            // was away, yet traffic kept flowing.
            let (log, outcomes) = seq_run;
            assert!(outcomes.contains(&SubmitOutcome::NoRoute));
            assert!(outcomes.iter().filter(|o| o.is_accepted()).count() > log.len() / 2);
            assert!(!log.is_empty());
        }
    }

    #[test]
    fn zero_latency_tunnels_iterate_epochs_like_the_sequential_loop() {
        // Unconstrained profile: tunnel latency zero, so a descriptor can
        // cross cores several times within one advance call (multiple
        // epochs). An 8-hop path split over 2 cores exercises it.
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 8,
            bandwidth: DataRate::from_mbps(10),
            end_to_end_latency: SimDuration::from_millis(10),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 2));
        let pod = greedy_k_clusters(&d, 2, 7);
        let profile = HardwareProfile::unconstrained();
        let mut emu = Emulator::new(&d, pod, matrix, &binding, profile, 1).threaded();
        let src = binding.vn_at(pairs[0].0).unwrap();
        let dst = binding.vn_at(pairs[0].1).unwrap();
        for i in 0..10 {
            let t = SimTime::from_micros(i * 500);
            emu.advance(t).unwrap();
            emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap();
        }
        let mut delivered = 0;
        let mut now = SimTime::ZERO;
        for _ in 0..100_000 {
            let Some(t) = emu.next_wakeup() else { break };
            now = now.max(t);
            delivered += emu.advance(now).unwrap().len();
        }
        assert_eq!(delivered, 10);
        let stats = emu.total_stats();
        assert!(stats.tunnels_out > 0, "split 8-hop path must tunnel");
        assert_eq!(stats.packets_delivered, 10);
    }

    #[test]
    fn an_epoch_tunnelling_1200_descriptors_matches_the_inline_rounds() {
        // 1200 disjoint 2-hop paths with the first hop on core 0 and the
        // second on core 1: one scheduler tick tunnels 1200 descriptors
        // core0 -> core1 in a single epoch, one batch in one mailbox. With a
        // nonzero tunnel latency nothing is due after that epoch, so the
        // advance ends after it; as in the inline rounds, every descriptor
        // is still filed with core 1, crosses once and is delivered.
        const PATHS: u64 = 1200;
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: PATHS as usize,
            hops: 2,
            bandwidth: DataRate::from_mbps(100),
            end_to_end_latency: SimDuration::from_millis(2),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        // Bind every VN's entry to core 0 (a one-core binding over a
        // two-core POD) so all 1200 second-hop tunnels land in one epoch.
        let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
        let mut owners = vec![CoreId(0); d.pipe_count()];
        for &(a, b) in &pairs {
            let route = matrix.lookup(a, b).expect("disjoint path routes");
            owners[route.pipes[1].index()] = CoreId(1);
        }
        let pod = PipeOwnershipDirectory::from_owners(owners, 2);
        let mut profile = HardwareProfile::unconstrained();
        profile.tunnel_latency = SimDuration::from_micros(20);
        let mut emu = Emulator::new(&d, pod, matrix, &binding, profile, 3).threaded();
        // Every packet enters at t=0 and exits its identical first pipe at
        // the same tick.
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let src = binding.vn_at(a).unwrap();
            let dst = binding.vn_at(b).unwrap();
            let outcome = emu
                .submit(
                    SimTime::ZERO,
                    tcp_packet(i as u64, src, dst, 1000, SimTime::ZERO),
                )
                .unwrap();
            assert!(outcome.is_accepted());
        }
        let mut delivered = 0u64;
        let mut now = SimTime::ZERO;
        for _ in 0..100_000 {
            let Some(t) = emu.next_wakeup() else { break };
            now = now.max(t);
            delivered += emu.advance(now).unwrap().len() as u64;
        }
        assert_eq!(delivered, PATHS);
        let stats = emu.total_stats();
        assert_eq!(stats.tunnels_out, PATHS, "every path crosses cores once");
        assert_eq!(stats.tunnels_in, PATHS);
    }

    #[test]
    fn batched_submits_are_bit_identical_to_per_packet_submits() {
        // submit_batch resolves a whole batch's routes before it admits any
        // packet and sends each core its share in one request, but must
        // decide every packet as one-by-one submits do: outcomes,
        // deliveries, counters and the drained state's bytes all match, on
        // both backends. The second batch holds the edges: VN ids past the
        // table, a departed source and a departed destination, a co-located
        // pair, and 4 000 packets, most of them for core 0.
        type Run = (Vec<SubmitOutcome>, Vec<DeliveryRecord>, CoreStats, Vec<u8>);
        fn run(cores: usize, threaded: bool, batched: bool) -> Run {
            let topo = ring_topology(&RingParams {
                routers: 4,
                clients_per_router: 2,
                ..RingParams::default()
            });
            let d = distill(&topo, DistillationMode::HopByHop);
            // A ninth VN, bound beside the first.
            let mut locations = d.vns().to_vec();
            locations.push(locations[0]);
            let binding = Binding::bind(&locations, &BindingParams::new(2, cores));
            let pod = greedy_k_clusters(&d, cores, 7);
            let matrix = RoutingMatrix::build(&d);
            let profile = HardwareProfile::unconstrained();
            let mut emu = Emulator::new(&d, pod, matrix, &binding, profile, 11);
            if threaded {
                emu = on_threads(emu);
            }
            let vns: Vec<VnId> = binding.vns().collect();
            let (colocated, departed) = (vns[8], vns[5]);
            let core0: Vec<VnId> = vns
                .iter()
                .copied()
                .filter(|&vn| vn != departed && emu.vn_entry_core(vn) == Some(CoreId(0)))
                .collect();
            let packet = |i: u64, src: VnId, dst: VnId| {
                let now = SimTime::from_micros(i * 3);
                (now, tcp_packet(i, src, dst, 700, now))
            };
            let plain =
                (0..400u64).map(|i| packet(i, vns[i as usize % 8], vns[(i as usize + 3) % 8]));
            let edges = (400..4_400u64).map(|i| {
                let src = core0[i as usize % core0.len()];
                let (src, dst) = match i % 12 {
                    0 => (VnId(999), vns[1]),
                    1 => (src, VnId(u32::MAX)),
                    2 => (departed, vns[1]),
                    3 => (src, departed),
                    4 => (vns[0], colocated),
                    5 => (colocated, vns[0]),
                    _ => (src, vns[(i as usize + 3) % 8]),
                };
                packet(i, src, dst)
            });
            type Batch = Vec<(SimTime, Packet)>;
            let submit = |emu: &mut Emulator, batch: Batch, outcomes: &mut Vec<_>| {
                if batched {
                    emu.submit_batch(batch, outcomes).unwrap();
                } else {
                    for (now, p) in batch {
                        outcomes.push(emu.submit(now, p).unwrap());
                    }
                }
            };
            let mut outcomes = Vec::new();
            submit(&mut emu, plain.collect(), &mut outcomes);
            let now = SimTime::from_micros(1_200);
            let mut log: Vec<DeliveryRecord> = emu
                .advance(now)
                .unwrap()
                .iter()
                .map(|d| (d.packet.id.0, d.delivered_at, d.entered_at, d.hops))
                .collect();
            assert!(emu.vn_leave(departed, now));
            submit(&mut emu, edges.collect(), &mut outcomes);
            log.extend(finish_run(&mut emu));
            let bytes = emu.snapshot().unwrap().to_bytes();
            (outcomes, log, emu.total_stats(), bytes)
        }
        for cores in [1usize, 3] {
            let reference = run(cores, false, false);
            assert!(reference.0.contains(&SubmitOutcome::NoRoute));
            assert!(
                reference.1.iter().any(|&(.., hops)| hops == 0),
                "a local delivery"
            );
            for (executor, batched, other) in [
                ("inline", true, run(cores, false, true)),
                ("threaded", false, run(cores, true, false)),
                ("threaded", true, run(cores, true, true)),
            ] {
                assert!(
                    other == reference,
                    "{cores}-core {executor} run (batched: {batched}) diverges"
                );
            }
        }
    }

    #[test]
    fn mid_run_reconfiguration_is_bit_identical_across_backends() {
        // The reconfiguration primitives themselves — in-place pipe
        // renegotiation, a CBR episode's installation and removal,
        // incremental reroute after a failure and after the restore — must
        // leave the threaded backend bit-identical to the sequential one:
        // same deliveries in the same order at the same times, same counters
        // (the episode's modelled bytes among them).
        type Run = (Vec<(u64, SimTime, usize)>, CoreStats);
        fn run(cores: usize, threaded: bool) -> Run {
            let (mut emu, binding, mut d) = ring_emulator(cores);
            if threaded {
                emu = on_threads(emu);
            }
            let vns: Vec<VnId> = binding.vns().collect();
            let victim = {
                let src = binding.location(vns[0]).unwrap();
                d.out_pipes(src)[0]
            };
            let original = d.pipe(victim).attrs;
            let mut log = Vec::new();
            let mut id = 0u64;
            for round in 0..12u64 {
                let now = SimTime::from_millis(round * 2);
                for d in emu.advance(now).unwrap() {
                    log.push((d.packet.id.0, d.delivered_at, d.hops));
                }
                match round {
                    2 => {
                        // Bandwidth renegotiation in place.
                        let mut slow = original;
                        slow.bandwidth = DataRate::from_mbps(2);
                        assert!(emu.update_pipe_attrs(victim, slow));
                    }
                    4 => {
                        let cbr = Some(DataRate::from_mbps(1));
                        assert!(emu.set_pipe_compensation(victim, cbr, now));
                    }
                    6 => {
                        let mut dead = original;
                        dead.bandwidth = DataRate::ZERO;
                        *d.pipe_attrs_mut(victim).unwrap() = dead;
                        let _ = emu.reroute(&d, &[victim]);
                    }
                    8 => {
                        *d.pipe_attrs_mut(victim).unwrap() = original;
                        let _ = emu.reroute(&d, &[victim]);
                        assert!(emu.set_pipe_compensation(victim, None, now));
                    }
                    _ => {}
                }
                for (i, &src) in vns.iter().enumerate() {
                    let dst = vns[(i + 3) % vns.len()];
                    let _ = emu.submit(now, tcp_packet(id, src, dst, 700, now));
                    id += 1;
                }
            }
            let mut now = SimTime::from_millis(24);
            let horizon = SimTime::from_millis(200);
            while let Some(t) = emu.next_wakeup() {
                // The episode was removed at round 8, so the emulator does
                // go idle; the horizon only bounds a regression.
                if t > horizon {
                    break;
                }
                now = now.max(t);
                for d in emu.advance(now).unwrap() {
                    log.push((d.packet.id.0, d.delivered_at, d.hops));
                }
            }
            (log, emu.total_stats())
        }
        for cores in [1usize, 2, 4] {
            let sequential = run(cores, false);
            let threaded = run(cores, true);
            assert!(!sequential.0.is_empty());
            let modelled = sequential.1.fluid_modelled_bytes;
            assert_eq!(modelled, 1_000, "1 Mb/s of CBR for 4 rounds of 2 ms");
            assert_eq!(
                sequential, threaded,
                "{cores}-core reconfigured runs diverge"
            );
        }
    }

    #[test]
    fn finish_returns_cores_with_their_logs() {
        let topo = ring_topology(&RingParams {
            routers: 4,
            clients_per_router: 1,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 2));
        let pod = greedy_k_clusters(&d, 2, 3);
        let profile = HardwareProfile::unconstrained();
        let mut emu = Emulator::new(&d, pod, matrix, &binding, profile, 5).threaded();
        let vns: Vec<VnId> = binding.vns().collect();
        emu.submit(
            SimTime::ZERO,
            tcp_packet(0, vns[0], vns[2], 500, SimTime::ZERO),
        )
        .unwrap();
        let mut now = SimTime::ZERO;
        let mut delivered = 0;
        for _ in 0..10_000 {
            let Some(t) = emu.next_wakeup() else { break };
            now = now.max(t);
            delivered += emu.advance(now).unwrap().len();
        }
        assert_eq!(delivered, 1);
        let cores = emu.finish();
        assert_eq!(cores.len(), 2);
        let recorded: u64 = cores.iter().map(|c| c.accuracy().delivered()).sum();
        assert_eq!(recorded, 1, "the delivery was recorded on some core");
    }

    /// A 2-core emulator over the standard ring fixture, for the failure
    /// and chaos tests.
    fn two_core_emulator() -> (Emulator, Binding) {
        let (emu, binding, _) = ring_emulator(2);
        (emu.threaded(), binding)
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error_on_the_wait_path() {
        let (mut emu, binding) = two_core_emulator();
        assert!(emu.set_chaos(CoreId(1), ChaosPlan::new().panic_at_epoch(1)));
        // The advance drives every worker into its epoch loop; worker 1's
        // injected panic must surface as a structured error — not a hang
        // (the old behavior when a peer held the barrier) and not a
        // coordinator panic.
        let err = emu.advance(SimTime::from_millis(1)).unwrap_err();
        match &err {
            EmuError::WorkerFailure {
                core,
                cause: FailureCause::Panicked(msg),
            } => {
                assert_eq!(core.index(), 1, "the failing core is attributed");
                assert!(msg.contains("chaos"), "panic payload preserved: {msg}");
            }
            other => panic!("expected a panicked worker failure, got {other:?}"),
        }
        // The emulator is poisoned: every path reports the same failure.
        assert_eq!(emu.exec.health(), Err(err.clone()));
        assert_eq!(emu.advance(SimTime::from_millis(2)).unwrap_err(), err);
        let vns: Vec<VnId> = binding.vns().collect();
        let now = SimTime::from_millis(2);
        let packet = tcp_packet(9, vns[0], vns[3], 500, now);
        assert_eq!(emu.submit(now, packet).unwrap_err(), err);
        let mut outcomes = Vec::new();
        assert!(emu.submit_batch(Vec::new(), &mut outcomes).is_err());
        assert!(emu.snapshot().is_err());
        // Dropping `emu` here must not hang: the abort flag released the
        // surviving worker from its epoch wait.
    }

    #[test]
    fn worker_panic_on_a_four_core_ring_releases_every_waiting_peer() {
        // Core 2 dies at the first epoch while the other three wait for it
        // at the barrier; the abort must release all three, not just one.
        let (emu, binding, _) = ring_emulator(4);
        let mut emu = emu.threaded();
        assert!(emu.set_chaos(CoreId(2), ChaosPlan::new().panic_at_epoch(1)));
        let vns: Vec<VnId> = binding.vns().collect();
        for (i, &src) in vns.iter().enumerate() {
            let dst = vns[(i + 3) % vns.len()];
            let packet = tcp_packet(i as u64, src, dst, 900, SimTime::ZERO);
            emu.submit(SimTime::ZERO, packet).unwrap();
        }
        let err = emu.advance(SimTime::from_millis(1)).unwrap_err();
        match &err {
            EmuError::WorkerFailure {
                core,
                cause: FailureCause::Panicked(msg),
            } => {
                assert_eq!(core.index(), 2, "the failing core is attributed");
                assert!(msg.contains("chaos"), "panic payload preserved: {msg}");
            }
            other => panic!("expected a panicked worker failure, got {other:?}"),
        }
        let later = SimTime::from_millis(2);
        assert_eq!(emu.advance(later).unwrap_err(), err);
        let packet = tcp_packet(99, vns[0], vns[3], 500, later);
        assert_eq!(emu.submit(later, packet).unwrap_err(), err);
        assert_eq!(emu.snapshot().unwrap_err(), err);
        assert!(!emu.set_chaos(CoreId(0), ChaosPlan::new()));
        // The three survivors left the barrier and answer Finish.
        let cores = emu.finish();
        assert_eq!(cores.len(), 3, "every surviving core comes back");
    }

    #[test]
    fn a_worker_dying_on_a_command_surfaces_as_a_typed_error() {
        let (emu, binding, mut d) = ring_emulator(2);
        let mut emu = emu.threaded();
        assert!(emu.set_chaos(CoreId(1), ChaosPlan::new().panic_on_next_command()));
        // Flap a pipe and reroute until a command reaches worker 1: the
        // `UpdatePipe` goes to the pipe's owner, the `SetRoutes` of the
        // publish to every core. The death must be recorded as a typed
        // failure, not abort the process.
        let victim = d.out_pipes(binding.location(VnId(0)).unwrap())[0];
        let original = d.pipe(victim).attrs;
        for flap in 0..600 {
            let mut attrs = original;
            if flap % 2 == 0 {
                attrs.bandwidth = DataRate::ZERO;
            }
            *d.pipe_attrs_mut(victim).unwrap() = attrs;
            let _ = emu.update_pipe_attrs(victim, attrs);
            let _ = emu.reroute(&d, &[victim]);
            if emu.exec.health().is_err() {
                break;
            }
        }
        match emu.exec.health().err() {
            Some(EmuError::WorkerFailure {
                core,
                cause: FailureCause::Panicked(msg),
            }) => {
                assert_eq!(core.index(), 1);
                assert!(msg.contains("chaos"), "panic payload preserved: {msg}");
            }
            other => panic!("expected a panicked worker failure, got {other:?}"),
        }
        // The wait path reports the same poisoned state.
        assert!(emu.advance(SimTime::from_millis(1)).is_err());
    }

    #[test]
    fn a_worker_dying_as_a_checkpoint_is_measured_surfaces_as_a_typed_error() {
        // A checkpoint is measured by having each worker encode its core:
        // core 1 dies on that request while core 0 answers, and the death
        // is reported as on any other request, before a byte is written.
        let (mut emu, _) = two_core_emulator();
        assert!(emu.set_chaos(CoreId(1), ChaosPlan::new().panic_on_next_command()));
        let err = emu.snapshot().unwrap_err();
        match &err {
            EmuError::WorkerFailure {
                core,
                cause: FailureCause::Panicked(msg),
            } => {
                assert_eq!(core.index(), 1, "the failing core is attributed");
                assert!(msg.contains("chaos"), "panic payload preserved: {msg}");
            }
            other => panic!("expected a panicked worker failure, got {other:?}"),
        }
        assert_eq!(emu.snapshot().map(|_| ()), Err(err));
        assert_eq!(emu.finish().len(), 1, "the surviving core comes back");
    }

    #[test]
    fn a_worker_dying_in_a_batched_admission_is_reported_after_its_peers_reply() {
        // Both cores get a share of one batch; core 1 dies on its Admit
        // while core 0 answers, so core 0's reply may arrive first and be
        // filed before the death notice ends the call.
        let (mut emu, binding) = two_core_emulator();
        assert!(emu.set_chaos(CoreId(1), ChaosPlan::new().panic_on_next_command()));
        let vns: Vec<VnId> = binding.vns().collect();
        let entries: Vec<_> = vns.iter().map(|&vn| emu.vn_entry_core(vn)).collect();
        assert!(entries.contains(&Some(CoreId(0))) && entries.contains(&Some(CoreId(1))));
        let batch: Vec<_> = (vns.iter().enumerate())
            .map(|(i, &src)| {
                let dst = vns[(i + 3) % vns.len()];
                (
                    SimTime::ZERO,
                    tcp_packet(i as u64, src, dst, 900, SimTime::ZERO),
                )
            })
            .collect();
        let mut outcomes = Vec::new();
        let err = emu.submit_batch(batch, &mut outcomes).unwrap_err();
        match &err {
            EmuError::WorkerFailure {
                core,
                cause: FailureCause::Panicked(msg),
            } => {
                assert_eq!(core.index(), 1, "the failing core is attributed");
                assert!(msg.contains("chaos"), "panic payload preserved: {msg}");
            }
            other => panic!("expected a panicked worker failure, got {other:?}"),
        }
        assert_eq!(emu.exec.health(), Err(err));
        // The survivor's reply, read or not, does not stand in for its core.
        assert_eq!(emu.finish().len(), 1, "the surviving core comes back");
    }

    #[test]
    fn stall_watchdog_converts_a_wedged_worker_into_an_error() {
        let (mut emu, _binding) = two_core_emulator();
        emu.set_stall_timeout(Some(Duration::from_millis(40)));
        assert!(emu.set_chaos(
            CoreId(1),
            ChaosPlan::new().stall_at_epoch(1, Duration::from_millis(400)),
        ));
        // Worker 1 sleeps through the epoch barrier; without the watchdog
        // the coordinator would spin forever on a thread that is alive but
        // making no progress. The error may name either core — the barrier
        // couples them, so the waited-on worker freezes too.
        let err = emu.advance(SimTime::from_millis(1)).unwrap_err();
        assert!(
            matches!(
                err,
                EmuError::WorkerFailure {
                    cause: FailureCause::Stalled { .. },
                    ..
                }
            ),
            "expected a stall, got {err:?}"
        );
        assert!(emu.exec.health().is_err());
        // Drop completes once the sleeper wakes and drains its Finish.
    }

    /// Drives a deterministic partial workload, leaving descriptors (and,
    /// on multi-core splits with a tunnel latency, tunnels) in flight: it
    /// stops 10 µs after the last round is admitted, while the packets
    /// whose entry core does not own their access pipe cross to its owner.
    fn drive_partial(emu: &mut Emulator, binding: &Binding) {
        let vns: Vec<VnId> = binding.vns().collect();
        let mut id = 0u64;
        for round in 0..3u64 {
            let now = SimTime::from_micros(round * 700);
            emu.advance(now).unwrap();
            for (i, &src) in vns.iter().enumerate() {
                let dst = vns[(i + 3) % vns.len()];
                emu.submit(now, tcp_packet(id, src, dst, 900, now)).unwrap();
                id += 1;
            }
        }
        emu.advance(SimTime::from_micros(1_410)).unwrap();
    }

    /// Drains an emulation to idle, returning the delivery record stream.
    fn finish_run(emu: &mut Emulator) -> Vec<DeliveryRecord> {
        let mut log = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..100_000 {
            let Some(t) = emu.next_wakeup() else { break };
            now = now.max(t);
            for d in emu.advance(now).unwrap() {
                log.push((d.packet.id.0, d.delivered_at, d.entered_at, d.hops));
            }
        }
        log
    }

    #[test]
    fn parallel_snapshot_is_byte_identical_to_sequential_and_resumes_exactly() {
        // A tunnel latency leaves tunnels in flight when an advance returns.
        let profile = HardwareProfile {
            tunnel_latency: SimDuration::from_micros(20),
            ..HardwareProfile::unconstrained()
        };
        for cores in [1usize, 2, 4] {
            let build = || {
                let (emu, binding, _) = ring_emulator_with(cores, profile);
                (emu, binding)
            };
            // Identical partial runs on both backends.
            let (mut seq, binding) = build();
            drive_partial(&mut seq, &binding);
            if cores == 4 {
                // Tunnels in flight to two cores, due at one instant: the
                // executors order such tunnels differently across cores, and
                // the bytes stay equal because each core encodes its own.
                let mut due: Vec<(SimTime, usize)> = (seq.cores().iter().enumerate())
                    .flat_map(|(c, core)| core.inbox.entries_in_order().map(move |(t, _)| (t, c)))
                    .collect();
                due.sort_unstable();
                due.dedup();
                assert!(
                    due.windows(2).any(|pair| pair[0].0 == pair[1].0),
                    "no two cores have a tunnel due at one instant: {due:?}"
                );
            }
            let seq_snap = seq.snapshot().unwrap();
            let (seq2, binding2) = build();
            let mut par = on_threads(seq2);
            // Encoded before the run, each core's encoding goes stale with
            // the run's first request: the checkpoint encodes it again.
            par.snapshot().unwrap();
            drive_partial(&mut par, &binding2);
            let par_snap = par.snapshot().unwrap();
            // The canonical encoding makes the two checkpoints equal down
            // to the byte, so either can restore into either backend.
            assert_eq!(
                seq_snap.to_bytes(),
                par_snap.to_bytes(),
                "{cores}-core snapshots diverge across backends"
            );
            // Resuming the threaded restore finishes bit-identically to the
            // uninterrupted sequential run.
            let mut restored = on_threads(Emulator::restore(&par_snap).unwrap());
            let expected = finish_run(&mut seq);
            let resumed = finish_run(&mut restored);
            assert!(!expected.is_empty(), "the tail of the run delivers");
            assert_eq!(expected, resumed, "{cores}-core resumed tail diverges");
            assert_eq!(seq.total_stats(), restored.total_stats());
        }
    }
}
