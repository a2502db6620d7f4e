//! Replicated web services (§5.2, Figure 11).
//!
//! The paper's experiment plays back 2.5 minutes of a trace against one, two
//! or three Apache replicas placed in different stub domains of a 320-node
//! transit–stub topology, and plots the CDF of client-perceived latency. The
//! IBM trace it uses is not public, so [`WorkloadTrace::synthetic`] generates
//! an open-loop trace with the same aggregate request rate (60–100
//! requests/second) and a heavy-tailed response-size distribution — the
//! substitution is documented in DESIGN.md. Server CPU is not modelled
//! because the paper reports it was only 10 % utilised: the bottleneck the
//! experiment studies is contention on the transit links.

use std::any::Any;
use std::collections::HashMap;

use rand::Rng;

use mn_edge::{AppCtx, Application, Message};
use mn_packet::VnId;
use mn_util::rngs::derived_rng;
use mn_util::{SimDuration, SimTime};

/// One request in a client's playback schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Offset from the start of the playback at which the request is issued.
    pub at: SimDuration,
    /// Response size in bytes.
    pub response_bytes: u32,
}

/// A request trace shared by the clients of one experiment.
#[derive(Debug, Clone, Default)]
pub struct WorkloadTrace {
    entries: Vec<TraceEntry>,
}

impl WorkloadTrace {
    /// Builds a trace from explicit entries.
    pub fn new(mut entries: Vec<TraceEntry>) -> Self {
        entries.sort_by_key(|e| e.at);
        WorkloadTrace { entries }
    }

    /// Generates a synthetic open-loop trace: Poisson arrivals at
    /// `requests_per_sec` for `duration`, response sizes drawn from a
    /// Pareto-like heavy tail with the given mean.
    pub fn synthetic(
        duration: SimDuration,
        requests_per_sec: f64,
        mean_response_bytes: f64,
        seed: u64,
    ) -> Self {
        let mut rng = derived_rng(seed, 0x3EB);
        let mut entries = Vec::new();
        let mut t = 0.0f64;
        let end = duration.as_secs_f64();
        while t < end {
            // Exponential inter-arrival.
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += -u.ln() / requests_per_sec;
            if t >= end {
                break;
            }
            // Bounded Pareto (alpha = 1.3) scaled to the requested mean.
            let alpha = 1.3f64;
            let xm = mean_response_bytes * (alpha - 1.0) / alpha;
            let p: f64 = rng.gen::<f64>().max(1e-12);
            let size = (xm / p.powf(1.0 / alpha)).min(mean_response_bytes * 50.0);
            entries.push(TraceEntry {
                at: SimDuration::from_secs_f64(t),
                response_bytes: size.max(200.0) as u32,
            });
        }
        WorkloadTrace { entries }
    }

    /// The trace entries in playback order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Splits the trace round-robin over `n` clients so that the aggregate
    /// playback reproduces the original arrival process.
    pub fn split(&self, n: usize) -> Vec<WorkloadTrace> {
        let mut out = vec![WorkloadTrace::default(); n.max(1)];
        for (i, e) in self.entries.iter().enumerate() {
            out[i % n.max(1)].entries.push(*e);
        }
        out
    }
}

/// Web protocol messages.
#[derive(Debug, Clone, Copy)]
enum WebMessage {
    Request { id: u64, response_bytes: u32 },
    Response { id: u64 },
}

const REQUEST_WIRE_BYTES: u32 = 360;
const RESPONSE_HEADER_BYTES: u32 = 250;

/// A web server replica: answers every request with the requested number of
/// bytes.
pub struct WebServer {
    requests_served: u64,
    bytes_served: u64,
}

impl WebServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        WebServer {
            requests_served: 0,
            bytes_served: 0,
        }
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Response bytes served so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }
}

impl Default for WebServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Application for WebServer {
    fn on_start(&mut self, _ctx: &mut AppCtx) {}

    fn on_message(&mut self, ctx: &mut AppCtx, from: VnId, message: Message) {
        if let Some(WebMessage::Request { id, response_bytes }) =
            message.body_as::<WebMessage>().copied()
        {
            self.requests_served += 1;
            self.bytes_served += response_bytes as u64;
            ctx.send(
                from,
                Message::new(
                    response_bytes + RESPONSE_HEADER_BYTES,
                    WebMessage::Response { id },
                ),
            );
        }
    }

    fn on_timer(&mut self, _ctx: &mut AppCtx, _token: u64) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A trace-playback web client bound to one server replica.
pub struct WebClient {
    server: VnId,
    trace: WorkloadTrace,
    next_entry: usize,
    issued: HashMap<u64, SimTime>,
    latencies: Vec<f64>,
    completed: u64,
}

impl WebClient {
    /// Creates a client that will play `trace` against `server`.
    pub fn new(server: VnId, trace: WorkloadTrace) -> Self {
        WebClient {
            server,
            trace,
            next_entry: 0,
            issued: HashMap::new(),
            latencies: Vec::new(),
            completed: 0,
        }
    }

    /// Completed request latencies in seconds.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Requests completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests issued but not yet answered.
    pub fn outstanding(&self) -> usize {
        self.issued.len()
    }

    fn schedule_next(&mut self, ctx: &mut AppCtx, playback_start: SimTime) {
        if let Some(entry) = self.trace.entries().get(self.next_entry) {
            let fire_at = playback_start + entry.at;
            let delay = fire_at.duration_since(ctx.now());
            ctx.set_timer(delay, self.next_entry as u64);
        }
    }
}

impl Application for WebClient {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        self.schedule_next(ctx, ctx.now());
    }

    fn on_message(&mut self, ctx: &mut AppCtx, _from: VnId, message: Message) {
        if let Some(WebMessage::Response { id }) = message.body_as::<WebMessage>().copied() {
            if let Some(sent_at) = self.issued.remove(&id) {
                let latency = (ctx.now() - sent_at).as_secs_f64();
                self.latencies.push(latency);
                self.completed += 1;
                ctx.record("web_latency_s", latency);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, token: u64) {
        let idx = token as usize;
        if idx != self.next_entry {
            return;
        }
        let Some(entry) = self.trace.entries().get(idx).copied() else {
            return;
        };
        let id = idx as u64;
        self.issued.insert(id, ctx.now());
        ctx.send(
            self.server,
            Message::new(
                REQUEST_WIRE_BYTES,
                WebMessage::Request {
                    id,
                    response_bytes: entry.response_bytes,
                },
            ),
        );
        self.next_entry += 1;
        // The playback clock is anchored at the original start: the next
        // timer is set relative to this entry's offset.
        let playback_start = ctx.now() - entry.at;
        self.schedule_next(ctx, playback_start);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_matches_requested_rate() {
        let trace = WorkloadTrace::synthetic(SimDuration::from_secs(150), 80.0, 12_000.0, 7);
        let per_sec = trace.len() as f64 / 150.0;
        assert!(
            (60.0..100.0).contains(&per_sec),
            "generated {per_sec} requests/second"
        );
        // Sizes are positive, heavy-tailed but bounded.
        let mean: f64 = trace
            .entries()
            .iter()
            .map(|e| e.response_bytes as f64)
            .sum::<f64>()
            / trace.len() as f64;
        assert!(mean > 3_000.0 && mean < 60_000.0, "mean response {mean}");
        // Entries are time-ordered.
        for w in trace.entries().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn trace_split_preserves_all_requests() {
        let trace = WorkloadTrace::synthetic(SimDuration::from_secs(30), 50.0, 8_000.0, 3);
        let parts = trace.split(4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(WorkloadTrace::len).sum();
        assert_eq!(total, trace.len());
    }

    #[test]
    fn server_answers_with_requested_size() {
        let mut server = WebServer::new();
        let mut ctx = AppCtx::new(SimTime::ZERO);
        server.on_message(
            &mut ctx,
            VnId(5),
            Message::new(
                REQUEST_WIRE_BYTES,
                WebMessage::Request {
                    id: 9,
                    response_bytes: 20_000,
                },
            ),
        );
        assert_eq!(server.requests_served(), 1);
        assert_eq!(server.bytes_served(), 20_000);
        let actions = ctx.into_actions();
        match &actions[0] {
            mn_edge::AppAction::Send { to, message } => {
                assert_eq!(*to, VnId(5));
                assert_eq!(message.wire_size, 20_000 + RESPONSE_HEADER_BYTES);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn client_plays_back_and_measures_latency() {
        let trace = WorkloadTrace::new(vec![
            TraceEntry {
                at: SimDuration::from_millis(10),
                response_bytes: 1000,
            },
            TraceEntry {
                at: SimDuration::from_millis(30),
                response_bytes: 2000,
            },
        ]);
        let mut client = WebClient::new(VnId(9), trace);
        let mut ctx = AppCtx::new(SimTime::ZERO);
        client.on_start(&mut ctx);
        assert_eq!(ctx.action_count(), 1, "first timer armed");

        // Fire the first timer at its scheduled time.
        let mut ctx = AppCtx::new(SimTime::from_millis(10));
        client.on_timer(&mut ctx, 0);
        assert_eq!(client.outstanding(), 1);
        let actions = ctx.into_actions();
        assert!(actions
            .iter()
            .any(|a| matches!(a, mn_edge::AppAction::Send { to: VnId(9), .. })));

        // The response arrives 42 ms later.
        let mut ctx = AppCtx::new(SimTime::from_millis(52));
        client.on_message(
            &mut ctx,
            VnId(9),
            Message::new(64, WebMessage::Response { id: 0 }),
        );
        assert_eq!(client.completed(), 1);
        assert!((client.latencies()[0] - 0.042).abs() < 1e-9);
    }

    #[test]
    fn duplicate_or_unknown_responses_are_ignored() {
        let mut client = WebClient::new(VnId(9), WorkloadTrace::default());
        let mut ctx = AppCtx::new(SimTime::ZERO);
        client.on_message(
            &mut ctx,
            VnId(9),
            Message::new(64, WebMessage::Response { id: 77 }),
        );
        assert_eq!(client.completed(), 0);
        assert!(client.latencies().is_empty());
    }
}
