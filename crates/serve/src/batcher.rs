//! The work-conserving batcher: coalesces in-flight requests from many
//! connections into engine batches.
//!
//! Requests enqueue into a shared queue; a dedicated worker thread
//! drains up to `max_batch` of them into
//! [`ModelRegistry::execute_batch`] as soon as the queue is non-empty.
//! There is no timer: a request that finds the engine idle dispatches
//! at once, and requests that arrive while a batch runs form the next
//! one. Under load the queue refills faster than the engine drains it,
//! so batches grow on their own toward `max_batch` (the planner groups
//! same-shape ops into contiguous packed-shard scans, so bigger batches
//! are cheaper per op); at low load no request waits for company. A
//! connection submits every frame one socket read delivered as one
//! burst (one lock, one wake-up), so a worker woken by a burst's first
//! request never runs it alone; and before taking a queue shorter than
//! `max_batch` the worker yields its core once, so connection threads
//! that are already runnable can land their bursts first (with none
//! runnable the yield returns at once). Shutdown flushes: every queued
//! request is dispatched (in `max_batch` chunks) before the worker
//! exits, so no accepted request is ever dropped.
//!
//! Two robustness policies live here (docs/ROBUSTNESS.md):
//!
//! * **Admission control** — the queue is bounded at
//!   [`BatcherConfig::max_queue`]; [`Batcher::submit`] answers the part
//!   of a burst beyond it with a typed `Overloaded` error in
//!   microseconds instead of building an unbounded backlog whose every
//!   entry times out.
//! * **Deadline enforcement** — a request that carried a deadline and
//!   is still queued when it expires is answered
//!   `DeadlineExceeded` at dequeue, without executing: the client has
//!   already given up, so running the op would only steal capacity from
//!   requests that still have a waiter.
//!
//! The queue uses `std::sync` primitives (the vendored `parking_lot`
//! shim has no condvar) — one mutex + condvar pair, with the worker
//! sleeping untimed while the queue is empty. Lock poisoning is
//! recovered (`into_inner`): the queue is plain data that stays
//! structurally valid, and the batcher must keep serving even if a
//! thread panicked while holding the lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use factorhd_engine::{failpoint, AnyOp, EngineError, ModelId, ModelRegistry};

use crate::error::ErrorCode;
use crate::metrics::ServeMetrics;
use crate::protocol::Response;

/// Knobs for the work-conserving dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Most requests one engine batch takes from the queue. `1`
    /// degrades to pass-through (every request is its own engine
    /// batch).
    pub max_batch: usize,
    /// Admission bound: requests arriving while this many are already
    /// queued are refused and answered `Overloaded`. Sized in requests,
    /// not bytes — the queue holds decoded ops, so the byte bound is
    /// `max_queue × max_frame_bytes`.
    pub max_queue: usize,
}

impl Default for BatcherConfig {
    /// `max_batch` 64 (the warm sweet spot in BENCH_engine.json),
    /// `max_queue` 1024 (16 full batches of headroom before shedding).
    fn default() -> Self {
        BatcherConfig {
            max_batch: 64,
            max_queue: 1024,
        }
    }
}

/// One queued request: the op, its routing metadata, and the channel
/// its response travels back on.
pub(crate) struct Pending {
    /// Registry name of the target model.
    pub model: String,
    /// The op to execute.
    pub op: AnyOp,
    /// Client-chosen request id, echoed in the response.
    pub request_id: u64,
    /// When the request's frame finished decoding (anchors both the
    /// dispatch deadline and the end-to-end latency histogram).
    pub received_at: Instant,
    /// Absolute expiry (the wire budget anchored at `received_at`);
    /// `None` means the request waits as long as it takes.
    pub deadline: Option<Instant>,
    /// Where the response goes (a connection's writer queue).
    pub reply: mpsc::Sender<Outgoing>,
}

impl Pending {
    /// Answers this request with a typed error, without executing it.
    fn refuse(self, code: ErrorCode, message: &str) {
        let _ = self.reply.send(Outgoing {
            request_id: self.request_id,
            received_at: self.received_at,
            response: Response::Error {
                code,
                message: message.into(),
            },
        });
    }
}

/// One response ready to be written back to a connection.
pub(crate) struct Outgoing {
    /// Echoed request id.
    pub request_id: u64,
    /// Latency anchor (see [`Pending::received_at`]).
    pub received_at: Instant,
    /// The typed response.
    pub response: Response,
}

struct Queue {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    config: BatcherConfig,
    metrics: Arc<ServeMetrics>,
}

impl Shared {
    /// Locks the queue, recovering from poisoning (see module docs).
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The batcher: a shared queue plus the worker thread draining it into
/// [`ModelRegistry::execute_batch`].
pub(crate) struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
    /// Batches dispatched so far; read by the unit tests (the
    /// user-facing count lives in [`ServeMetrics`]).
    #[cfg_attr(not(test), allow(dead_code))]
    dispatched: Arc<AtomicU64>,
    /// Non-empty bursts submitted so far (test observability).
    #[cfg(test)]
    submissions: AtomicU64,
}

impl Batcher {
    /// Spawns the worker thread; fails only if the OS refuses a thread
    /// (resource exhaustion), which the caller surfaces as an I/O error
    /// instead of a panic.
    pub(crate) fn new(
        registry: Arc<ModelRegistry>,
        config: BatcherConfig,
        metrics: Arc<ServeMetrics>,
    ) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            config: BatcherConfig {
                max_batch: config.max_batch.max(1),
                // An idle server always admits at least one full batch.
                max_queue: config.max_queue.max(config.max_batch.max(1)),
            },
            metrics,
        });
        let dispatched = Arc::new(AtomicU64::new(0));
        let worker = {
            let shared = Arc::clone(&shared);
            let dispatched = Arc::clone(&dispatched);
            thread::Builder::new()
                .name("factorhd-batcher".into())
                .spawn(move || worker_loop(&shared, &registry, &dispatched))?
        };
        Ok(Batcher {
            shared,
            worker: Mutex::new(Some(worker)),
            dispatched,
            #[cfg(test)]
            submissions: AtomicU64::new(0),
        })
    }

    /// Enqueues `burst` in order under one lock with one wake-up,
    /// leaving it empty. Requests beyond the admission bound are
    /// answered `Overloaded` (and counted as shed), and all of them are
    /// answered `Shutdown` once the batcher has shut down; neither kind
    /// executes.
    pub(crate) fn submit(&self, burst: &mut Vec<Pending>) {
        if burst.is_empty() {
            return;
        }
        #[cfg(test)]
        self.submissions.fetch_add(1, Ordering::Relaxed);
        let max_queue = self.shared.config.max_queue;
        let (code, message) = {
            let mut queue = self.shared.lock_queue();
            if queue.shutdown {
                (ErrorCode::Shutdown, "server is shutting down")
            } else {
                let room = max_queue.saturating_sub(queue.pending.len());
                queue.pending.extend(burst.drain(..room.min(burst.len())));
                self.shared.wake.notify_one();
                (
                    ErrorCode::Overloaded,
                    "server overloaded: admission queue full; op not executed",
                )
            }
        };
        for refused in burst.drain(..) {
            if code == ErrorCode::Overloaded {
                self.shared.metrics.request_shed();
            }
            refused.refuse(code, message);
        }
    }

    /// Engine batches dispatched so far (test observability).
    #[cfg(test)]
    pub(crate) fn batches_dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Non-empty bursts submitted so far (test observability).
    #[cfg(test)]
    pub(crate) fn submissions(&self) -> u64 {
        self.submissions.load(Ordering::Relaxed)
    }

    /// Flushes every queued request and stops the worker. Idempotent.
    pub(crate) fn shutdown(&self) {
        {
            let mut queue = self.shared.lock_queue();
            queue.shutdown = true;
            self.shared.wake.notify_one();
        }
        let worker = self
            .worker
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, registry: &ModelRegistry, dispatched: &AtomicU64) {
    loop {
        let batch: Vec<Pending> = {
            let queue = shared.lock_queue();
            let mut queue = shared
                .wake
                .wait_while(queue, |queue| queue.pending.is_empty() && !queue.shutdown)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if queue.pending.is_empty() {
                // Shut down with nothing left to flush.
                return;
            }
            if queue.pending.len() < shared.config.max_batch {
                // A short queue may be bursts still landing: give the
                // connection threads already runnable one turn to
                // submit. With none runnable the yield returns at once.
                drop(queue);
                thread::yield_now();
                queue = shared.lock_queue();
            }
            let take = queue.pending.len().min(shared.config.max_batch);
            queue.pending.drain(..take).collect()
        };
        // Count before dispatching so an observer that has already
        // received a reply sees the batch that produced it.
        dispatched.fetch_add(1, Ordering::Relaxed);
        // Chaos site: holds the worker with this batch taken, outside
        // the lock, so tests can fill the queue deterministically
        // (`submit` keeps admitting, then refusing typed-ly).
        failpoint::sleep("serve/batcher_stall");
        dispatch(registry, &shared.metrics, batch);
    }
}

/// Runs one coalesced batch through the engine and scatters the typed
/// results back to each request's connection by request id. Requests
/// whose deadline has already passed are answered `DeadlineExceeded`
/// here, at dequeue, without executing.
fn dispatch(registry: &ModelRegistry, metrics: &ServeMetrics, batch: Vec<Pending>) {
    let now = Instant::now();
    let mut ops = Vec::with_capacity(batch.len());
    let mut routes = Vec::with_capacity(batch.len());
    for pending in batch {
        if pending.deadline.is_some_and(|deadline| now >= deadline) {
            metrics.deadline_expired();
            pending.refuse(
                ErrorCode::DeadlineExceeded,
                "deadline expired while queued; op not executed",
            );
            continue;
        }
        ops.push((ModelId::new(&pending.model), pending.op));
        routes.push((pending.request_id, pending.received_at, pending.reply));
    }
    if ops.is_empty() {
        return;
    }
    metrics.batch_dispatched(ops.len() as u64);
    let results = registry.execute_batch(&ops);
    for ((request_id, received_at, reply), result) in routes.into_iter().zip(results) {
        let response = match result {
            Ok(output) => Response::Output(output),
            Err(err) => {
                let code = engine_error_code(&err);
                if code == ErrorCode::OpPanicked {
                    metrics.op_panicked();
                }
                Response::Error {
                    code,
                    message: err.to_string(),
                }
            }
        };
        // A send error means the connection is gone; the response is
        // dropped, matching what TCP would do to it anyway.
        let _ = reply.send(Outgoing {
            request_id,
            received_at,
            response,
        });
    }
}

/// Maps an engine failure onto its wire error code.
fn engine_error_code(err: &EngineError) -> ErrorCode {
    match err {
        EngineError::UnknownModel { .. } => ErrorCode::UnknownModel,
        EngineError::OpPanicked { .. } => ErrorCode::OpPanicked,
        _ => ErrorCode::Engine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorhd_core::TaxonomyBuilder;
    use factorhd_engine::failpoint::FailMode;
    use factorhd_engine::{EncodeScene, EngineConfig, ModelState};
    use std::sync::MutexGuard;
    use std::time::Duration;

    /// Serializes the tests that arm the (process-global)
    /// `serve/batcher_stall` failpoint.
    static STALL_FAILPOINT: Mutex<()> = Mutex::new(());

    /// How long a held worker stalls: far longer than submitting a
    /// handful of requests takes, so everything submitted behind the
    /// primer is queued before the worker drains again.
    const HOLD: Duration = Duration::from_millis(300);

    /// Request id of the request that holds the worker.
    const PRIMER: u64 = u64::MAX;

    fn test_registry() -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        let taxonomy = TaxonomyBuilder::new(256)
            .seed(11)
            .class("animal", &[4])
            .class("color", &[4])
            .build()
            .expect("valid taxonomy");
        registry.install(
            "m",
            ModelState::new(taxonomy, EngineConfig::default()).expect("valid model"),
        );
        registry
    }

    fn encode_op(registry: &ModelRegistry) -> AnyOp {
        let mut rng = hdc::rng_from_seed(3);
        let object = registry
            .get("m")
            .expect("installed")
            .state()
            .taxonomy()
            .sample_object(&mut rng);
        AnyOp::Encode(EncodeScene {
            scene: factorhd_core::Scene::single(object),
        })
    }

    fn pending(op: &AnyOp, id: u64, reply: &mpsc::Sender<Outgoing>) -> Pending {
        Pending {
            model: "m".into(),
            op: op.clone(),
            request_id: id,
            received_at: Instant::now(),
            deadline: None,
            reply: reply.clone(),
        }
    }

    fn submit_one(batcher: &Batcher, pending: Pending) {
        batcher.submit(&mut vec![pending]);
    }

    /// The typed error code of a refused or failed reply.
    fn error_code(reply: &Outgoing) -> ErrorCode {
        match &reply.response {
            Response::Error { code, .. } => *code,
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    fn batcher(registry: &Arc<ModelRegistry>, max_batch: usize, max_queue: usize) -> Batcher {
        Batcher::new(
            Arc::clone(registry),
            BatcherConfig {
                max_batch,
                max_queue,
            },
            Arc::new(ServeMetrics::new()),
        )
        .expect("spawn batcher worker")
    }

    /// Drains `n` replies from one receiver.
    fn expect_outputs(rx: &mpsc::Receiver<Outgoing>, n: usize) -> Vec<Outgoing> {
        (0..n)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("response within timeout")
            })
            .collect()
    }

    /// A batcher whose worker is held in `serve/batcher_stall` with a
    /// primer request taken, so whatever is submitted next queues up
    /// behind it. The failpoint stays armed until [`Held::release`].
    struct Held {
        batcher: Batcher,
        op: AnyOp,
        tx: mpsc::Sender<Outgoing>,
        rx: mpsc::Receiver<Outgoing>,
        _guard: MutexGuard<'static, ()>,
    }

    fn held(max_batch: usize, max_queue: usize) -> Held {
        let guard = STALL_FAILPOINT
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let registry = test_registry();
        failpoint::arm("serve/batcher_stall", FailMode::Sleep(HOLD));
        let batcher = batcher(&registry, max_batch, max_queue);
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        submit_one(&batcher, pending(&op, PRIMER, &tx));
        let start = Instant::now();
        while batcher.batches_dispatched() == 0 {
            assert!(start.elapsed() < HOLD, "worker never took the primer");
            thread::yield_now();
        }
        Held {
            batcher,
            op,
            tx,
            rx,
            _guard: guard,
        }
    }

    impl Held {
        /// Checks the worker is still on the primer (so every request
        /// submitted so far is queued behind it), disarms the stall,
        /// and returns every reply but the primer's.
        fn release(&self, replies: usize) -> Vec<Outgoing> {
            assert_eq!(
                self.batcher.batches_dispatched(),
                1,
                "the worker drained again inside the hold"
            );
            failpoint::disarm("serve/batcher_stall");
            let mut out = expect_outputs(&self.rx, replies + 1);
            out.retain(|reply| reply.request_id != PRIMER);
            out
        }

        /// Batches dispatched after the primer's.
        fn batches_after_primer(&self) -> u64 {
            self.batcher.batches_dispatched() - 1
        }
    }

    impl Drop for Held {
        /// A failed assertion must not leave the worker stall armed for
        /// the tests that run after it.
        fn drop(&mut self) {
            failpoint::disarm("serve/batcher_stall");
        }
    }

    /// Coalescing: `n` requests submitted one at a time while the
    /// worker is busy go out as `ceil(n / max_batch)` batches.
    #[test]
    fn held_requests_coalesce_into_full_batches() {
        let held = held(4, 4096);
        for id in 0..10 {
            submit_one(&held.batcher, pending(&held.op, id, &held.tx));
        }
        assert_eq!(held.release(10).len(), 10);
        assert_eq!(held.batches_after_primer(), 10u64.div_ceil(4));
    }

    /// A full batch's worth queued behind a busy worker dispatches as
    /// one batch, and every request in it is answered.
    #[test]
    fn full_batch_dispatches_as_one() {
        let held = held(4, 4096);
        for id in 0..4 {
            submit_one(&held.batcher, pending(&held.op, id, &held.tx));
        }
        let replies = held.release(4);
        assert_eq!(held.batches_after_primer(), 1, "one coalesced batch");
        let mut ids: Vec<u64> = replies.iter().map(|o| o.request_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        for reply in &replies {
            assert!(matches!(reply.response, Response::Output(_)));
        }
    }

    /// Work conservation: a lone request on an idle batcher dispatches
    /// at once as a batch of one — nothing waits for the batch to fill.
    #[test]
    fn lone_request_dispatches_without_waiting() {
        let registry = test_registry();
        let batcher = batcher(&registry, 64, 4096);
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        submit_one(&batcher, pending(&op, 42, &tx));
        let reply = expect_outputs(&rx, 1).pop().expect("one reply");
        assert_eq!(reply.request_id, 42);
        assert!(matches!(reply.response, Response::Output(_)));
        assert_eq!(batcher.batches_dispatched(), 1);
    }

    /// Shutdown flush: requests still queued behind a busy worker are
    /// all dispatched before the worker exits.
    #[test]
    fn shutdown_flushes_queued_requests() {
        let held = held(64, 4096);
        for id in 0..5 {
            submit_one(&held.batcher, pending(&held.op, id, &held.tx));
        }
        assert_eq!(held.batcher.batches_dispatched(), 1, "still held");
        failpoint::disarm("serve/batcher_stall");
        held.batcher.shutdown();
        let mut ids: Vec<u64> = expect_outputs(&held.rx, 6)
            .iter()
            .map(|o| o.request_id)
            .filter(|&id| id != PRIMER)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "flush may not drop requests");
        // After shutdown, submissions are answered `Shutdown`, unexecuted.
        submit_one(&held.batcher, pending(&held.op, 99, &held.tx));
        let refused = expect_outputs(&held.rx, 1).pop().expect("one reply");
        assert_eq!(refused.request_id, 99);
        assert_eq!(error_code(&refused), ErrorCode::Shutdown);
    }

    /// `max_batch = 1` degenerates to pass-through: every request is
    /// its own engine batch.
    #[test]
    fn max_batch_one_is_pass_through() {
        let registry = test_registry();
        let batcher = batcher(&registry, 1, 4096);
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        for id in 0..3 {
            submit_one(&batcher, pending(&op, id, &tx));
            let reply = expect_outputs(&rx, 1).pop().expect("one reply");
            assert_eq!(reply.request_id, id);
        }
        assert_eq!(
            batcher.batches_dispatched(),
            3,
            "pass-through means one batch per request"
        );
    }

    /// Unknown models come back as typed error responses, not dropped
    /// requests.
    #[test]
    fn unknown_model_yields_typed_error() {
        let registry = test_registry();
        let batcher = batcher(&registry, 1, 4096);
        let op = encode_op(&registry);
        let (tx, rx) = mpsc::channel();
        let mut missing = pending(&op, 7, &tx);
        missing.model = "no-such-model".into();
        submit_one(&batcher, missing);
        let reply = expect_outputs(&rx, 1).pop().expect("one reply");
        assert_eq!(error_code(&reply), ErrorCode::UnknownModel);
    }

    /// Admission control: with the worker held, a burst is admitted up
    /// to `max_queue`; the rest is answered `Overloaded` at once, never
    /// executed, and counted as shed. Every accepted request is still
    /// answered.
    #[test]
    fn queue_at_capacity_refuses_overloaded() {
        let held = held(2, 3);
        let mut burst: Vec<Pending> = (0..10).map(|id| pending(&held.op, id, &held.tx)).collect();
        held.batcher.submit(&mut burst);
        assert!(burst.is_empty(), "submit consumes the whole burst");
        let shed = expect_outputs(&held.rx, 7);
        for reply in &shed {
            assert_eq!(error_code(reply), ErrorCode::Overloaded);
        }
        let mut ids: Vec<u64> = shed.iter().map(|o| o.request_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (3..10).collect::<Vec<_>>(), "the tail is refused");
        assert_eq!(held.batcher.shared.metrics.stats().requests_shed, 7);
        let mut ids: Vec<u64> = held.release(3).iter().map(|o| o.request_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(
            held.rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "no replies beyond one per request"
        );
    }

    /// Deadline enforcement: a request whose deadline has passed by
    /// dispatch time is answered `DeadlineExceeded` without executing;
    /// a fresh one in the same batch still runs.
    #[test]
    fn expired_deadline_is_answered_at_dequeue() {
        let held = held(2, 4096);
        let mut expired = pending(&held.op, 1, &held.tx);
        // Already expired when dispatched: the hold keeps it queued far
        // past its 1 ms budget.
        expired.deadline = Some(Instant::now() + Duration::from_millis(1));
        let fresh = pending(&held.op, 2, &held.tx);
        held.batcher.submit(&mut vec![expired, fresh]);
        let replies = held.release(2);
        assert_eq!(held.batches_after_primer(), 1, "one batch holds both");
        for reply in &replies {
            match reply.request_id {
                1 => assert_eq!(error_code(reply), ErrorCode::DeadlineExceeded),
                2 => assert!(matches!(reply.response, Response::Output(_))),
                id => panic!("unexpected request id {id}"),
            }
        }
    }
}
