//! The serve daemon: accept loop, per-connection readers, and the
//! single-threaded batching engine that owns the trained system.
//!
//! # Threading model
//!
//! One *engine* thread (the caller of [`Server::run`]) owns the
//! `&mut TrainedSystem` and is the only thread that touches the model
//! or the type map. Connection threads decode frames into [`Request`]s
//! and push them over a **bounded** channel; the engine drains up to
//! `batch_max` queued jobs (and at most `batch_bytes_max` source
//! bytes) per pass and replies through per-job one-shot channels. When
//! the queue is full, the connection thread answers
//! [`ErrorCode::Overloaded`] itself — backpressure never blocks a
//! reader on a slow engine.
//!
//! # Supervision
//!
//! Every batch is dispatched inside `catch_unwind`: a panic anywhere
//! in the predict / add-marker path answers the affected requests with
//! a typed [`ErrorCode::Internal`] reply, rebuilds the worker pool
//! (and with it every worker thread's prediction scratch), bumps
//! `panics_recovered`, and keeps serving. A request whose batch
//! panicked twice is *quarantined*: further identical requests are
//! refused with [`ErrorCode::Quarantined`] instead of being retried
//! into a third crash. [`Request::Drain`] flips the server into a
//! draining state — existing connections keep being served, new ones
//! get one [`ErrorCode::Draining`] frame and are dropped — and the
//! current health (`ok` / `degraded` / `draining`) rides along in
//! every [`ServerStats`] reply.
//!
//! # Determinism
//!
//! Jobs are processed strictly in arrival order. Maximal runs of
//! consecutive `Predict` jobs are batched into one
//! [`TrainedSystem::predict_sources`] call, whose per-source results
//! are exactly what lone `predict_source` calls return (ordered pool
//! reduction; sources are independent). Mutating requests
//! (`add-marker`, `reindex`) are natural barriers because the engine
//! is single-threaded. Net effect: every reply is byte-identical to a
//! one-shot CLI run against the same system state, at any thread or
//! client count — including after a recovered panic, because recovery
//! replaces only the pool, never the model or the type map.

use crate::protocol::{
    decode, encode, frame_bytes, read_frame, write_frame, ErrorCode, FrameError, Health, Request,
    Response, ServerStats, SymbolHints,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use typilus::atomic_io::crc64;
use typilus::faults::Fault;
use typilus::{AddMarkerError, TrainedSystem};
use typilus_nn::PoolCell;
use typilus_types::PyType;

/// Batches containing a request with this many prior panic
/// involvements refuse it with [`ErrorCode::Quarantined`].
const QUARANTINE_AFTER: u32 = 2;

/// Pause before retrying after a failed `accept()`.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7977`. Port `0` binds an
    /// ephemeral port; [`Server::endpoint`] reports the resolved one.
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file at the path is
    /// removed at bind time and the live one at shutdown.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// Tunables of a serve run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Most queued jobs drained into one engine pass (consecutive
    /// predicts among them share one pooled forward pass).
    pub batch_max: usize,
    /// Most request source bytes drained into one engine pass — one
    /// giant snippet cannot starve every other queued request for a
    /// whole batch; later jobs simply wait for the next pass.
    pub batch_bytes_max: usize,
    /// Bound of the request queue; a full queue answers
    /// [`ErrorCode::Overloaded`] instead of blocking the reader.
    pub queue_max: usize,
    /// Per-request deadline in milliseconds: a job still queued past
    /// it is answered [`ErrorCode::Timeout`] instead of being run.
    pub timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            batch_max: 16,
            batch_bytes_max: 4 * 1024 * 1024,
            queue_max: 256,
            timeout_ms: 10_000,
        }
    }
}

/// What a finished serve run did, for the operator's log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Requests accepted (decoded frames).
    pub requests: u64,
    /// Predict requests answered with predictions.
    pub predicts: u64,
    /// Markers bound through `add-marker`.
    pub markers_added: u64,
    /// Engine batches executed.
    pub batches: u64,
    /// Largest batch drained in one pass.
    pub largest_batch: u64,
    /// Error replies sent (any [`ErrorCode`]).
    pub errors: u64,
    /// Engine panics caught and recovered by the supervisor.
    pub panics_recovered: u64,
    /// Request hashes quarantined at the end of the run.
    pub quarantined: u64,
    /// Reply writes that failed because the peer was gone.
    pub client_gone: u64,
    /// Reply writes that failed for server-side reasons.
    pub write_faults: u64,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    predicts: AtomicU64,
    markers_added: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicU64,
    errors: AtomicU64,
    panics_recovered: AtomicU64,
    quarantined: AtomicU64,
    client_gone: AtomicU64,
    write_faults: AtomicU64,
}

impl Counters {
    fn summary(&self) -> ServeSummary {
        ServeSummary {
            requests: self.requests.load(Ordering::SeqCst),
            predicts: self.predicts.load(Ordering::SeqCst),
            markers_added: self.markers_added.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            largest_batch: self.largest_batch.load(Ordering::SeqCst),
            errors: self.errors.load(Ordering::SeqCst),
            panics_recovered: self.panics_recovered.load(Ordering::SeqCst),
            quarantined: self.quarantined.load(Ordering::SeqCst),
            client_gone: self.client_gone.load(Ordering::SeqCst),
            write_faults: self.write_faults.load(Ordering::SeqCst),
        }
    }
}

/// One queued request plus its reply channel and deadline.
struct Job {
    request: Request,
    reply: SyncSender<Response>,
    deadline: Instant,
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl ListenerKind {
    fn accept(&self) -> std::io::Result<StreamKind> {
        match self {
            ListenerKind::Tcp(l) => accept_tcp(l).map(StreamKind::Tcp),
            ListenerKind::Unix(l) => l.accept().map(|(s, _)| StreamKind::Unix(s)),
        }
    }
}

/// Accepts one TCP connection with Nagle's algorithm off. Every reply
/// is one small frame the client is blocked on; with Nagle on, a
/// reply that follows an unacknowledged segment on a reused
/// connection would wait out the client's delayed ACK.
fn accept_tcp(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

enum StreamKind {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for StreamKind {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            StreamKind::Tcp(s) => s.read(buf),
            StreamKind::Unix(s) => s.read(buf),
        }
    }
}

impl Write for StreamKind {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            StreamKind::Tcp(s) => s.write(buf),
            StreamKind::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            StreamKind::Tcp(s) => s.flush(),
            StreamKind::Unix(s) => s.flush(),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: ListenerKind,
    endpoint: Endpoint,
    options: ServeOptions,
}

impl Server {
    /// Binds the endpoint. A stale Unix socket file is removed first;
    /// TCP port `0` binds an ephemeral port (see [`Server::endpoint`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, ...).
    pub fn bind(endpoint: &Endpoint, options: ServeOptions) -> std::io::Result<Server> {
        let (listener, resolved) = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let actual = l.local_addr()?.to_string();
                (ListenerKind::Tcp(l), Endpoint::Tcp(actual))
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                (ListenerKind::Unix(l), Endpoint::Unix(path.clone()))
            }
        };
        Ok(Server {
            listener,
            endpoint: resolved,
            options,
        })
    }

    /// The resolved endpoint the server listens on (for TCP port `0`,
    /// the actual ephemeral address).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Runs the daemon until a [`Request::Shutdown`] arrives. The
    /// calling thread becomes the engine and is the only thread that
    /// touches `system`; serving mutates process memory only — no
    /// artifact on disk is written, so a kill at any moment leaves
    /// them untouched.
    pub fn run(self, system: &mut TrainedSystem) -> ServeSummary {
        let Server {
            listener,
            endpoint,
            options,
        } = self;
        let (jobs_tx, jobs_rx) = sync_channel::<Job>(options.queue_max.max(1));
        // The conn thread that writes the `Bye` reply acks here, so
        // the engine never lets the process exit while the farewell
        // frame is still unflushed (the client would see a closed
        // connection instead of a clean shutdown).
        let (bye_tx, bye_rx) = sync_channel::<()>(1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let timeout = Duration::from_millis(options.timeout_ms.max(1));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let draining = Arc::clone(&draining);
            let counters = Arc::clone(&counters);
            thread::spawn(move || {
                accept_loop(
                    listener, jobs_tx, bye_tx, shutdown, draining, counters, timeout,
                )
            })
        };

        engine_loop(
            &options, &endpoint, &jobs_rx, &bye_rx, system, &shutdown, &draining, &counters,
        );

        let _ = accept.join();
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        counters.summary()
    }
}

/// Drains and supervises batches until shutdown. Strict arrival
/// order; maximal consecutive predict runs share one pooled forward
/// pass; every batch runs inside `catch_unwind` so a panicking
/// request degrades to a typed error instead of killing the daemon.
// lint: root(serve)
#[allow(clippy::too_many_arguments)]
fn engine_loop(
    options: &ServeOptions,
    endpoint: &Endpoint,
    jobs_rx: &Receiver<Job>,
    bye_rx: &Receiver<()>,
    system: &mut TrainedSystem,
    shutdown: &AtomicBool,
    draining: &AtomicBool,
    counters: &Counters,
) {
    let batch_max = options.batch_max.max(1);
    let batch_bytes_max = options.batch_bytes_max.max(1);
    // Panic involvements per request hash; at [`QUARANTINE_AFTER`]
    // the request is refused instead of run. Engine-local: no lock,
    // no growth beyond distinct poisoned requests.
    let mut quarantine: BTreeMap<u64, u32> = BTreeMap::new();
    'serve: loop {
        let first = match jobs_rx.recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        let mut bytes = request_source_bytes(&first.request);
        let mut batch = vec![first];
        while batch.len() < batch_max && bytes < batch_bytes_max {
            match jobs_rx.try_recv() {
                Ok(job) => {
                    bytes += request_source_bytes(&job.request);
                    batch.push(job);
                }
                Err(_) => break,
            }
        }
        counters.batches.fetch_add(1, Ordering::SeqCst);
        counters
            .largest_batch
            .fetch_max(batch.len() as u64, Ordering::SeqCst);

        // One clock read per batch; the deadline decision is
        // operational (drop stale work) and never reaches reply
        // payloads or artifacts.
        // lint: allow(D6) — request-timeout bookkeeping, not a result path
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for job in batch {
            if now > job.deadline {
                send_reply(
                    counters,
                    &job,
                    error_reply(ErrorCode::Timeout, "request timed out in queue"),
                );
            } else if is_quarantined(&quarantine, &job.request) {
                send_reply(
                    counters,
                    &job,
                    error_reply(
                        ErrorCode::Quarantined,
                        "request made the engine panic repeatedly and is quarantined",
                    ),
                );
            } else {
                live.push(job);
            }
        }

        // Supervised dispatch: a panic anywhere below answers the
        // batch with typed `internal` errors and serving continues.
        let outcome = match catch_unwind(AssertUnwindSafe(|| {
            dispatch_batch(&live, system, shutdown, draining, counters)
        })) {
            Ok(outcome) => outcome,
            Err(_) => {
                recover_from_panic(&live, system, counters, &mut quarantine);
                BatchOutcome::Continue
            }
        };
        if matches!(outcome, BatchOutcome::Shutdown) {
            // Unblock the accept loop so it can observe the flag and
            // exit, then answer everything still queued.
            nudge(endpoint);
            while let Ok(job) = jobs_rx.try_recv() {
                send_reply(
                    counters,
                    &job,
                    error_reply(ErrorCode::ShuttingDown, "server is shutting down"),
                );
            }
            // Wait (bounded) for the conn thread to flush the `Bye`
            // frame before tearing the process down; a client that
            // vanished first simply never acks.
            let _ = bye_rx.recv_timeout(Duration::from_secs(2));
            break 'serve;
        }
    }
}

/// What [`dispatch_batch`] tells the engine loop to do next.
enum BatchOutcome {
    /// Keep serving.
    Continue,
    /// A [`Request::Shutdown`] was answered; drain and exit.
    Shutdown,
}

/// Executes one deadline- and quarantine-filtered batch in strict
/// arrival order. Runs inside the supervisor's `catch_unwind`: a
/// panic here is recovered by [`recover_from_panic`], so the call
/// chains below this point are not panic sinks for the daemon.
fn dispatch_batch(
    jobs: &[Job],
    system: &mut TrainedSystem,
    shutdown: &AtomicBool,
    draining: &AtomicBool,
    counters: &Counters,
) -> BatchOutcome {
    if let Some(fault) = typilus::faults::check("serve.engine.batch") {
        fault.trigger_panic("serve.engine.batch");
    }
    // Index-free dispatch (lint rule S3): walk the batch as a
    // shrinking slice, splitting a maximal predict run off the front
    // when one starts.
    let mut rest: &[Job] = jobs;
    while let Some((first, tail)) = rest.split_first() {
        match &first.request {
            Request::Predict { .. } => {
                let run_len = 1 + tail
                    .iter()
                    .take_while(|job| matches!(job.request, Request::Predict { .. }))
                    .count();
                let (run, after) = rest.split_at(run_len);
                let sources: Vec<String> = run
                    .iter()
                    .map(|job| match &job.request {
                        Request::Predict { source } => source.clone(),
                        _ => String::new(),
                    })
                    .collect();
                let results = system.predict_sources(&sources);
                for (job, result) in run.iter().zip(results) {
                    let resp = match result {
                        Ok(preds) => {
                            counters.predicts.fetch_add(1, Ordering::SeqCst);
                            Response::Predictions(preds.iter().map(SymbolHints::of).collect())
                        }
                        Err(e) => error_reply(ErrorCode::Parse, &e.to_string()),
                    };
                    send_reply(counters, job, resp);
                }
                rest = after;
            }
            Request::AddMarker { source, symbol, ty } => {
                let resp = if typilus::faults::check("serve.add_marker").is_some() {
                    error_reply(
                        ErrorCode::Space,
                        "injected fault at serve.add_marker: marker not bound",
                    )
                } else {
                    match ty.parse::<PyType>() {
                        Err(e) => error_reply(ErrorCode::BadType, &e.to_string()),
                        Ok(parsed) => match system.add_marker(source, symbol, parsed) {
                            Ok(markers) => {
                                counters.markers_added.fetch_add(1, Ordering::SeqCst);
                                Response::MarkerAdded { markers }
                            }
                            Err(e) => error_reply(add_marker_code(&e), &e.to_string()),
                        },
                    }
                };
                send_reply(counters, first, resp);
                rest = tail;
            }
            Request::Reindex => {
                let resp = if typilus::faults::check("serve.reindex").is_some() {
                    error_reply(
                        ErrorCode::Space,
                        "injected fault at serve.reindex: index unchanged",
                    )
                } else {
                    // Disjoint field borrows: the pool lives in
                    // `system.pool`, the rebuild mutates
                    // `system.type_map`.
                    let pool = system
                        .pool
                        .get_or_create(|| system.config.parallelism.resolve());
                    match system.type_map.build_sharded_index(
                        &system.config.space,
                        system.config.seed,
                        Some(pool),
                    ) {
                        Ok(()) => Response::Reindexed {
                            markers: system.type_map.len(),
                            index: system.type_map.index_kind().to_string(),
                        },
                        Err(e) => error_reply(ErrorCode::Space, &e.to_string()),
                    }
                };
                send_reply(counters, first, resp);
                rest = tail;
            }
            Request::Stats => {
                let resp = Response::Stats(stats(system, counters, draining));
                send_reply(counters, first, resp);
                rest = tail;
            }
            Request::Drain => {
                draining.store(true, Ordering::SeqCst);
                send_reply(counters, first, Response::Draining);
                rest = tail;
            }
            Request::Shutdown => {
                shutdown.store(true, Ordering::SeqCst);
                send_reply(counters, first, Response::Bye);
                for job in tail {
                    send_reply(
                        counters,
                        job,
                        error_reply(ErrorCode::ShuttingDown, "server is shutting down"),
                    );
                }
                return BatchOutcome::Shutdown;
            }
        }
    }
    BatchOutcome::Continue
}

/// Recovery path for a caught engine panic: answer every
/// not-yet-replied job of the batch with a typed `internal` error,
/// charge the batch's requests to the quarantine, and rebuild the
/// worker pool — a panic can leave worker threads' prediction scratch
/// in an arbitrary state, and a fresh [`PoolCell`] lazily respawns
/// clean workers on the next predict. The model and the type map are
/// never touched, which is what keeps post-recovery replies
/// byte-identical to one-shot runs.
fn recover_from_panic(
    batch: &[Job],
    system: &mut TrainedSystem,
    counters: &Counters,
    quarantine: &mut BTreeMap<u64, u32>,
) {
    counters.panics_recovered.fetch_add(1, Ordering::SeqCst);
    for job in batch {
        send_reply_best_effort(
            counters,
            job,
            error_reply(
                ErrorCode::Internal,
                "engine panicked while serving this batch; state was rebuilt",
            ),
        );
        if let Some(hash) = request_hash(&job.request) {
            *quarantine.entry(hash).or_insert(0) += 1;
        }
    }
    let poisoned = quarantine
        .values()
        .filter(|&&count| count >= QUARANTINE_AFTER)
        .count() as u64;
    counters.quarantined.store(poisoned, Ordering::SeqCst);
    system.pool = PoolCell::new();
}

/// Whether the quarantine refuses this request.
fn is_quarantined(quarantine: &BTreeMap<u64, u32>, request: &Request) -> bool {
    request_hash(request)
        .and_then(|hash| quarantine.get(&hash))
        .is_some_and(|&count| count >= QUARANTINE_AFTER)
}

/// Quarantine identity of a request: the CRC-64 of its payload
/// fields, NUL-separated so `("ab","c")` and `("a","bc")` differ.
/// Control requests carry no payload and are never quarantined.
fn request_hash(request: &Request) -> Option<u64> {
    match request {
        Request::Predict { source } => Some(crc64(source.as_bytes())),
        Request::AddMarker { source, symbol, ty } => {
            let mut buf = Vec::with_capacity(source.len() + symbol.len() + ty.len() + 2);
            buf.extend_from_slice(source.as_bytes());
            buf.push(0);
            buf.extend_from_slice(symbol.as_bytes());
            buf.push(0);
            buf.extend_from_slice(ty.as_bytes());
            Some(crc64(&buf))
        }
        Request::Reindex | Request::Stats | Request::Shutdown | Request::Drain => None,
    }
}

/// Source bytes a request contributes to the per-batch byte cap.
fn request_source_bytes(request: &Request) -> usize {
    match request {
        Request::Predict { source } => source.len(),
        Request::AddMarker { source, .. } => source.len(),
        Request::Reindex | Request::Stats | Request::Shutdown | Request::Drain => 0,
    }
}

/// Maps an adaptation failure to its wire code.
fn add_marker_code(e: &AddMarkerError) -> ErrorCode {
    match e {
        AddMarkerError::Parse(_) => ErrorCode::Parse,
        AddMarkerError::SymbolNotFound { .. } => ErrorCode::SymbolNotFound,
        AddMarkerError::NoEmbedding => ErrorCode::NoEmbedding,
        AddMarkerError::Space(_) => ErrorCode::Space,
    }
}

fn error_reply(code: ErrorCode, message: &str) -> Response {
    Response::Error {
        code,
        message: message.to_string(),
    }
}

/// Sends a reply to a job's connection thread, counting error replies.
/// A gone receiver (client disconnected or timed out) is not an error.
fn send_reply(counters: &Counters, job: &Job, resp: Response) {
    if matches!(resp, Response::Error { .. }) {
        counters.errors.fetch_add(1, Ordering::SeqCst);
    }
    let _ = job.reply.send(resp);
}

/// Post-panic variant of [`send_reply`]: `try_send`, because a job
/// that was already answered before the panic has a full or
/// disconnected reply channel, and the recovery path must never block
/// the engine on it.
fn send_reply_best_effort(counters: &Counters, job: &Job, resp: Response) {
    let is_error = matches!(resp, Response::Error { .. });
    if job.reply.try_send(resp).is_ok() && is_error {
        counters.errors.fetch_add(1, Ordering::SeqCst);
    }
}

fn stats(system: &TrainedSystem, counters: &Counters, draining: &AtomicBool) -> ServerStats {
    let s = counters.summary();
    let health = if draining.load(Ordering::SeqCst) {
        Health::Draining
    } else if s.panics_recovered > 0 || s.quarantined > 0 {
        Health::Degraded
    } else {
        Health::Ok
    };
    ServerStats {
        markers: system.type_map.len(),
        distinct_types: system.type_map.distinct_types(),
        overlay: system.type_map.overlay_len(),
        dim: system.type_map.dim(),
        index: system.type_map.index_kind().to_string(),
        requests: s.requests,
        predicts: s.predicts,
        markers_added: s.markers_added,
        batches: s.batches,
        largest_batch: s.largest_batch,
        errors: s.errors,
        panics_recovered: s.panics_recovered,
        quarantined: s.quarantined,
        client_gone: s.client_gone,
        write_faults: s.write_faults,
        health,
        warnings: typilus_nn::warning_counts(),
    }
}

/// Opens and immediately drops a connection to the endpoint, so an
/// accept loop blocked in `accept()` wakes up and re-checks the
/// shutdown flag.
fn nudge(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let _ = TcpStream::connect(addr.as_str());
        }
        Endpoint::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
    }
}

// lint: root(serve)
fn accept_loop(
    listener: ListenerKind,
    jobs: SyncSender<Job>,
    bye_ack: SyncSender<()>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    counters: Arc<Counters>,
    timeout: Duration,
) {
    loop {
        let mut stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // A persistent failure (fd exhaustion, ...) must not
                // spin a core the engine needs; back off briefly.
                // lint: allow(D6) — fixed accept-retry pause; reads no clock, never reaches a reply
                thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if draining.load(Ordering::SeqCst) {
            // Draining: refuse the new connection with one typed
            // frame and drop it; established connections are
            // unaffected.
            counters.errors.fetch_add(1, Ordering::SeqCst);
            let resp = error_reply(
                ErrorCode::Draining,
                "server is draining and accepts no new connections",
            );
            let _ = write_reply_counted(&mut stream, &resp, &counters);
            continue;
        }
        let jobs = jobs.clone();
        let bye_ack = bye_ack.clone();
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        thread::spawn(move || handle_conn(stream, jobs, bye_ack, shutdown, counters, timeout));
    }
}

/// Reads frames off one connection, queues them for the engine, and
/// writes the replies back. Client misbehaviour degrades only this
/// connection: malformed payloads get an error reply and the stream
/// stays usable (framing is intact); an oversized prefix or mid-frame
/// disconnect closes the stream.
// lint: root(serve)
fn handle_conn(
    mut stream: StreamKind,
    jobs: SyncSender<Job>,
    bye_ack: SyncSender<()>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    timeout: Duration,
) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => break,
            Err(FrameError::Oversized { len, max }) => {
                // The stream cannot be resynchronised; reply and drop.
                counters.errors.fetch_add(1, Ordering::SeqCst);
                let resp = error_reply(
                    ErrorCode::Oversized,
                    &format!("frame of {len} bytes exceeds the {max}-byte limit"),
                );
                let _ = write_reply_counted(&mut stream, &resp, &counters);
                break;
            }
        };
        let request: Request = match decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                counters.errors.fetch_add(1, Ordering::SeqCst);
                let resp = error_reply(ErrorCode::Malformed, &format!("undecodable request: {e}"));
                if !write_reply_counted(&mut stream, &resp, &counters) {
                    break;
                }
                continue;
            }
        };
        counters.requests.fetch_add(1, Ordering::SeqCst);
        if shutdown.load(Ordering::SeqCst) {
            counters.errors.fetch_add(1, Ordering::SeqCst);
            let resp = error_reply(ErrorCode::ShuttingDown, "server is shutting down");
            let _ = write_reply_counted(&mut stream, &resp, &counters);
            break;
        }
        let (reply_tx, reply_rx) = sync_channel::<Response>(1);
        // The deadline starts when the request is accepted off the
        // wire; it is compared once per engine batch.
        // lint: allow(D6) — request-timeout bookkeeping, not a result path
        let deadline = Instant::now() + timeout;
        let job = Job {
            request,
            reply: reply_tx,
            deadline,
        };
        let resp = match jobs.try_send(job) {
            Ok(()) => {
                // Backstop far beyond the engine's own deadline check,
                // so a conn thread can never hang forever.
                match reply_rx.recv_timeout(timeout * 2 + Duration::from_secs(1)) {
                    Ok(resp) => resp,
                    Err(RecvTimeoutError::Disconnected) => {
                        // The engine dropped the reply channel without
                        // answering (it died or discarded the job) —
                        // tell the client *now* instead of making it
                        // sit out the whole backstop.
                        counters.errors.fetch_add(1, Ordering::SeqCst);
                        error_reply(
                            ErrorCode::Internal,
                            "engine dropped the request without a reply",
                        )
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        counters.errors.fetch_add(1, Ordering::SeqCst);
                        error_reply(ErrorCode::Timeout, "no engine reply before the deadline")
                    }
                }
            }
            Err(TrySendError::Full(_)) => {
                counters.errors.fetch_add(1, Ordering::SeqCst);
                error_reply(ErrorCode::Overloaded, "request queue is full; retry")
            }
            Err(TrySendError::Disconnected(_)) => {
                counters.errors.fetch_add(1, Ordering::SeqCst);
                error_reply(ErrorCode::ShuttingDown, "server is shutting down")
            }
        };
        let is_bye = matches!(resp, Response::Bye);
        let written = write_reply_counted(&mut stream, &resp, &counters);
        if is_bye && written {
            let _ = bye_ack.try_send(());
        }
        if !written || is_bye {
            break;
        }
    }
}

/// Writes a reply frame, classifying a failure as *client-gone*
/// (broken pipe / connection reset: the peer left, routine) or a
/// *server-side write fault* (anything else: worth alerting on).
/// Returns whether the write succeeded.
fn write_reply_counted(stream: &mut StreamKind, resp: &Response, counters: &Counters) -> bool {
    match write_reply(stream, resp) {
        Ok(()) => true,
        Err(FrameError::Io(e)) if is_client_gone(&e) => {
            counters.client_gone.fetch_add(1, Ordering::SeqCst);
            false
        }
        Err(_) => {
            counters.write_faults.fetch_add(1, Ordering::SeqCst);
            false
        }
    }
}

/// Error kinds a vanished peer produces on write.
fn is_client_gone(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

fn write_reply(stream: &mut StreamKind, resp: &Response) -> Result<(), FrameError> {
    let bytes = encode(resp).map_err(|_| FrameError::Closed)?;
    if let Some(fault) = typilus::faults::check("serve.reply.write") {
        match fault {
            Fault::IoError => {
                return Err(FrameError::Io(std::io::Error::other(
                    "injected fault at serve.reply.write",
                )));
            }
            Fault::ShortWrite(n) => {
                // A torn reply: prefix plus the first `n` payload
                // bytes in one write, as the real path sends a frame,
                // then failure — the client sees a mid-frame I/O
                // error, never a bad decode.
                let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
                let cut = bytes.len().min(n);
                let torn = frame_bytes(len, bytes.get(..cut).unwrap_or(&bytes));
                let _ = stream.write_all(&torn);
                let _ = stream.flush();
                return Err(FrameError::Io(std::io::Error::other(
                    "injected short write at serve.reply.write",
                )));
            }
            Fault::Panic => fault.trigger_panic("serve.reply.write"),
        }
    }
    write_frame(stream, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_tcp_streams_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = accept_tcp(&listener).unwrap();
        assert!(accepted.nodelay().unwrap());
    }
}
