//! The load generator: an open loop on a seeded arrival schedule and
//! a closed loop, each on [`CONNECTIONS`] client connections driven by
//! one thread apiece.
//!
//! In the open loop a request is timed from when it was *due*, so a
//! stall also counts against the requests queued behind it. A request
//! taken by a connection before its due time waits for it (the
//! generator's lateness is then `sent - due`); one taken after it
//! waited for a free connection (`picked - due`).

use crate::inputs::{self, binding, Op, Phase, CONNECTIONS};
use crate::trace::{Span, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};
use typilus_serve::{Client, Endpoint, Response};

/// One request as the generator saw it; times are seconds from the
/// phase start.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    pub op: Op,
    pub due: f64,
    pub picked: f64,
    pub sent: f64,
    pub done: f64,
    pub reply: Result<Response, String>,
}

impl Sample {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent a request it was idle for, in ms.
    pub fn late_ms(&self) -> f64 {
        if self.picked <= self.due {
            (self.sent - self.due).max(0.0) * 1e3
        } else {
            0.0
        }
    }

    /// How long a due request waited for a free connection, in ms.
    pub fn wait_ms(&self) -> f64 {
        (self.picked - self.due).max(0.0) * 1e3
    }
}

/// What one phase produced.
pub struct PhaseRun {
    pub samples: Vec<Sample>,
    /// Requests never sent: still queued when the phase gave up on them.
    pub unfinished: usize,
}

fn send(client: &mut Client, op: Op, pool: &[String]) -> Result<Response, String> {
    let reply = match op {
        Op::Predict(i) => client.predict(&pool[i]),
        Op::AddMarker(k) => {
            let (source, symbol, ty) = binding(k);
            client.add_marker(&source, &symbol, &ty)
        }
    };
    reply.map_err(|e| e.to_string())
}

fn span_name(op: Op) -> &'static str {
    match op {
        Op::Predict(_) => "serve.roundtrip",
        Op::AddMarker(_) => "serve.write",
    }
}

fn secs(d: f64) -> Duration {
    Duration::from_secs_f64(d.max(0.0))
}

/// Joins the connection threads and pools their samples.
fn join_all(workers: Vec<thread::ScopedJoinHandle<'_, Vec<Sample>>>) -> Vec<Sample> {
    workers
        .into_iter()
        .flat_map(|w| w.join().expect("a load-generator thread panicked"))
        .collect()
}

fn connect(endpoint: &Endpoint) -> Result<Vec<Client>, String> {
    (0..CONNECTIONS)
        .map(|_| Client::connect(endpoint).map_err(|e| format!("connect {endpoint}: {e}")))
        .collect()
}

fn record(tracer: &Tracer, op: Op, index: usize, sent: Instant, done: Instant) {
    tracer.record(Span {
        id: u32::MAX,
        parent: None,
        name: span_name(op),
        request: index as u64,
        start: tracer.stamp(sent),
        end: tracer.stamp(done),
    });
}

/// Drives every request of `due` (seconds from the start) through
/// [`CONNECTIONS`] connections. Requests still unsent `grace` seconds
/// after the last due time are abandoned and counted unfinished.
///
/// # Errors
///
/// A connection that cannot be opened.
// lint: allow(D6) — the benchmark's own clock: it times calls into the program and never feeds a result back to it
pub fn open_loop(
    endpoint: &Endpoint,
    pool: &[String],
    ops: &[Op],
    due: &[f64],
    grace: f64,
    tracer: &Tracer,
) -> Result<PhaseRun, String> {
    let clients = connect(endpoint)?;
    let next = AtomicUsize::new(0);
    let give_up = due.last().copied().unwrap_or(0.0) + grace;
    let start = Instant::now();
    let mut samples = thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= due.len() {
                            break;
                        }
                        let picked = start.elapsed().as_secs_f64();
                        if picked > give_up {
                            break;
                        }
                        if picked < due[i] {
                            thread::sleep(secs(due[i] - picked));
                        }
                        let sent = Instant::now();
                        let reply = send(&mut client, ops[i], pool);
                        let done = Instant::now();
                        record(tracer, ops[i], i, sent, done);
                        mine.push(Sample {
                            index: i,
                            op: ops[i],
                            due: due[i],
                            picked,
                            sent: (sent - start).as_secs_f64(),
                            done: (done - start).as_secs_f64(),
                            reply,
                        });
                    }
                    mine
                })
            })
            .collect();
        join_all(workers)
    });
    samples.sort_by_key(|s| s.index);
    Ok(PhaseRun {
        unfinished: due.len() - samples.len(),
        samples,
    })
}

/// Each connection sends its next request a seeded think time after
/// the previous reply arrives, for `window` seconds; the request mix
/// is [`inputs::op`]'s closed-loop stream. Requests in flight when the
/// window closes are finished and checked but not counted as
/// completed within it. Its requests queue behind each other at the
/// engine, so they are not traced.
///
/// # Errors
///
/// A connection that cannot be opened.
// lint: allow(D6) — the benchmark's own clock: it times calls into the program and never feeds a result back to it
pub fn closed_loop(
    endpoint: &Endpoint,
    pool: &[String],
    seed: u64,
    write_share: f64,
    window: f64,
) -> Result<PhaseRun, String> {
    let clients = connect(endpoint)?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples = thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while start.elapsed().as_secs_f64() < window {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let op = inputs::op(seed, Phase::Closed, i as u64, write_share);
                        let sent = Instant::now();
                        let reply = send(&mut client, op, pool);
                        let done = Instant::now();
                        let sent = (sent - start).as_secs_f64();
                        thread::sleep(secs(inputs::think(seed, i as u64)));
                        mine.push(Sample {
                            index: i,
                            op,
                            due: sent,
                            picked: sent,
                            sent,
                            done: (done - start).as_secs_f64(),
                            reply,
                        });
                    }
                    mine
                })
            })
            .collect();
        join_all(workers)
    });
    samples.sort_by_key(|s| s.index);
    Ok(PhaseRun {
        samples,
        unfinished: 0,
    })
}
