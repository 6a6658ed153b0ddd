//! `bench_serve` — latency/throughput benchmark of the `typilus serve`
//! daemon.
//!
//! Trains a small model, starts an in-process server on an ephemeral
//! TCP port, then for each client count in `TYPILUS_SERVE_CLIENTS`
//! (default `1,2,4`) drives `TYPILUS_SERVE_REQUESTS` (default 40)
//! predict requests *per client* from concurrent client threads,
//! reporting per-request p50/p99 latency, aggregate throughput, and
//! the error-reply count (which must be 0: concurrency may never cost
//! correctness).
//!
//! `served_vs_inprocess_p50` is the 1-client served p50 over the
//! in-process `predict_source` p50 on the same sources
//! (`supervision_direct_p50_ms`): what the transport, queue and reply
//! encode add to a request. It is a within-run ratio, so it compares
//! across machines, and it can only improve when serving gets faster —
//! a transport stall (Nagle's algorithm meeting delayed ACK) shows up
//! as a ratio near 20. `scripts/benchdiff.sh` fails it above 2.0.
//!
//! `throughput_scaling` (largest client count over one client) and
//! `mean_batch` (engine requests per batch) are reported, not gated.
//! Concurrent clients overlap their transport with engine work, and a
//! batch's sources run on the worker pool, so scaling is bounded by
//! host cores. A gate on it would reward a stall that every client
//! sits out in parallel: before `TCP_NODELAY` the ratio was 3.9 at a
//! 92 ms p50.
//!
//! `supervision_p50_overhead` is an in-process A/B of the engine's
//! `catch_unwind` supervisor: the same predict workload run directly
//! and inside the wrapper the engine applies to every batch, as a p50
//! ratio. Supervision is unconditional in the daemon, so this ratio is
//! the price of panic-safety per request; benchdiff gates it at 1.05.
//!
//! Writes `BENCH_serve.json` (or `TYPILUS_BENCH_OUT`) and prints it to
//! stdout.

use std::time::Instant;
use typilus::{EncoderKind, GraphConfig, LossKind};
use typilus_bench::{config_for, prepare, train_logged, Scale};
use typilus_serve::{Client, Endpoint, Response, ServeOptions, Server};

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct Row {
    clients: usize,
    requests: usize,
    errors: u64,
    p50_ms: f64,
    p99_ms: f64,
    wall_s: f64,
    throughput_rps: f64,
}

/// Drives `clients` concurrent clients, `per_client` predicts each.
fn run_clients(endpoint: &Endpoint, sources: &[String], clients: usize, per_client: usize) -> Row {
    let wall = Instant::now();
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let endpoint = endpoint.clone();
        let sources = sources.to_vec();
        handles.push(std::thread::spawn(move || -> (Vec<f64>, u64) {
            let mut lat = Vec::with_capacity(per_client);
            let mut errors = 0u64;
            let mut client = match Client::connect(&endpoint) {
                Ok(cl) => cl,
                Err(_) => return (lat, per_client as u64),
            };
            for r in 0..per_client {
                let src = &sources[(c + r) % sources.len()];
                let t = Instant::now();
                match client.predict(src) {
                    Ok(Response::Predictions(_)) => lat.push(t.elapsed().as_secs_f64() * 1e3),
                    Ok(_) | Err(_) => errors += 1,
                }
            }
            (lat, errors)
        }));
    }
    let mut lat = Vec::with_capacity(clients * per_client);
    let mut errors = 0u64;
    for h in handles {
        match h.join() {
            Ok((l, e)) => {
                lat.extend(l);
                errors += e;
            }
            Err(_) => errors += per_client as u64,
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    lat.sort_by(f64::total_cmp);
    let total = clients * per_client;
    Row {
        clients,
        requests: total,
        errors,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        wall_s,
        throughput_rps: total as f64 / wall_s.max(1e-9),
    }
}

/// In-process A/B of the serve supervisor: the same predict workload
/// run directly and inside the `catch_unwind` wrapper [`Server::run`]'s
/// engine applies to every batch. Interleaved reps so drift (cache
/// warm-up, host noise) lands on both arms; returns
/// `(direct_p50_ms, supervised_p50_ms, ratio)`.
fn supervision_overhead(system: &typilus::TrainedSystem, sources: &[String]) -> (f64, f64, f64) {
    const REPS: usize = 60;
    let mut direct = Vec::with_capacity(REPS);
    let mut supervised = Vec::with_capacity(REPS);
    let time_direct = |src: &String| {
        let t = Instant::now();
        let _ = system.predict_source(src);
        t.elapsed().as_secs_f64() * 1e3
    };
    let time_supervised = |src: &String| {
        let t = Instant::now();
        let _ =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| system.predict_source(src)));
        t.elapsed().as_secs_f64() * 1e3
    };
    for r in 0..REPS {
        let src = &sources[r % sources.len()];
        // Alternate which arm goes first so cache warm-up from the
        // first arm does not systematically favour the second.
        if r % 2 == 0 {
            direct.push(time_direct(src));
            supervised.push(time_supervised(src));
        } else {
            supervised.push(time_supervised(src));
            direct.push(time_direct(src));
        }
    }
    direct.sort_by(f64::total_cmp);
    supervised.sort_by(f64::total_cmp);
    let d = percentile(&direct, 0.50);
    let s = percentile(&supervised, 0.50);
    (d, s, s / d.max(1e-9))
}

fn main() {
    let scale = Scale::small();
    let client_counts = typilus_bench::serve_clients(&[1, 2, 4]);
    let per_client = typilus_bench::serve_requests(40);

    let graph = GraphConfig::default();
    let (corpus, data) = prepare(&scale, &graph);
    let config = config_for(&scale, EncoderKind::Graph, LossKind::Typilus, graph);
    let mut system = train_logged("serve", &data, &config);

    // A rotating pool of real corpus sources keeps per-request work
    // representative without dominating the run.
    let sources: Vec<String> = corpus
        .files
        .iter()
        .take(8)
        .map(|f| f.source.clone())
        .collect();
    assert!(!sources.is_empty(), "benchmark corpus is empty");

    eprintln!("[serve] measuring supervision overhead (direct vs catch_unwind) ...");
    let (direct_p50, supervised_p50, overhead) = supervision_overhead(&system, &sources);
    eprintln!(
        "[serve] supervision: direct p50 {direct_p50:.2}ms, supervised p50 \
         {supervised_p50:.2}ms, overhead {overhead:.3}x"
    );

    let server = Server::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        ServeOptions::default(),
    )
    .expect("bind ephemeral port");
    let endpoint = server.endpoint().clone();
    let server_thread = std::thread::spawn(move || server.run(&mut system));

    let rows: Vec<Row> = client_counts
        .iter()
        .map(|&clients| {
            eprintln!("[serve] {clients} clients x {per_client} requests...");
            let row = run_clients(&endpoint, &sources, clients, per_client);
            eprintln!(
                "[serve] {clients} clients: p50 {:.2}ms p99 {:.2}ms, {:.0} req/s, {} errors",
                row.p50_ms, row.p99_ms, row.throughput_rps, row.errors
            );
            row
        })
        .collect();

    match Client::connect(&endpoint).and_then(|mut c| c.shutdown()) {
        Ok(Response::Bye) => {}
        other => eprintln!("[serve] unexpected shutdown reply: {other:?}"),
    }
    let summary = match server_thread.join() {
        Ok(s) => s,
        Err(_) => {
            eprintln!("[serve] server thread panicked");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[serve] server: {} requests in {} batches (largest {}), {} errors",
        summary.requests, summary.batches, summary.largest_batch, summary.errors
    );

    let scaling = match (rows.first(), rows.last()) {
        (Some(a), Some(b)) if rows.len() > 1 => b.throughput_rps / a.throughput_rps.max(1e-9),
        _ => 1.0,
    };
    // `null` when no 1-client row ran, which benchdiff reports as missing.
    let served_vs_inprocess = rows
        .iter()
        .find(|r| r.clients == 1)
        .map_or("null".to_string(), |r| {
            format!("{:.3}", r.p50_ms / direct_p50.max(1e-9))
        });
    let mean_batch = summary.requests as f64 / summary.batches.max(1) as f64;
    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            "    {{\n      \"clients\": {},\n      \"requests\": {},\n      \
             \"errors\": {},\n      \"p50_ms\": {:.3},\n      \"p99_ms\": {:.3},\n      \
             \"wall_s\": {:.3},\n      \"throughput_rps\": {:.1}\n    }}",
            r.clients, r.requests, r.errors, r.p50_ms, r.p99_ms, r.wall_s, r.throughput_rps
        ));
    }
    let cpus = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"requests_per_client\": {per_client},\n  \
         \"sources\": {},\n  \"host_cpus\": {cpus},\n  \
         \"largest_batch\": {},\n  \"mean_batch\": {mean_batch:.3},\n  \
         \"supervision_direct_p50_ms\": {direct_p50:.3},\n  \
         \"supervision_supervised_p50_ms\": {supervised_p50:.3},\n  \
         \"supervision_p50_overhead\": {overhead:.3},\n  \"rows\": [\n{body}\n  ],\n  \
         \"throughput_scaling\": {scaling:.3},\n  \
         \"served_vs_inprocess_p50\": {served_vs_inprocess}\n}}\n",
        sources.len(),
        summary.largest_batch
    );
    let out = typilus_bench::bench_out("BENCH_serve.json");
    // lint: allow(D7) — advisory benchmark report, regenerated by rerunning; never read back by the pipeline
    std::fs::write(&out, &json).expect("write report");
    eprintln!("wrote {out}");
    print!("{json}");
}
