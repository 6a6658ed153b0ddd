//! `serve-edit` and `serve-adapt`: the daemon under an open and then
//! a closed loop of requests from one process.
//!
//! `serve-edit` is the editor asking for hints on single files over
//! loopback TCP (the CLI's `--addr` path) against a ~10^3-marker map
//! searched exactly: transport, queue and engine dominate and kNN is
//! negligible. `serve-adapt` adds `add-marker` writes binding fresh
//! user types, over a Unix socket (`--socket`) against a 10^5-marker
//! sharded index loaded through its mmap sidecar: kNN dominates and
//! transport is small.

use crate::inputs::{self, Op, Phase};
use crate::load::{self, PhaseRun, Sample};
use crate::replay::{self, Call};
use crate::report::Report;
use crate::setup;
use crate::stats::{beyond, mean, median, percentile, sorted, tail_quantile};
use crate::trace::{wall_ms_by_name, Tracer};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;
use typilus::{SymbolPrediction, TrainedSystem};
use typilus_nn::WorkerPool;
use typilus_serve::protocol::encode;
use typilus_serve::{Client, Endpoint, Response, ServeOptions, ServeSummary, Server, SymbolHints};
use typilus_space::TypeMap;

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Edit,
    Adapt,
}

/// Seconds past the last due time after which unsent open-loop
/// requests are abandoned as unfinished.
const GRACE_S: f64 = 5.0;

struct Daemon {
    endpoint: Endpoint,
    model: PathBuf,
    thread: JoinHandle<ServeSummary>,
}

impl Daemon {
    fn stop(self) -> Result<ServeSummary, String> {
        let reply = Client::connect(&self.endpoint).and_then(|mut c| c.shutdown());
        if !matches!(reply, Ok(Response::Bye)) {
            return Err(format!("shutdown: {reply:?}"));
        }
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// Replaces the trained map by `ADAPT_MARKERS` markers: the trained
/// ones followed by seeded, jittered replicas of them in order, under
/// a sharded index.
fn replicate(system: &mut TrainedSystem, seed: u64, tr: &Tracer) -> Result<(), String> {
    let base: Vec<(Vec<f32>, typilus_types::PyType)> = system
        .type_map
        .iter()
        .map(|(e, t)| (e.to_vec(), t.clone()))
        .collect();
    if base.is_empty() {
        return Err("trained map is empty".into());
    }
    let dim = system.type_map.dim();
    let coords = (base.len() * dim) as f32;
    let scale = inputs::ADAPT_JITTER
        * base
            .iter()
            .flat_map(|(e, _)| e)
            .map(|x| x.abs())
            .sum::<f32>()
        / coords;
    let mut map = TypeMap::new(dim);
    for i in 0..inputs::ADAPT_MARKERS {
        let (m, r) = (i % base.len(), i / base.len());
        let (e, ty) = &base[m];
        let row = e
            .iter()
            .enumerate()
            .map(|(d, x)| {
                if r == 0 {
                    *x
                } else {
                    x + scale * inputs::jitter(seed, m, r, d)
                }
            })
            .collect();
        map.add(row, ty.clone()).map_err(|e| e.to_string())?;
    }
    let pool = WorkerPool::new(inputs::THREADS);
    tr.span("space.build", None, 0, |_| {
        map.build_sharded_index(&inputs::adapt_space(), seed, Some(&pool))
    })
    .map_err(|e| e.to_string())?;
    system.type_map = map;
    Ok(())
}

/// Trains, (for `serve-adapt`) replicates and indexes, saves and
/// reloads the model, starts the daemon and warms it up.
fn start(
    kind: Kind,
    seed: u64,
    pool: &[String],
    work: &Path,
    tr: &Tracer,
) -> Result<Daemon, String> {
    let mut system = setup::train_serving();
    if kind == Kind::Adapt {
        replicate(&mut system, seed, tr)?;
    }
    let model = work.join("serve.typilus");
    let mut system = setup::save_load(&system, &model, tr)?;
    let endpoint = match kind {
        Kind::Edit => Endpoint::Tcp("127.0.0.1:0".into()),
        Kind::Adapt => Endpoint::Unix(work.join("serve.sock")),
    };
    let server = Server::bind(&endpoint, ServeOptions::default())
        .map_err(|e| format!("bind {endpoint}: {e}"))?;
    let endpoint = server.endpoint().clone();
    let thread = std::thread::spawn(move || server.run(&mut system));
    let daemon = Daemon {
        endpoint,
        model,
        thread,
    };
    let mut client = Client::connect(&daemon.endpoint).map_err(|e| e.to_string())?;
    for src in pool.iter().take(inputs::WARMUP_REQUESTS) {
        if !matches!(client.predict(src), Ok(Response::Predictions(_))) {
            return Err("warm-up request failed".into());
        }
    }
    Ok(daemon)
}

fn reply_bytes(predictions: &[SymbolPrediction]) -> Vec<u8> {
    encode(&Response::Predictions(
        predictions.iter().map(SymbolHints::of).collect(),
    ))
    .expect("a predictions reply always encodes")
}

/// What the replies of a run add up to.
struct Tally {
    /// Top hints equal to the annotation, and annotated symbols.
    exact: (usize, usize),
    /// Pool files whose first reply has been scored.
    scored: Vec<bool>,
    /// `(marker count after the write, binding)` of every write.
    writes: Vec<(usize, u64)>,
}

/// Checks one reply; returns whether it is right. The first reply for
/// each pool file is scored against the annotations, so every file
/// counts once however often it was drawn.
fn check(
    kind: Kind,
    sample: &Sample,
    initial: &[Vec<SymbolPrediction>],
    expected: &[Vec<u8>],
    tally: &mut Tally,
) -> bool {
    match (sample.op, &sample.reply) {
        (Op::Predict(i), Ok(reply @ Response::Predictions(hints))) => {
            let truth = &initial[i];
            if !tally.scored[i] {
                tally.scored[i] = true;
                for (h, p) in hints.iter().zip(truth) {
                    if let Some(gt) = &p.ground_truth {
                        tally.exact.1 += 1;
                        let top = h.hints.first().map(|c| c.ty.as_str());
                        tally.exact.0 += usize::from(top == Some(gt.to_string().as_str()));
                    }
                }
            }
            match kind {
                // The map never changes: byte-equal to one-shot predict.
                Kind::Edit => encode(reply).ok().as_ref() == Some(&expected[i]),
                // The map grows during the run: the same symbols in the
                // same order; the probes check the values.
                Kind::Adapt => {
                    hints.len() == truth.len()
                        && hints
                            .iter()
                            .zip(truth)
                            .all(|(h, p)| h.name == p.name && h.kind == format!("{:?}", p.kind))
                }
            }
        }
        (Op::AddMarker(k), Ok(Response::MarkerAdded { markers })) => {
            tally.writes.push((*markers, k));
            true
        }
        _ => false,
    }
}

/// Runs one serve workload.
// lint: allow(D6) — the benchmark's own clock: it times calls into the program and never feeds a result back to it
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    tr: &Tracer,
    work: &Path,
) -> Result<Report, String> {
    let pool = inputs::request_pool(seed);
    let (rate, write_share) = match kind {
        Kind::Edit => (inputs::EDIT_RATE, 0.0),
        Kind::Adapt => (inputs::ADAPT_RATE, inputs::ADAPT_WRITE_SHARE),
    };
    let mut report = Report::default();
    let (daemon, setup_s) =
        setup::repeat(tr, |tr| start(kind, seed, &pool, work, tr), Daemon::stop)?;
    report.set("setup_s", setup_s);
    let setup_spans = wall_ms_by_name(&tr.drain());

    let open_s = seconds * inputs::OPEN_SHARE;
    let due = inputs::arrivals(seed, rate, open_s);
    let ops: Vec<Op> = (0..due.len())
        .map(|i| inputs::op(seed, Phase::Open, i as u64, write_share))
        .collect();
    let open = load::open_loop(&daemon.endpoint, &pool, &ops, &due, GRACE_S, tr)?;
    let client_spans = wall_ms_by_name(&tr.drain());
    let closed = load::closed_loop(&daemon.endpoint, &pool, seed, write_share, seconds - open_s)?;
    let mut client = Client::connect(&daemon.endpoint).map_err(|e| e.to_string())?;
    let stats = match client.stats() {
        Ok(Response::Stats(s)) => s,
        other => return Err(format!("stats: {other:?}")),
    };
    let probes: Vec<Result<Response, String>> = match kind {
        Kind::Edit => Vec::new(),
        Kind::Adapt => pool[..inputs::PROBES]
            .iter()
            .map(|src| client.predict(src).map_err(|e| e.to_string()))
            .collect(),
    };
    drop(client);
    let model = daemon.model.clone();
    let summary = daemon.stop()?;
    println!(
        "daemon: {} requests in {} batches (largest {}), {} errors; {} markers ({} overlay), index {}",
        summary.requests,
        summary.batches,
        summary.largest_batch,
        summary.errors,
        stats.markers,
        stats.overlay,
        stats.index
    );

    // The reference: the served model as one-shot predict sees it.
    let mut reference = setup::load(&model, &Tracer::new(false))?;
    let initial: Vec<Vec<SymbolPrediction>> = pool
        .iter()
        .map(|s| reference.predict_source(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let expected: Vec<Vec<u8>> = initial.iter().map(|p| reply_bytes(p)).collect();
    let mut tally = Tally {
        exact: (0, 0),
        scored: vec![false; pool.len()],
        writes: Vec::new(),
    };
    // Checks every reply of a phase; returns which passed.
    let mut count = |run: &PhaseRun, name: &str, report: &mut Report| -> Vec<bool> {
        let ok: Vec<bool> = run
            .samples
            .iter()
            .map(|s| check(kind, s, &initial, &expected, &mut tally))
            .collect();
        let bad = ok.iter().filter(|&&k| !k).count();
        report.phase(
            name,
            (run.samples.len() + run.unfinished) as u64,
            (bad + run.unfinished) as u64,
        );
        ok
    };
    count(&open, "open", &mut report);
    let closed_ok = count(&closed, "closed", &mut report);
    let Tally {
        exact, mut writes, ..
    } = tally;

    // The shadow: replay the writes in the order the engine applied
    // them (the marker count each reply reports), then the probes must
    // read exactly what the daemon answered.
    writes.sort_unstable();
    let base = reference.type_map.len();
    let mut in_order = true;
    let mut add_ms = Vec::with_capacity(writes.len());
    for (n, &(markers, k)) in writes.iter().enumerate() {
        let (source, symbol, ty) = inputs::binding(k);
        let ty = ty
            .parse::<typilus_types::PyType>()
            .map_err(|e| format!("{ty}: {e:?}"))?;
        let t = Instant::now();
        let added = reference.add_marker(&source, &symbol, ty);
        add_ms.push(t.elapsed().as_secs_f64() * 1e3);
        in_order &= markers == base + n + 1 && added.ok() == Some(markers);
    }
    let probe_bad = probes
        .iter()
        .zip(&pool)
        .filter(|(reply, src)| {
            let want = reference.predict_source(src).map(|p| reply_bytes(&p));
            match (reply, want) {
                (Ok(r), Ok(w)) => encode(r).ok() != Some(w),
                _ => true,
            }
        })
        .count();
    if kind == Kind::Adapt {
        report.phase("probe", probes.len() as u64, probe_bad as u64);
        println!(
            "writes: {} applied in engine order: {}",
            writes.len(),
            if in_order { "yes" } else { "NO" }
        );
        if !in_order {
            report.failed += 1;
        }
    }

    let open_ok: Vec<&Sample> = open
        .samples
        .iter()
        .filter(|s| {
            matches!(s.op, Op::Predict(_)) && matches!(s.reply, Ok(Response::Predictions(_)))
        })
        .collect();
    let latency = sorted(open_ok.iter().map(|s| s.latency_ms()).collect());
    let expected_n = (rate * open_s * (1.0 - write_share)) as usize;
    let q = tail_quantile(expected_n).unwrap_or(0.5);
    println!(
        "latency: p50 {:.3} ms, tail p{} {:.3} ms ({} samples, {} beyond)",
        percentile(&latency, 0.5),
        q * 100.0,
        percentile(&latency, q),
        latency.len(),
        beyond(latency.len(), q)
    );
    report.set("latency_p50_ms", percentile(&latency, 0.5));
    report.set("latency_tail_ms", percentile(&latency, q));
    let window = seconds - open_s;
    // Only replies that pass their check count as completions: a
    // quick error reply is a failure, not throughput.
    let completed = closed
        .samples
        .iter()
        .zip(&closed_ok)
        .filter(|(s, &ok)| ok && s.done <= window)
        .count();
    report.set("ops_per_s", completed as f64 / window);
    report.set("exact_match", exact.0 as f64 / exact.1.max(1) as f64);
    let symbols: usize = initial.iter().map(Vec::len).sum();
    let suggested = setup::suggestions(&reference, pool.iter().map(String::as_str))?;
    report.set("suggest_coverage", suggested as f64 / symbols.max(1) as f64);
    report.correct = report.failed == 0;

    if tr.enabled() {
        let roundtrip = client_spans
            .get("serve.roundtrip")
            .map_or(0.0, |v| median(v));
        report.set("serve.roundtrip_ms", roundtrip);
        report.set(
            "serve.write_ms",
            client_spans.get("serve.write").map_or(0.0, |v| median(v)),
        );
        report.set(
            "loadgen.late_ms",
            mean(&open.samples.iter().map(Sample::late_ms).collect::<Vec<_>>()),
        );
        report.set(
            "loadgen.wait_ms",
            mean(&open.samples.iter().map(Sample::wait_ms).collect::<Vec<_>>()),
        );
        report.set(
            "serve.mean_batch",
            stats.requests as f64 / stats.batches.max(1) as f64,
        );
        report.set("serve.largest_batch", stats.largest_batch as f64);
        report.set("space.markers", stats.markers as f64);
        report.set("space.overlay", stats.overlay as f64);
        report.set("space.add_ms", median(&add_ms));
        report.set(
            "space.build_s",
            setup_spans
                .get("space.build")
                .map_or(0.0, |v| median(v) / 1e3),
        );
        report.set(
            "core.load_s",
            setup_spans
                .get("core.load")
                .map_or(0.0, |v| median(v) / 1e3),
        );
        if !replay::measure(&reference, &pool, Call::Predict, tr, &mut report) {
            println!("replay: does not match the real predict_source");
            report.correct = false;
        }
        let predict = report.metrics["core.predict_source_ms"];
        report.set("serve.overhead_ms", roundtrip - predict);
        // Layers this workload bypasses.
        report.set("models.train_step_ms", 0.0);
        report.set("nn.optim_step_ms", 0.0);
    }
    Ok(report)
}
