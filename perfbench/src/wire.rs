//! `wire-single-open`: an open loop of single-object ops over one
//! loopback TCP connection — Poisson arrivals at 2,000 req/s against
//! `ServerConfig::default()`, one sender thread and one receiver thread.

use crate::cli::Workload;
use crate::closed::{self, Batch, Pass, StealMarks};
use crate::inputs::{self, Case, Checked};
use crate::model::{self, MODEL};
use crate::probe::{self, SingleProbe};
use crate::report::Metrics;
use crate::schedule;
use crate::stats;
use crate::trace::{Shares, Tracer};
use factorhd_engine::{metrics, ModelRegistry};
use factorhd_serve::protocol::{
    append_frame, decode_response, encode_request, read_frame, Request, Response,
    DEFAULT_MAX_FRAME_BYTES,
};
use factorhd_serve::{Client, Server, ServerConfig, ServingStats};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Offered load, requests per second.
pub const RATE_PER_S: f64 = 2000.0;
/// Distinct requests in the op pool; arrival `i` sends pool entry
/// `i % POOL` under request id `i`.
pub const POOL: usize = 1024;
/// Shortest untraced window: long enough that the quietest quarter of
/// the steal windows holds the 1,000 samples a p99 needs.
pub const MIN_SECONDS: u64 = 3;
/// Length of the untimed open-loop pass before the measured one (its
/// outputs are still checked): the first few hundred ms of traffic after
/// set-up have twice the p99 of the rest.
pub const WARMUP_S: f64 = 2.0;
/// How long a silent socket may stall a pass before it is abandoned.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A served model behind a running server, with the op pool.
pub struct Wire {
    /// The registry the server serves.
    pub registry: Arc<ModelRegistry>,
    /// The server under test.
    pub server: Server,
    /// The op pool.
    pub cases: Vec<Case>,
    /// Median set-up time: load + install + `Server::start` + first
    /// answered `Ping`.
    pub setup_s: f64,
}

impl Wire {
    /// Builds the pool, then sets up [`model::SETUP_REPS`] times.
    pub fn new(seed: u64) -> Result<Wire, String> {
        let artifact = model::artifact();
        let (setup_s, (registry, server)) = model::timed_setup(|| {
            let registry = Arc::new(ModelRegistry::new());
            model::load(&registry, &artifact);
            let server = Server::start(
                Arc::clone(&registry),
                "127.0.0.1:0",
                ServerConfig::default(),
            )
            .expect("the server binds a loopback port");
            Client::connect(server.local_addr())
                .and_then(|mut client| client.ping())
                .expect("the fresh server answers a ping");
            (registry, server)
        });
        let handle = registry.get(MODEL).map_err(|e| e.to_string())?;
        model::warm(handle.state());
        let cases = inputs::wire_cases(handle.state().taxonomy(), seed, POOL);
        Ok(Wire {
            registry,
            server,
            cases,
            setup_s,
        })
    }

    /// Pre-flight: the first 64 pool ops (one full batcher batch) through
    /// `execute_batch` and `execute_sequential` must agree bit for bit;
    /// their outputs are also checked against the truth.
    pub fn preflight(&self) -> Result<Pass, String> {
        let batch = Batch::new(MODEL, self.cases[..64].to_vec());
        let results = closed::preflight(&self.registry, &batch, |ops| {
            self.registry.execute_sequential(ops)
        })?;
        let handle = self.registry.get(MODEL).map_err(|e| e.to_string())?;
        let mut pass = Pass::default();
        for ((result, (_, op)), truth) in results.iter().zip(&batch.ops).zip(&batch.truths) {
            let output = result.as_ref().expect("pre-flight ops succeeded");
            match inputs::check_against_reference(output, op, truth, handle.state()) {
                Checked::Hit => pass.score(true),
                Checked::Miss => pass.score(false),
                Checked::Wrong => pass.wrong(format!("pre-flight {:?} output", op.kind())),
            }
        }
        Ok(pass)
    }

    /// One open-loop pass of `seconds` on the schedule of `seed`.
    pub fn open_loop(&self, seed: u64, seconds: f64, traced: bool) -> Result<OpenLoop, String> {
        let offsets = schedule::poisson_offsets(RATE_PER_S, seconds, seed);
        let n = offsets.len();
        let handle = self.registry.get(MODEL).map_err(|e| e.to_string())?;
        let state = handle.state();
        let io = |e: std::io::Error| format!("load generator I/O: {e}");
        let stream = TcpStream::connect(self.server.local_addr()).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
        let read_half = stream.try_clone().map_err(io)?;
        let origin = Instant::now();
        // A short lead so both threads are running before the first
        // arrival is due.
        let start = origin + Duration::from_millis(20);
        let cases = &self.cases;
        let offsets = &offsets;

        thread::scope(|scope| {
            let receiver = scope.spawn(move || -> Result<(Pass, Option<Tracer>), String> {
                let mut reader = BufReader::with_capacity(1 << 16, read_half);
                let mut pass = Pass {
                    attempted: n as u64,
                    latencies_ms: Vec::with_capacity(n),
                    due_s: Vec::with_capacity(n),
                    ..Pass::default()
                };
                let mut tracer = traced.then(|| Tracer::new(origin));
                let mut seen = vec![false; n];
                let mut last = start;
                for _ in 0..n {
                    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
                        .map_err(|e| format!("reading a response: {e}"))?
                        .ok_or("the server closed the connection mid-pass")?;
                    let received = Instant::now();
                    last = received;
                    let (id, response) =
                        decode_response(&payload).map_err(|e| format!("bad response: {e}"))?;
                    let i = usize::try_from(id).ok().filter(|&i| i < n && !seen[i]);
                    let i = i.ok_or(format!("unexpected response id {id}"))?;
                    seen[i] = true;
                    pass.latencies_ms
                        .push(schedule::latency_since_due(start, offsets[i], received));
                    pass.due_s.push(offsets[i].as_secs_f64());
                    let case = &cases[i % POOL];
                    match response {
                        Response::Output(output) => {
                            match inputs::check_against_reference(
                                &output,
                                &case.op,
                                &case.truth,
                                state,
                            ) {
                                Checked::Hit => {
                                    pass.ok += 1;
                                    pass.score(true);
                                }
                                Checked::Miss => {
                                    pass.ok += 1;
                                    pass.score(false);
                                }
                                Checked::Wrong => {
                                    pass.failed += 1;
                                    pass.wrong(format!("request {i}: {:?} output", case.op.kind()));
                                }
                            }
                        }
                        Response::Error { code, message } => {
                            pass.fail(format!("request {i}: {code:?}: {message}"));
                        }
                        other => {
                            pass.fail(format!("request {i}: wrong response kind"));
                            pass.wrong(format!("request {i} answered {other:?}"));
                        }
                    }
                    if let Some(tracer) = tracer.as_mut() {
                        tracer.record("gen.receive", id, received, Instant::now());
                    }
                }
                pass.window_s = (last - start).as_secs_f64();
                Ok((pass, tracer))
            });

            let mut sender_tracer = traced.then(|| Tracer::new(origin));
            let mut writer = &stream;
            let mut steal = StealMarks::start();
            let sent = schedule::drive(
                start,
                offsets,
                |i| {
                    steal.enter(offsets[i].as_secs_f64());
                    let prepared = Instant::now();
                    let payload = encode_request(
                        i as u64,
                        &Request::Op {
                            model: MODEL.to_owned(),
                            op: cases[i % POOL].op.clone(),
                            deadline: None,
                        },
                    );
                    let mut frame = Vec::with_capacity(payload.len() + 4);
                    append_frame(&mut frame, &payload);
                    (frame, prepared, Instant::now())
                },
                |i, (frame, prepared, ready)| {
                    let sending = Instant::now();
                    writer.write_all(frame)?;
                    if let Some(tracer) = sender_tracer.as_mut() {
                        tracer.record("gen.prepare", i as u64, *prepared, *ready);
                        tracer.record("gen.send", i as u64, sending, Instant::now());
                    }
                    Ok(())
                },
            );
            let received = receiver
                .join()
                .map_err(|_| "the receiver thread panicked".to_owned())?;
            let lags = sent.map_err(io)?;
            let (mut pass, receiver_tracer) = received?;
            pass.window_steal = steal.finish();
            pass.gen_ms = lags;
            pass.wall_s = origin.elapsed().as_secs_f64();
            let tracer = match (sender_tracer, receiver_tracer) {
                (Some(mut sender), Some(receiver)) => {
                    sender.absorb(receiver);
                    Some(sender)
                }
                _ => None,
            };
            Ok(OpenLoop { pass, tracer })
        })
    }
}

/// The untraced run: set-up, pre-flight, then one open-loop pass of
/// `seconds`. Returns the pass and the set-up time.
pub fn run(seed: u64, seconds: f64) -> Result<(Pass, f64), String> {
    if seconds < MIN_SECONDS as f64 {
        return Err(format!("wire-single-open needs --seconds ≥ {MIN_SECONDS}"));
    }
    let wire = Wire::new(seed)?;
    let mut checks = wire.preflight()?;
    checks.absorb_checks(wire.open_loop(seed, WARMUP_S, false)?.pass);
    let mut pass = wire.open_loop(seed, seconds, false)?.pass;
    pass.absorb_checks(checks);
    Ok((pass, wire.setup_s))
}

/// One open-loop pass.
pub struct OpenLoop {
    /// Its tallies.
    pub pass: Pass,
    /// Its spans, when traced.
    pub tracer: Option<Tracer>,
}

/// A copy of a server's counters and latency buckets.
pub struct ServerMark {
    stats: ServingStats,
    e2e_buckets: Vec<u64>,
}

impl ServerMark {
    /// Marks `server` now.
    pub fn of(server: &Server) -> ServerMark {
        ServerMark {
            stats: server.stats(),
            e2e_buckets: server.metrics().e2e_latency_snapshot().buckets,
        }
    }
}

/// Median round trip of 201 `Ping`s on a fresh connection: the
/// transport and framing cost of a request the server answers inline,
/// without the batcher.
pub fn ping_rtt_ms(server: &Server) -> Result<f64, String> {
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut rtts = Vec::with_capacity(201);
    for _ in 0..201 {
        let start = Instant::now();
        client.ping().map_err(|e| e.to_string())?;
        rtts.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&rtts))
}

/// Writes the `serve.*` metrics from the traffic between two marks of
/// one server. `client` holds the client-side latencies (sorted, ms),
/// `outside_ms` the measured time a request spends outside the server
/// (generator lag plus a `Ping` round trip), `engine_ms` the engine's
/// batch time at the observed batch size and `codec_us` the (client,
/// server) codec cost per request. Returns the server-side p50 in ms.
///
/// The server's histogram resolves a percentile only to a 2× bucket.
/// The estimate is the client's percentile minus `outside_ms` when that
/// falls inside the bucket, otherwise the quantile's rank position
/// interpolated linearly across the bucket.
pub fn serve_metrics(
    before: &ServerMark,
    after: &ServerMark,
    client: &[f64],
    outside_ms: f64,
    engine_ms: f64,
    codec_us: (f64, f64),
    metrics: &mut Metrics,
) -> Result<f64, String> {
    let buckets: Vec<u64> = after
        .e2e_buckets
        .iter()
        .zip(&before.e2e_buckets)
        .map(|(a, b)| a - b)
        .collect();
    let server_at = |p: f64| -> Result<f64, String> {
        let (lo, hi, fraction) = stats::log2_histogram_bucket(&buckets, p)?;
        let (lo, hi) = (lo / 1e6, hi / 1e6);
        let estimate = stats::percentile(client, p)? - outside_ms;
        Ok(if (lo..hi).contains(&estimate) {
            estimate
        } else {
            lo + fraction * (hi - lo)
        })
    };
    let server_p50 = server_at(0.5)?;
    let (a, b) = (&after.stats, &before.stats);
    let requests = a.requests_received - b.requests_received;
    let batches = a.batches_dispatched - b.batches_dispatched;
    metrics.set("serve.server_e2e_p50_ms", server_p50);
    metrics.set("serve.server_e2e_p99_ms", server_at(0.99)?);
    metrics.set(
        "serve.outside_server_p50_ms",
        stats::percentile(client, 0.5)? - server_p50,
    );
    metrics.set(
        "serve.batch_size_mean",
        requests as f64 / batches.max(1) as f64,
    );
    metrics.set(
        "serve.queue_wait_est_p50_ms",
        server_p50 - engine_ms - codec_us.1 / 1e3,
    );
    metrics.set("serve.codec_us_per_frame", codec_us.0 + codec_us.1);
    metrics.set("serve.shed", (a.requests_shed - b.requests_shed) as f64);
    metrics.set(
        "serve.deadline_expired",
        (a.deadline_expired - b.deadline_expired) as f64,
    );
    Ok(server_p50)
}

/// Engine time of `cases` in batches of `size`, run directly through
/// `execute_batch`: per-op samples (each op of a batch gets the batch's
/// time). `replay` gets each batch's cases right after the call, to time
/// the layer below on them. Returns the samples and the batch count.
pub fn direct_batches(
    registry: &ModelRegistry,
    cases: &[Case],
    size: usize,
    mut replay: impl FnMut(&[Case]),
) -> Result<(Vec<f64>, usize), String> {
    let count = (1100 / size).max(50) + 1;
    let mut samples = Vec::with_capacity(count * size);
    for j in 0..count {
        let members: Vec<Case> = (0..size)
            .map(|t| cases[(j * size + t) % cases.len()].clone())
            .collect();
        let batch = Batch::new(MODEL, members.clone());
        let start = Instant::now();
        let results = registry.execute_batch(&batch.ops);
        let took = start.elapsed().as_secs_f64() * 1e3;
        if let Some(err) = results.iter().find_map(|r| r.as_ref().err()) {
            return Err(format!("direct batch failed: {err}"));
        }
        samples.extend(std::iter::repeat_n(took, size));
        replay(&members);
    }
    Ok((samples, count))
}

/// `serve.*` metrics for a workload that does not go through the server:
/// a fresh server over `registry`, driven closed-loop by one client with
/// 1,100 ops of the `wire-single-open` pool of `seed`.
pub fn serve_side(
    registry: &Arc<ModelRegistry>,
    seed: u64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    if registry.get(MODEL).is_err() {
        model::load(registry, &model::artifact());
    }
    let handle = registry.get(MODEL).map_err(|e| e.to_string())?;
    let state = handle.state();
    model::warm(state);
    let cases = inputs::wire_cases(state.taxonomy(), seed, POOL);
    let server = Server::start(Arc::clone(registry), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let before = ServerMark::of(&server);
    let mut latencies = Vec::with_capacity(1100);
    for case in cases.iter().cycle().take(1100) {
        let start = Instant::now();
        let output = client.run(MODEL, &case.op).map_err(|e| e.to_string())?;
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        if output.kind() != case.op.kind() {
            return Err("the serve probe got a wrong-kind output".into());
        }
    }
    let after = ServerMark::of(&server);
    let outside = ping_rtt_ms(&server)?;
    drop(client);
    server.shutdown();
    let (mut engine, _) = direct_batches(registry, &cases, 1, |_| {})?;
    stats::sort(&mut engine);
    stats::sort(&mut latencies);
    serve_metrics(
        &before,
        &after,
        &latencies,
        outside,
        stats::percentile(&engine, 0.5)?,
        probe::codec_us(state, &cases[..256]),
        metrics,
    )?;
    Ok(())
}

/// The traced run: see the README's "Traced pass" section.
pub fn traced(
    seed: u64,
    seconds: f64,
    metrics_out: &mut Metrics,
) -> Result<(Pass, Tracer, Shares), String> {
    let wire = Wire::new(seed)?;
    let mut checks = wire.preflight()?;
    let reference = wire.open_loop(seed, (seconds / 2.0).max(1.0), false)?;
    let reference_ops = reference.pass.ops_per_s();
    checks.absorb_checks(reference.pass);

    metrics::reset();
    let before = ServerMark::of(&wire.server);
    let OpenLoop { mut pass, tracer } = wire.open_loop(seed, seconds, true)?;
    let after = ServerMark::of(&wire.server);
    probe::stage_shares(&wire.registry, metrics_out);
    let tracer = tracer.expect("traced pass records spans");

    let handle = wire.registry.get(MODEL).map_err(|e| e.to_string())?;
    let state = handle.state();
    let requests = after.stats.requests_received - before.stats.requests_received;
    let batches = (after.stats.batches_dispatched - before.stats.batches_dispatched).max(1);
    let size = ((requests as f64 / batches as f64).round() as usize).max(1);
    let mut single = SingleProbe::new(state);
    let (mut engine_samples, batches) =
        direct_batches(&wire.registry, &wire.cases, size, |members| {
            for case in members {
                single.add(case);
            }
        })?;
    let engine_mean = stats::mean(&engine_samples);
    stats::sort(&mut engine_samples);
    let engine_p50 = stats::percentile(&engine_samples, 0.5)?;
    metrics_out.set("engine.batch_ms_p50", engine_p50);
    metrics_out.set(
        "engine.batch_ms_p99",
        stats::percentile(&engine_samples, 0.99)?,
    );
    let core_batch = single.core_ms / batches as f64;
    let hdc_batch = single.hdc_ms / batches as f64;
    metrics_out.set("engine.self_ms_per_batch", engine_mean - core_batch);
    metrics_out.set(
        "engine.lane_utilization",
        core_batch / (rayon::current_num_threads() as f64 * engine_mean),
    );
    single.write(metrics_out);

    let codec = probe::codec_us(state, &wire.cases[..256]);
    let mut client = pass.latencies_ms.clone();
    stats::sort(&mut client);
    let client_p50 = stats::percentile(&client, 0.5)?;
    let mut lags = pass.gen_ms.clone();
    stats::sort(&mut lags);
    let outside = stats::percentile(&lags, 0.5)? + ping_rtt_ms(&wire.server)?;
    let server_p50 = serve_metrics(
        &before,
        &after,
        &client,
        outside,
        engine_p50,
        codec,
        metrics_out,
    )?;
    metrics_out.set("gen.lag_p99_ms", stats::percentile(&lags, 0.99)?);
    metrics_out.set("trace.overhead_ratio", pass.ops_per_s() / reference_ops);

    // Per-request attribution at the median: whole = client p50.
    let gen = stats::percentile(&lags, 0.5)? + codec.0 / 1e3;
    let serve = server_p50 - engine_p50;
    let engine = engine_p50 - core_batch;
    let core = core_batch - hdc_batch;
    let shares = Shares {
        whole_ms: client_p50,
        gen,
        serve,
        engine,
        core,
        learn: 0.0,
        hdc: hdc_batch,
    };
    shares.write(metrics_out);

    probe::side_probes(
        &wire.registry,
        state,
        seed,
        Workload::WireSingleOpen,
        metrics_out,
    )?;
    pass.absorb_checks(checks);
    Ok((pass, tracer, shares))
}
