//! The `serve_corpus` workload: an in-process daemon on loopback TCP with
//! [`SLOTS`] warm engine slots and a verdict cache of [`CACHE_CAPACITY`]
//! entries — below the corpus's 28-problem working set, so hits, misses,
//! inserts and LRU evictions all keep happening. [`CLIENTS`] closed-loop
//! clients send seeded draws from `corpus/`; every verdict is checked
//! against the `race` column of `corpus/MANIFEST`.
//!
//! The traced run asks the daemon for each solve's span tree over the
//! public protocol (`trace: true`) — parse, presolve, and the engine race
//! with each engine's queue wait and run and the loser's cancellation —
//! and reads the cache counters from the `stats` op; the fingerprint time is measured on the client, which
//! canonicalizes and fingerprints each problem the way the daemon does.

use crate::host_speed::{HostSpeed, CALIBRATE_EVERY};
use crate::{latency_metrics, peak_rss_mb, timed_setup, Layers, Outcome, RunConfig, PER_LAYER};
use runner::Json;
use server::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use server::{Endpoint, Request, Response, ResponseStatus, Server, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Warm engine workers (one race at a time runs both engines).
pub const SLOTS: usize = 2;
/// Verdict-cache entries: below the corpus's 28 problems.
pub const CACHE_CAPACITY: usize = 16;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Per-request deadline sent with every solve.
pub const DEADLINE: Duration = Duration::from_secs(10);
/// How long past the deadline a client waits before counting the request
/// as failed.
pub const GRACE: Duration = Duration::from_secs(2);

/// One corpus problem and its expected race verdict.
#[derive(Clone, Debug)]
struct CorpusItem {
    /// File stem.
    name: String,
    /// SyGuS-IF text.
    text: String,
    /// The MANIFEST `race=` verdict.
    expected: String,
}

/// Loads `corpus/MANIFEST` and every problem with a `race` column.
///
/// # Errors
/// A message naming the missing or malformed file.
fn load_corpus(dir: &Path) -> Result<Vec<CorpusItem>, String> {
    let manifest_path = dir.join("MANIFEST");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let mut items = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let file = parts.next().expect("a non-empty line has a first field");
        let Some(expected) = parts.find_map(|p| p.strip_prefix("race=")) else {
            continue;
        };
        let path = dir.join(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        items.push(CorpusItem {
            name: file.trim_end_matches(".sl").to_string(),
            text,
            expected: expected.to_string(),
        });
    }
    if items.is_empty() {
        return Err(format!(
            "{} lists no race verdicts",
            manifest_path.display()
        ));
    }
    Ok(items)
}

/// A daemon serving on a background thread; dropping it shuts it down.
struct Daemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<server::StatsSnapshot>>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            slots: SLOTS,
            cache_capacity: CACHE_CAPACITY,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let Endpoint::Tcp(addr) = server.endpoint() else {
            return Err("the daemon did not bind TCP".into());
        };
        let thread = std::thread::spawn(move || server.run());
        let daemon = Daemon {
            addr,
            thread: Some(thread),
        };
        let mut conn = Conn::open(addr)?;
        conn.call(&Request::plain(server::Op::Ping, "ping"))?;
        Ok(daemon)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut conn) = Conn::open(self.addr) {
            let _ = conn.call(&Request::plain(server::Op::Shutdown, "bye"));
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A client connection whose reads give up at deadline + grace.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(DEADLINE + GRACE)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn { stream })
    }

    /// One request/response round trip.
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        let payload = request.to_json().to_string_pretty();
        write_frame(&mut self.stream, payload.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let frame = read_frame(&mut self.stream, DEFAULT_MAX_FRAME_BYTES)
            .map_err(|e| format!("no response by deadline + grace: {e:?}"))?
            .ok_or("connection closed")?;
        let text = std::str::from_utf8(&frame).map_err(|e| e.to_string())?;
        let json = Json::parse(text).map_err(|e| format!("{e:?}"))?;
        Response::from_json(&json)
    }
}

/// One client's measurements.
#[derive(Default)]
struct ClientLog {
    /// Reference-speed request latencies.
    latencies_ms: Vec<f64>,
    /// Wall-clock request latencies.
    raw_latencies_ms: Vec<f64>,
    /// Reference-speed time spent waiting on requests.
    busy_s: f64,
    attempted: u64,
    failed: u64,
    decided: u64,
    hits: u64,
    layers: Layers,
    /// Verdicts contradicting the MANIFEST.
    mismatches: Vec<String>,
    /// Error responses and answers missing after deadline + grace.
    notes: Vec<String>,
}

/// One closed-loop client: seeded draws until `seconds` pass.
fn client(addr: SocketAddr, corpus: &[CorpusItem], seed: u64, config: &RunConfig) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = gen::GenRng::from_seed(seed);
    let mut conn = Conn::open(addr);
    let mut speed = HostSpeed::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < config.seconds {
        let scale = speed.factor_within(CALIBRATE_EVERY);
        let item = &corpus[rng.index(corpus.len())];
        log.attempted += 1;
        let mut request = Request::solve(item.name.clone(), item.text.clone())
            .with_deadline_ms(DEADLINE.as_millis() as u64);
        if config.trace {
            request = request.with_trace();
            fingerprint_like_the_daemon(&item.text, &mut log.layers);
        }
        let t0 = Instant::now();
        let response = match conn.as_mut() {
            Ok(c) => c.call(&request),
            Err(e) => Err(e.clone()),
        };
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        log.latencies_ms.push(ms * scale);
        log.raw_latencies_ms.push(ms);
        log.busy_s += ms * scale / 1000.0;
        match &response {
            Ok(r) if r.status == ResponseStatus::Ok => {
                let verdict = r.verdict.as_deref().unwrap_or("");
                let in_time = ms <= DEADLINE.as_secs_f64() * 1000.0;
                if matches!(verdict, "unrealizable" | "realizable") && in_time {
                    log.decided += 1;
                }
                log.hits += u64::from(r.cached);
                if let Some(trace) = &r.trace {
                    read_spans(trace, &mut log.layers);
                }
                if verdict != item.expected {
                    log.failed += 1;
                    log.mismatches.push(format!(
                        "serve_corpus {}: verdict {verdict}, MANIFEST race={}",
                        item.name, item.expected
                    ));
                }
            }
            Ok(r) => {
                log.failed += 1;
                log.notes.push(format!(
                    "serve_corpus {}: status {}: {:?}",
                    item.name,
                    r.status.as_str(),
                    r.error
                ));
            }
            Err(e) => {
                log.failed += 1;
                log.notes.push(format!("serve_corpus {}: {e}", item.name));
                // The connection may still deliver the late answer: start a
                // fresh one.
                conn = Conn::open(addr);
            }
        }
    }
    log
}

/// Parse, canonicalize and fingerprint as the daemon does on each solve;
/// only the canonicalize + fingerprint part is timed.
fn fingerprint_like_the_daemon(text: &str, layers: &mut Layers) {
    if let Ok(problem) = sygus::parser::parse_problem(text, "request") {
        layers.time("sygus.fingerprint_ms", || {
            let canonical = sygus::parser::problem_to_sygus(&problem, "f");
            std::hint::black_box((canonical, problem.fingerprint()))
        });
    }
}

/// Folds one response's span tree into the layers. Besides the layer
/// times it counts, under names that are not metrics, the requests that
/// ran the presolve (`presolved`), were settled by it (`settled`), raced
/// the engines (`raced`) and cancelled a loser (`cancels`), and sums the
/// engines' run times (`engine_ms`) and the loser's (`loser_ms`).
fn read_spans(trace: &obs::Trace, layers: &mut Layers) {
    use obs::trace::phase;
    let ms = |span: &obs::Span| span.dur_us as f64 / 1000.0;
    let (mut lane, mut presolved) = ("", false);
    let (mut winner, mut race_ms, mut runs) = ("", None, [0.0f64; 2]);
    for span in &trace.spans {
        match span.phase.as_str() {
            phase::PARSE => layers.add("sygus.parse_ms", ms(span)),
            phase::PRESOLVE => {
                presolved = true;
                layers.add("presolved", 1.0);
                layers.add("analyze.presolve_ms", ms(span));
            }
            phase::RACE => {
                race_ms = Some(ms(span));
                winner = span.detail.strip_prefix("winner ").unwrap_or("");
            }
            phase::NAY | phase::NOPE => lane = span.phase.as_str(),
            phase::QUEUE => layers.add("runner.queue_wait_ms", ms(span)),
            phase::RUN => runs[usize::from(lane == phase::NOPE)] = ms(span),
            phase::CANCEL => {
                layers.add("cancels", 1.0);
                layers.add("portfolio.loser_cancel_ms", ms(span));
            }
            _ => {}
        }
    }
    let [nay, nope] = runs;
    match race_ms {
        None if presolved => layers.add("settled", 1.0),
        None => {}
        Some(race_ms) => {
            layers.add("raced", 1.0);
            layers.add("portfolio.nay_ms", nay);
            layers.add("portfolio.nope_ms", nope);
            // Race wall time outside both engine bodies: warm-pool
            // queueing, scheduling and join.
            layers.add("portfolio.queue_ms", (race_ms - nay.max(nope)).max(0.0));
            layers.add("engine_ms", nay + nope);
            match winner {
                "nay" => {
                    layers.add("portfolio.nay_wins", 1.0);
                    layers.add("loser_ms", nope);
                }
                "nope" => {
                    layers.add("portfolio.nope_wins", 1.0);
                    layers.add("loser_ms", nay);
                }
                _ => {}
            }
        }
    }
}

/// Runs the workload from the repository root (it reads `corpus/`).
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (setup_samples, ready) = timed_setup(&mut HostSpeed::new(), || {
        let corpus = load_corpus(Path::new("corpus"))?;
        Ok::<_, String>((corpus, Daemon::start()?))
    });
    let setup_s = crate::stats::median(&setup_samples).unwrap_or(0.0);
    out.metrics.insert("setup_s", setup_s);
    let (corpus, daemon) = match ready {
        Ok(ready) => ready,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };

    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let corpus = &corpus;
                let seed = gen::instance_seed(config.seed, c);
                scope.spawn(move || client(daemon.addr, corpus, seed, config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats = Conn::open(daemon.addr)
        .and_then(|mut c| c.call(&Request::plain(server::Op::Stats, "stats")))
        .map(|r| r.stats.unwrap_or_default());
    drop(daemon);

    let mut latencies = Vec::new();
    let mut raw_latencies = Vec::new();
    // Closed-loop clients: each one's requests over its reference-speed
    // busy time, summed.
    let mut throughput = 0.0;
    let (mut decided, mut hits) = (0u64, 0u64);
    let mut layers = Layers::default();
    for log in logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        decided += log.decided;
        hits += log.hits;
        latencies.extend(log.latencies_ms);
        raw_latencies.extend(log.raw_latencies_ms);
        if log.busy_s > 0.0 {
            throughput += log.attempted as f64 / log.busy_s;
        }
        layers.merge_scaled(&log.layers, 1.0);
        for m in log.mismatches {
            out.fail(m);
        }
        out.notes.extend(log.notes);
    }
    let attempted = out.attempted.max(1) as f64;
    let raw_sorted = crate::stats::sorted(&raw_latencies);
    let raw_at = |q| crate::stats::quantile(&raw_sorted, q).unwrap_or(0.0);
    out.notes.push(format!(
        "{} requests from {CLIENTS} clients in {elapsed:.2} s, {hits} cache hits; \
         wall-clock: {:.2}/s, p50 {:.4} ms, p95 {:.4} ms",
        out.attempted,
        out.attempted as f64 / elapsed,
        raw_at(0.5),
        raw_at(0.95),
    ));
    if config.trace {
        let stats = match stats {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("stats op: {e}"));
                server::StatsSnapshot::default()
            }
        };
        // Means per request that reached the layer.
        let per = |name: &str, count: &str| layers.get(name) / layers.get(count).max(1.0);
        for (name, _) in PER_LAYER {
            let value = match *name {
                "trace.total_ms" => crate::stats::median(&latencies).unwrap_or(0.0),
                "sygus.parse_ms" | "sygus.fingerprint_ms" => layers.get(name) / attempted,
                "analyze.presolve_ms" => per(name, "presolved"),
                "analyze.presolve_settled_share" => per("settled", "presolved"),
                "runner.queue_wait_ms"
                | "portfolio.nay_ms"
                | "portfolio.nope_ms"
                | "portfolio.queue_ms" => per(name, "raced"),
                "portfolio.loser_cancel_ms" => per(name, "cancels"),
                "portfolio.loser_share" => per("loser_ms", "engine_ms"),
                "portfolio.nay_wins" | "portfolio.nope_wins" => layers.get(name),
                "server.hit_share" => hits as f64 / attempted,
                "server.misses" => stats.cache_misses as f64,
                "server.evictions" => stats.cache_evictions as f64,
                "server.shed" => stats.shed as f64,
                _ => 0.0,
            };
            out.metrics.insert(name, value);
        }
    } else {
        out.metrics
            .insert("wall_s", corpus.len() as f64 / throughput);
        out.metrics.insert("throughput_per_s", throughput);
        latency_metrics(&mut out, &latencies);
        out.metrics
            .insert("decided_share", decided as f64 / attempted);
        out.metrics
            .insert("ok_share", 1.0 - out.failed as f64 / attempted);
        out.metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    out
}
