//! `serve_mixed`: the query daemon under a closed loop.
//!
//! One `Server` + `serve_tcp` on 127.0.0.1 with a shared cache smaller
//! than the graph, and three TCP connections. Each connection sends its
//! next request when the reply to the previous one has arrived — callers
//! that each wait for an answer, so a closed loop. One unit is one round: every connection sends its
//! lookups, then its share of the traversal pool. Every reply is checked afterwards
//! against a solo in-process `ServeCore` that saw no other client.

use crate::env::with_peak_rss;
use crate::harness::{io_metrics, open_files, preparation_metrics, secs, set_up, Ctx, Prepared};
use crate::inputs::{hub_of, serve_round, traversal_pool};
use crate::report::Outcome;
use crate::spans::{CollectSink, SpanLog};
use crate::stats::{hdd_io_s, mb, median, percentile, quartiles, range, tail_quantile};
use crate::timed_storage::TimedStorage;
use graphsd::core::GridSession;
use graphsd::graph::{CorruptionResponse, GridGraph, VerifyPolicy};
use graphsd::integrity::fnv64;
use graphsd::io::{IoStatsSnapshot, SharedStorage, Storage};
use graphsd::serve::{serve_tcp, Request, Response, ServeCore, ServeCounters, Server, TcpClient};
use graphsd::trace::{null_sink, TraceSink};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Closed-loop clients. With two, the single executor never finds two
/// traversals queued at once (while it serves one connection's, only the
/// other's can arrive), so frontier batching cannot occur; with three,
/// two can wait and share a pass. No more than that: every connection is
/// a client thread and a daemon thread on a two-core host.
const CONNECTIONS: usize = 3;

fn open_core(
    storage: SharedStorage,
    cache_bytes: u64,
    sink: Arc<dyn TraceSink>,
) -> std::io::Result<ServeCore> {
    let session = GridSession::open(storage, VerifyPolicy::Off, CorruptionResponse::FailFast)?;
    ServeCore::new(session, cache_bytes, sink)
}

/// A running daemon and its connected clients.
struct Daemon {
    server: Server,
    storage: SharedStorage,
    clients: Vec<TcpClient>,
}

impl Daemon {
    fn start(
        storage: SharedStorage,
        cache_bytes: u64,
        sink: Arc<dyn TraceSink>,
    ) -> std::io::Result<Self> {
        let server = Server::start(open_core(storage.clone(), cache_bytes, sink)?)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        // The acceptor and its per-connection threads are the program's
        // and detached by it; they end with the process.
        serve_tcp(listener, server.client())?;
        let clients = (0..CONNECTIONS)
            .map(|_| TcpClient::connect(&addr))
            .collect::<std::io::Result<_>>()?;
        Ok(Daemon {
            server,
            storage,
            clients,
        })
    }

    /// Asks the daemon to shut down and waits for its executor.
    fn stop(mut self) -> std::io::Result<ServeCounters> {
        let reply = self.clients[0].request(&Request::Shutdown)?;
        if reply != Response::ShuttingDown {
            return Err(std::io::Error::other(format!(
                "shutdown answered {reply:?}"
            )));
        }
        drop(self.clients);
        Ok(self.server.join()?.counters())
    }
}

/// One request's latency and the fingerprint of its encoded reply.
struct Answer {
    latency_s: f64,
    reply: u64,
}

struct Round {
    /// Both phases.
    wall_s: f64,
    /// Phase 1: until the last connection has its last lookup answered.
    lookup_s: f64,
    /// Phase 2: from there until the last traversal is answered.
    traversal_s: f64,
    io: IoStatsSnapshot,
    /// Per connection: the script sent and what came back.
    scripts: Vec<Vec<Request>>,
    answers: Vec<Vec<Answer>>,
}

fn is_lookup(request: &Request) -> bool {
    matches!(request, Request::Degree { .. } | Request::Neighbors { .. })
}

fn ask(client: &mut TcpClient, request: &Request) -> std::io::Result<Answer> {
    let sent = Instant::now();
    let reply = client.request(request)?;
    let latency_s = sent.elapsed().as_secs_f64();
    Ok(Answer {
        latency_s,
        reply: fnv64(&reply.encode()?),
    })
}

/// Sends `scripts[c]` down connection `c`, all connections at once:
/// first every connection's lookups, then, when the last lookup is
/// answered, every connection's traversals. The phases do not overlap,
/// so a lookup never queues behind another connection's traversal.
fn round(daemon: &mut Daemon, scripts: Vec<Vec<Request>>) -> std::io::Result<Round> {
    let before = daemon.storage.stats().snapshot();
    let start = Barrier::new(CONNECTIONS + 1);
    let between = Barrier::new(CONNECTIONS + 1);
    let (walls, answers) = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .zip(&scripts)
            .map(|(client, script)| {
                let (start, between) = (&start, &between);
                scope.spawn(move || -> std::io::Result<Vec<Answer>> {
                    let lookups = script.iter().take_while(|r| is_lookup(r)).count();
                    start.wait();
                    let mut answers = Vec::with_capacity(script.len());
                    // A connection that fails still meets the others at
                    // the barrier, so that nobody waits for ever.
                    let mut first = Ok(());
                    for request in &script[..lookups] {
                        match ask(client, request) {
                            Ok(answer) => answers.push(answer),
                            Err(e) => {
                                first = Err(e);
                                break;
                            }
                        }
                    }
                    between.wait();
                    first?;
                    for request in &script[lookups..] {
                        answers.push(ask(client, request)?);
                    }
                    Ok(answers)
                })
            })
            .collect();
        start.wait();
        let started = Instant::now();
        between.wait();
        let lookup_s = started.elapsed().as_secs_f64();
        let answers: Vec<std::io::Result<Vec<Answer>>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("a client thread panicked")))
            })
            .collect();
        let wall_s = started.elapsed().as_secs_f64();
        ((wall_s, lookup_s), answers)
    });
    let (wall_s, lookup_s) = walls;
    let answers = answers.into_iter().collect::<std::io::Result<Vec<_>>>()?;
    let io = daemon.storage.stats().snapshot().since(&before);
    Ok(Round {
        wall_s,
        lookup_s,
        traversal_s: wall_s - lookup_s,
        io,
        scripts,
        answers,
    })
}

/// A solo core on the same files: what each request answers when no
/// other client exists. Replies are remembered by encoded request.
struct Oracle {
    core: ServeCore,
    known: BTreeMap<Vec<u8>, u64>,
    /// `--sabotage`: remember every answer wrong.
    sabotage: bool,
}

impl Oracle {
    fn reply(&mut self, request: &Request) -> std::io::Result<u64> {
        let key = request.encode()?;
        if let Some(&known) = self.known.get(&key) {
            return Ok(known);
        }
        let reply = fnv64(&self.core.execute(request).encode()?) ^ u64::from(self.sabotage);
        self.known.insert(key, reply);
        Ok(reply)
    }

    fn check(&mut self, rounds: &[Round], outcome: &mut Outcome) -> std::io::Result<()> {
        for round in rounds {
            for (script, answers) in round.scripts.iter().zip(&round.answers) {
                for (request, answer) in script.iter().zip(answers) {
                    let want = self.reply(request)?;
                    outcome.check(answer.reply == want, || {
                        format!("the daemon's reply to {request:?} differs from the solo core's")
                    });
                }
            }
        }
        Ok(())
    }
}

/// Latencies of the lookups or of the traversals, and per round the
/// requests per second all connections completed in that phase.
fn phase(rounds: &[Round], lookups: bool) -> (Vec<f64>, Vec<f64>) {
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    for round in rounds {
        let before = latencies.len();
        for (script, answers) in round.scripts.iter().zip(&round.answers) {
            latencies.extend(
                script
                    .iter()
                    .zip(answers)
                    .filter(|(r, _)| is_lookup(r) == lookups)
                    .map(|(_, a)| a.latency_s),
            );
        }
        let phase_s = if lookups {
            round.lookup_s
        } else {
            round.traversal_s
        };
        rates.push((latencies.len() - before) as f64 / phase_s.max(f64::MIN_POSITIVE));
    }
    (latencies, rates)
}

/// The preparing process: graph, grid, and a daemon brought up and
/// down again. Set-up ends when the daemon answers on every connection.
pub fn prepare(ctx: &Ctx, prep: &Path) -> std::io::Result<()> {
    let (graph, generate_s) = secs(|| ctx.sizes.serve.generate(ctx.seed, 4));
    let (mut notes, _) = set_up(ctx, &graph, prep, |storage, _| {
        let mut daemon = Daemon::start(storage, ctx.sizes.cache_bytes, null_sink())?;
        for client in &mut daemon.clients {
            client.request(&Request::Ping)?;
        }
        daemon.stop().map(drop)
    })?;
    notes.set("generate_s", generate_s);
    notes.write(prep)
}

pub fn measure(ctx: &Ctx, prep: &Path) -> std::io::Result<Outcome> {
    let workload = "serve_mixed";
    let mut outcome = Outcome::new();
    let sizes = &ctx.sizes;
    let prepared = Prepared::load(prep)?;
    let setup_s = prepared.setup_s()?;
    let dir: &Path = &prepared.dir;
    let n = prepared.meta.num_vertices;
    let degrees = GridGraph::open(open_files(dir)?)?.load_out_degrees()?;
    let root = hub_of(&degrees);
    let pool = traversal_pool(&degrees);
    drop(degrees);
    let scripts =
        |round: u64| serve_round(n, &pool, ctx.seed, CONNECTIONS, round, sizes.round_lookups);
    let mut daemon = Daemon::start(open_files(dir)?, sizes.cache_bytes, null_sink())?;
    // One discarded round fills the cache and warms the connections.
    let warm = round(&mut daemon, scripts(0))?;
    let cpu_before = crate::env::cpu_s();
    let mut window = ctx.window();
    let mut rounds: Vec<Round> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    while window.next() {
        let (unit, peak_mb) =
            with_peak_rss(|| round(&mut daemon, scripts(rounds.len() as u64 + 1)));
        rounds.push(unit?);
        peaks.push(peak_mb);
    }
    let cpu_s = (crate::env::cpu_s() - cpu_before) / rounds.len() as f64;
    let counters = daemon.stop()?;

    let mut oracle = Oracle {
        core: open_core(open_files(dir)?, sizes.cache_bytes, null_sink())?,
        known: BTreeMap::new(),
        sabotage: ctx.sabotage,
    };
    oracle.check(std::slice::from_ref(&warm), &mut outcome)?;
    oracle.check(&rounds, &mut outcome)?;

    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let run_s = median(&walls);
    // Which traversals share a pass depends on arrival times, so the
    // bytes a round reads are a median, not an exact count.
    let read_mb: Vec<f64> = rounds.iter().map(|r| mb(r.io.read_bytes())).collect();
    let device_s: Vec<f64> = rounds.iter().map(|r| hdd_io_s(&r.io)).collect();
    let m = &mut outcome.metrics;
    m.set_end_to_end(
        setup_s,
        run_s,
        median(&read_mb),
        median(&device_s),
        median(&peaks),
    );
    let (lookup_s, lookup_rates) = phase(&rounds, true);
    let (traversal_s, traversal_rates) = phase(&rounds, false);
    eprintln!(
        "{workload}: {} timed rounds over {CONNECTIONS} connections, median {run_s:.4} s, quartiles {:.4?}, range {:.4?}; lookups {:.0}/s p50 {:.3} ms ({} samples); traversals {:.1}/s p50 {:.2} ms ({} samples); set-up {:.3} s",
        rounds.len(),
        quartiles(&walls),
        range(&walls),
        median(&lookup_rates),
        median(&lookup_s) * 1e3,
        lookup_s.len(),
        median(&traversal_rates),
        median(&traversal_s) * 1e3,
        traversal_s.len(),
        setup_s,
    );
    if !ctx.trace {
        return Ok(outcome);
    }

    // ---- the traced pass ----
    m.set("benchmark.units", rounds.len() as f64);
    m.set("benchmark.cpu_s", cpu_s);
    m.set("benchmark.untraced_run_s", run_s);
    m.set("gsd-serve.lookup_qps", median(&lookup_rates));
    m.set("gsd-serve.lookup_p50_ms", median(&lookup_s) * 1e3);
    m.set(
        "gsd-serve.lookup_p99_ms",
        tail_quantile(lookup_s.len()).map_or(0.0, |q| percentile(&lookup_s, q.min(0.99)) * 1e3),
    );
    m.set("gsd-serve.traversal_qps", median(&traversal_rates));
    m.set("gsd-serve.traversal_p50_ms", median(&traversal_s) * 1e3);
    m.set(
        "gsd-serve.traversal_p95_ms",
        tail_quantile(traversal_s.len())
            .map_or(0.0, |q| percentile(&traversal_s, q.min(0.95)) * 1e3),
    );
    let probes = counters.cache_hits + counters.cache_misses;
    let traversals_sent = ((rounds.len() + 1) * pool.len()) as f64;
    m.set(
        "gsd-serve.cache_hit_share",
        if probes == 0 {
            0.0
        } else {
            counters.cache_hits as f64 / probes as f64
        },
    );
    m.set("gsd-serve.blocks_read", counters.blocks_read as f64);
    m.set("gsd-serve.read_mb", mb(counters.bytes_read));
    m.set("gsd-serve.batch_passes", counters.batch_passes as f64);
    // Participations in shared passes per traversal sent: above 1 when
    // a traversal shares several of its passes (a k-hop makes k).
    m.set(
        "gsd-serve.batched_query_share",
        counters.batched_queries as f64 / traversals_sent,
    );
    preparation_metrics(&mut outcome, &prepared)?;

    // The same rounds against a daemon whose storage and events are
    // recorded.
    let log = Arc::new(SpanLog::new());
    let timed = Arc::new(TimedStorage::new(open_files(dir)?, log.clone()));
    let mut traced_daemon = Daemon::start(
        timed.clone(),
        sizes.cache_bytes,
        Arc::new(CollectSink::new(log.clone())),
    )?;
    round(&mut traced_daemon, scripts(0))?;
    log.next_run();
    let traced = round(&mut traced_daemon, scripts(1))?;
    traced_daemon.stop()?;
    oracle.check(std::slice::from_ref(&traced), &mut outcome)?;
    let m = &mut outcome.metrics;
    m.set("benchmark.traced_run_s", traced.wall_s);
    m.set(
        "benchmark.trace_overhead_ratio",
        traced.wall_s / rounds[0].wall_s,
    );
    io_metrics(m, &timed, timed.stats().snapshot().rand_read_ops);

    replays(
        dir,
        root,
        &pool,
        sizes.cache_bytes,
        &mut oracle,
        &mut outcome,
    )?;
    crate::layers::replay_grid(dir, &prepared.meta, &mut outcome.metrics)?;
    log.write_json(
        &ctx.out_dir.join(format!("trace_{workload}.json")),
        &ctx.context_json(workload, Some(rounds.len())),
    )?;
    Ok(outcome)
}

/// `gsd-serve` layer by layer: the wire codec alone, the core alone, the
/// core behind its queue, and a traversal alone.
fn replays(
    dir: &Path,
    root: u32,
    pool: &[Request],
    cache_bytes: u64,
    oracle: &mut Oracle,
    outcome: &mut Outcome,
) -> std::io::Result<()> {
    use std::hint::black_box;
    const LOOKUPS: u32 = 2_000;
    let n = oracle.core.session().meta().num_vertices;
    let lookup = |k: u32| -> Request {
        let v = (u64::from(k) * 2_654_435_761 % u64::from(n)) as u32;
        if k.is_multiple_of(2) {
            Request::Degree { v }
        } else {
            Request::Neighbors { v }
        }
    };

    // Encode + decode of a request and of its reply: a hub's neighbor
    // list and a k-hop answer, the two large reply shapes.
    let exchanges: Vec<(Request, Response)> = [
        Request::Neighbors { v: root },
        Request::KHop { source: root, k: 2 },
    ]
    .into_iter()
    .map(|request| {
        let reply = oracle.core.execute(&request);
        (request, reply)
    })
    .collect();
    const CODEC_REPS: usize = 200;
    let (result, codec_s) = secs(|| -> std::io::Result<()> {
        for _ in 0..CODEC_REPS {
            for (request, reply) in &exchanges {
                black_box(Request::decode(&request.encode()?)?);
                black_box(Response::decode(&reply.encode()?)?);
            }
        }
        Ok(())
    });
    result?;
    outcome.metrics.set(
        "gsd-serve.wire_roundtrip_us",
        codec_s * 1e6 / (CODEC_REPS * exchanges.len()) as f64,
    );

    let ((), core_s) = secs(|| {
        for k in 0..LOOKUPS {
            black_box(oracle.core.execute(&lookup(k)));
        }
    });
    outcome.metrics.set(
        "gsd-serve.core_lookup_us",
        core_s * 1e6 / f64::from(LOOKUPS),
    );

    let ((), traversal_s) = secs(|| {
        for request in pool {
            black_box(oracle.core.execute(request));
        }
    });
    outcome.metrics.set(
        "gsd-serve.core_traversal_ms",
        traversal_s * 1e3 / pool.len() as f64,
    );

    // The same lookups through the executor's queue, without TCP.
    let server = Server::start(open_core(open_files(dir)?, cache_bytes, null_sink())?)?;
    let client = server.client();
    let (result, queued_s) = secs(|| -> std::io::Result<()> {
        for k in 0..LOOKUPS {
            black_box(client.request(&lookup(k))?);
        }
        Ok(())
    });
    result?;
    outcome.metrics.set(
        "gsd-serve.inproc_lookup_us",
        queued_s * 1e6 / f64::from(LOOKUPS),
    );
    let reply = client.request(&Request::Shutdown)?;
    outcome.check(reply == Response::ShuttingDown, || {
        format!("in-process shutdown answered {reply:?}")
    });
    drop(client);
    server.join()?;
    Ok(())
}
