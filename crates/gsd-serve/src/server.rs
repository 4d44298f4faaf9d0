//! The multi-tenant front end: queue, executor thread, clients, TCP.
//!
//! This is the **only** module in `gsd-serve` that constructs
//! concurrency primitives (threads, channels) — the `#![expect]` below is
//! its exception to the `clippy.toml` ban. Everything stateful stays inside the
//! single-threaded [`ServeCore`]; this module merely moves requests to
//! it and responses back:
//!
//! * [`Server::start`] spawns the executor thread that owns the core
//!   and drains a job queue. After serving each job set it drains
//!   whatever else is already queued — that drain is the **batching
//!   window**: every traversal waiting at that moment joins one
//!   [`ServeCore::execute_batch`] call and shares its disk passes.
//! * [`Client`] is the in-process handle (used by tests and the bench
//!   harness): one request, one reply channel, one response.
//! * [`serve_tcp`] accepts connections and bridges frames to a
//!   `Client`; each connection gets its own thread, so slow readers
//!   never stall the executor.
//!
//! Shutdown is cooperative: a [`Request::Shutdown`] is answered with
//! [`Response::ShuttingDown`], then the executor flushes the trace sink
//! and returns the core to whoever joins the server (the CLI prints the
//! final stats from it). Acceptor and connection threads are detached —
//! they die with the process, which exits as soon as the daemon's main
//! thread gets the core back.

#![expect(
    clippy::disallowed_methods,
    reason = "designated concurrency module: the serve daemon's executor, acceptor and connection threads and their job channel"
)]

use crate::core::ServeCore;
use crate::wire::{read_frame, write_frame, Request, Response, HANDSHAKE};
use std::io::{BufReader, BufWriter, Error, ErrorKind, Result};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{Builder, JoinHandle};

/// One queued query and the channel its answer goes back on.
struct Job {
    request: Request,
    reply: Sender<Response>,
}

/// In-process client handle. Cloneable; every clone feeds the same
/// executor queue.
#[derive(Clone)]
pub struct Client {
    tx: Sender<Job>,
}

impl Client {
    /// Submits one request and blocks for its response.
    pub fn request(&self, request: &Request) -> Result<Response> {
        let (reply, rx) = channel();
        self.tx
            .send(Job {
                request: request.clone(),
                reply,
            })
            .map_err(|_| Error::new(ErrorKind::BrokenPipe, "server has shut down"))?;
        rx.recv()
            .map_err(|_| Error::new(ErrorKind::BrokenPipe, "server dropped the query"))
    }
}

/// A running serve executor.
pub struct Server {
    tx: Sender<Job>,
    handle: JoinHandle<ServeCore>,
}

impl Server {
    /// Spawns the executor thread around `core`.
    pub fn start(core: ServeCore) -> Result<Server> {
        let (tx, rx) = channel();
        let handle = Builder::new()
            .name("gsd-serve-exec".to_string())
            .spawn(move || executor(core, rx))?;
        Ok(Server { tx, handle })
    }

    /// A new in-process client for this server.
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.clone(),
        }
    }

    /// Waits for the executor to finish (after a shutdown request, or
    /// once every client is dropped) and returns the core with its
    /// final counters.
    pub fn join(self) -> Result<ServeCore> {
        drop(self.tx);
        self.handle
            .join()
            .map_err(|_| Error::other("serve executor panicked"))
    }
}

/// The executor loop: block for one job, drain the rest of the queue
/// (the batching window), serve admin/lookup jobs in arrival order and
/// all drained traversals as one batch.
fn executor(mut core: ServeCore, rx: Receiver<Job>) -> ServeCore {
    'serve: loop {
        let Ok(first) = rx.recv() else {
            break; // every client hung up
        };
        let mut jobs = vec![first];
        while let Ok(job) = rx.try_recv() {
            jobs.push(job);
        }

        let mut shutdown = false;
        let mut traversals: Vec<Request> = Vec::new();
        let mut traversal_replies: Vec<Sender<Response>> = Vec::new();
        for job in jobs {
            match job.request {
                Request::KHop { .. } | Request::Ppr { .. } => {
                    traversals.push(job.request);
                    traversal_replies.push(job.reply);
                }
                Request::Ping
                | Request::Stats
                | Request::Degree { .. }
                | Request::Neighbors { .. }
                | Request::Run { .. }
                | Request::Mutate { .. }
                | Request::Compact
                | Request::Shutdown => {
                    shutdown |= matches!(job.request, Request::Shutdown);
                    let response = core.execute(&job.request);
                    // A dropped reply channel just means the client went
                    // away mid-flight; the executor keeps serving.
                    let _ = job.reply.send(response);
                }
            }
        }
        if !traversals.is_empty() {
            let responses = core.execute_batch(&traversals);
            for (reply, response) in traversal_replies.into_iter().zip(responses) {
                let _ = reply.send(response);
            }
        }
        if shutdown {
            break 'serve;
        }
    }
    core.flush_trace();
    core
}

/// Accepts TCP connections on `listener` forever, one detached thread
/// per connection. Returns the acceptor's join handle; the caller
/// usually discards it and lets the thread die with the process after
/// the executor shuts down.
pub fn serve_tcp(listener: TcpListener, client: Client) -> Result<JoinHandle<()>> {
    Builder::new()
        .name("gsd-serve-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let client = client.clone();
                let _ = Builder::new()
                    .name("gsd-serve-conn".to_string())
                    .spawn(move || {
                        let _ = serve_connection(stream, &client);
                    });
            }
        })
}

/// Bridges one TCP connection to the executor: handshake, then one
/// response frame per request frame until EOF or shutdown.
fn serve_connection(stream: TcpStream, client: &Client) -> Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let hello = read_frame(&mut reader)?;
    if hello != HANDSHAKE {
        let refusal = Response::Error {
            message: "bad handshake".to_string(),
        };
        write_frame(&mut writer, &refusal.encode()?)?;
        return Err(Error::new(ErrorKind::InvalidData, "bad handshake"));
    }
    write_frame(&mut writer, HANDSHAKE)?;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(payload) => payload,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(()), // client done
            Err(e) => return Err(e),
        };
        let response = match Request::decode(&payload) {
            // A malformed frame poisons only itself, not the connection.
            Err(e) => Response::Error {
                message: format!("bad request: {e}"),
            },
            Ok(request) => match client.request(&request) {
                Ok(response) => response,
                Err(e) => Response::Error {
                    message: format!("server unavailable: {e}"),
                },
            },
        };
        let done = matches!(response, Response::ShuttingDown);
        write_frame(&mut writer, &response.encode()?)?;
        if done {
            return Ok(());
        }
    }
}

/// Client side of the TCP protocol (used by `gsd query` and the CI
/// smoke test).
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpClient {
    /// Connects and performs the handshake.
    pub fn connect(addr: &str) -> Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        let mut client = TcpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        write_frame(&mut client.writer, HANDSHAKE)?;
        let echo = read_frame(&mut client.reader)?;
        if echo != HANDSHAKE {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "server did not echo the handshake",
            ));
        }
        Ok(client)
    }

    /// Sends one request frame and reads one response frame.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        write_frame(&mut self.writer, &request.encode()?)?;
        Response::decode(&read_frame(&mut self.reader)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_core::GridSession;
    use gsd_graph::{
        preprocess, CorruptionResponse, GeneratorConfig, GraphKind, PreprocessConfig, VerifyPolicy,
    };
    use gsd_io::{MemStorage, SharedStorage};
    use std::sync::Arc;

    fn tiny_core() -> ServeCore {
        let graph = GeneratorConfig::new(GraphKind::ErdosRenyi, 60, 300, 9).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(&graph, storage.as_ref(), &PreprocessConfig::graphsd("")).unwrap();
        let session =
            GridSession::open(storage, VerifyPolicy::Off, CorruptionResponse::default()).unwrap();
        ServeCore::new(session, 1 << 20, gsd_trace::null_sink()).unwrap()
    }

    #[test]
    fn server_round_trips_and_shuts_down_cleanly() {
        let server = Server::start(tiny_core()).unwrap();
        let client = server.client();
        assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
        assert!(matches!(
            client.request(&Request::Degree { v: 3 }).unwrap(),
            Response::Degree { .. }
        ));
        assert_eq!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        let core = server.join().unwrap();
        assert!(core.counters().queries >= 2);
        // After shutdown, requests fail instead of hanging.
        assert!(client.request(&Request::Ping).is_err());
    }

    #[test]
    fn dropping_all_clients_stops_the_executor() {
        let server = Server::start(tiny_core()).unwrap();
        let core = server.join().unwrap(); // join drops the queue sender
        assert_eq!(core.counters().queries, 0);
    }

    #[test]
    fn tcp_round_trip() {
        let server = Server::start(tiny_core()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        serve_tcp(listener, server.client()).unwrap();

        let mut a = TcpClient::connect(&addr).unwrap();
        let mut b = TcpClient::connect(&addr).unwrap();
        assert_eq!(a.request(&Request::Ping).unwrap(), Response::Pong);
        let deg_a = a.request(&Request::Degree { v: 1 }).unwrap();
        let deg_b = b.request(&Request::Degree { v: 1 }).unwrap();
        assert_eq!(deg_a, deg_b);
        assert!(matches!(
            a.request(&Request::KHop { source: 0, k: 2 }).unwrap(),
            Response::Depths { .. }
        ));
        assert_eq!(
            b.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        server.join().unwrap();
    }

    #[test]
    fn malformed_tcp_frame_gets_an_error_not_a_hang() {
        let server = Server::start(tiny_core()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        serve_tcp(listener, server.client()).unwrap();

        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, HANDSHAKE).unwrap();
        assert_eq!(read_frame(&mut reader).unwrap(), HANDSHAKE);
        write_frame(&mut writer, &[250, 1, 2]).unwrap(); // unknown tag
        let resp = Response::decode(&read_frame(&mut reader).unwrap()).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
        // The connection is still usable afterwards.
        write_frame(&mut writer, &Request::Ping.encode().unwrap()).unwrap();
        let resp = Response::decode(&read_frame(&mut reader).unwrap()).unwrap();
        assert_eq!(resp, Response::Pong);
    }
}
