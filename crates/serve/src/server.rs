//! The accept loop: bounded admission, per-request deadlines, graceful
//! drain.
//!
//! One connection is one job on a [`ServicePool`]: the accept thread
//! never parses or renders, it only hands the socket to the pool. When
//! the pool's bounded queue is full, the accept thread itself writes a
//! `503` + `Retry-After` and closes — load-shedding costs one syscall,
//! not a worker. Every admitted request carries the wall-clock instant
//! it was accepted; a request that misses its deadline (stuck in the
//! queue, or slow to compute) is answered `504` instead of a late
//! result, so a draining or overloaded server fails crisply.
//!
//! Shutdown is cooperative: the accept loop polls a flag (set by
//! [`ServerHandle::stop`] or, in the CLI, by a SIGINT/SIGTERM handler),
//! stops accepting, then drops the pool — which drains queued and
//! in-flight jobs to completion before the listener closes.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::artifacts::ServeArtifacts;
use crate::http::{parse_error_response, parse_request, Response};
use crate::routes::{App, MetricsFormat};
use wikistale_exec::service::{ServicePool, SubmitError};
use wikistale_obs::MetricsRegistry;

/// How the server is run: pool size, admission limit, deadline, cache.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling requests (floored at 1); defaults to
    /// [`wikistale_exec::threads`].
    pub threads: usize,
    /// Admission limit: connections queued beyond the workers before
    /// the accept thread starts shedding 503s (floored at 1).
    pub queue_limit: usize,
    /// Per-request deadline, accept to response. Requests that exceed
    /// it are answered 504.
    pub deadline: Duration,
    /// Total rendered-response cache entries (0 disables).
    pub cache_entries: usize,
    /// Default `/metrics` rendering.
    pub metrics_format: MetricsFormat,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: wikistale_exec::threads(),
            queue_limit: 64,
            deadline: Duration::from_millis(2_000),
            cache_entries: 4_096,
            metrics_format: MetricsFormat::Json,
        }
    }
}

/// Accept-loop poll interval while idle (also the shutdown-detection
/// latency bound).
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Process-wide SIGINT/SIGTERM → drain, with zero dependencies: a raw
/// `signal(2)` registration flipping one static flag the accept loop
/// polls. Nothing async-signal-unsafe happens in the handler.
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Route SIGINT (2) and SIGTERM (15) to a graceful drain. No-op on
    /// non-Unix targets.
    pub fn install() {
        #[cfg(unix)]
        unsafe {
            signal(2, on_signal as extern "C" fn(i32) as usize);
            signal(15, on_signal as extern "C" fn(i32) as usize);
        }
    }

    /// Whether a shutdown signal has arrived since process start.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// A running (or runnable) server over one artifact generation.
pub struct Server {
    app: Arc<App>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// A server over `artifacts` with `config`. The artifacts are
    /// shared (`Arc`) so the caller can keep reading the loaded
    /// generation, e.g. to check served bodies against batch output.
    pub fn new(artifacts: Arc<ServeArtifacts>, config: ServerConfig) -> Server {
        let app = Arc::new(App::new(
            artifacts,
            config.cache_entries,
            config.metrics_format,
        ));
        Server {
            app,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The application layer (route dispatch without sockets).
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// A handle that, once stored to `true`, stops the accept loop at
    /// its next poll. Wire this to a signal handler for SIGTERM/SIGINT
    /// drain.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve `listener` until the shutdown flag is set, then drain.
    ///
    /// Blocks the calling thread. Returns once every admitted request
    /// has been answered.
    pub fn run(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let metrics = MetricsRegistry::global();
        let pool = ServicePool::new(
            "serve",
            self.config.threads.max(1),
            self.config.queue_limit.max(1),
        );
        while !self.shutdown.load(Ordering::SeqCst) && !signals::requested() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    metrics.counter("serve/accepted").incr();
                    // Admission check before submitting: this thread is
                    // the only submitter, and workers only *shrink* the
                    // queue, so the check cannot race into over-admission.
                    // Shedding happens right here on the accept thread —
                    // one bounded write, no worker involved.
                    if pool.queue_depth() >= pool.queue_limit() {
                        metrics.counter("serve/shed").incr();
                        shed_connection(stream);
                        continue;
                    }
                    let accepted_at = Instant::now();
                    let app = Arc::clone(&self.app);
                    let deadline = self.config.deadline;
                    if let Err(SubmitError::QueueFull { .. } | SubmitError::ShuttingDown) = pool
                        .try_submit(move || handle_connection(&app, stream, accepted_at, deadline))
                    {
                        // Unreachable given the pre-check, but never
                        // silently drop an admitted connection's count.
                        metrics.counter("serve/shed").incr();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(IDLE_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    metrics.counter("serve/accept_errors").incr();
                    std::thread::sleep(IDLE_POLL);
                }
            }
        }
        // Drain: stop accepting, finish queued + in-flight jobs.
        pool.shutdown();
        Ok(())
    }

    /// Run on a background thread; the returned handle stops and joins.
    pub fn spawn(self, listener: TcpListener) -> io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        let shutdown = self.shutdown_flag();
        let thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || self.run(listener))?;
        Ok(ServerHandle {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

/// A background server; dropping it (or calling [`ServerHandle::stop`])
/// requests shutdown and waits for the drain to finish.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with `127.0.0.1:0` ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown, drain, and join the accept thread.
    pub fn stop(mut self) -> io::Result<()> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(thread) => match thread.join() {
                Ok(result) => result,
                Err(_) => Err(io::Error::other("serve accept thread panicked")),
            },
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.stop_inner();
    }
}

/// Parse, dispatch, respond — the whole life of one admitted
/// connection, on a pool worker.
fn handle_connection(app: &App, mut stream: TcpStream, accepted_at: Instant, deadline: Duration) {
    let metrics = MetricsRegistry::global();
    let remaining = deadline.saturating_sub(accepted_at.elapsed());
    if remaining.is_zero() {
        // Starved in the queue past the deadline: don't even parse.
        metrics.counter("serve/deadline_exceeded").incr();
        write_response(&mut stream, &deadline_response(deadline));
        return;
    }
    // Socket timeouts bound reads/writes by the remaining budget so a
    // stalled client cannot pin a worker past the deadline.
    let _ = stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))));
    let _ = stream.set_write_timeout(Some(deadline.max(Duration::from_millis(1))));
    let mut reader = io::BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            metrics.counter("serve/io_errors").incr();
            return;
        }
    });
    let response = match parse_request(&mut reader) {
        Ok(request) => {
            let response = app.handle(&request);
            metrics
                .histogram("serve/latency")
                .record(accepted_at.elapsed());
            if accepted_at.elapsed() >= deadline {
                // Never deliver a late result: the client contract is
                // "an answer within the deadline, or a 504".
                metrics.counter("serve/deadline_exceeded").incr();
                deadline_response(deadline)
            } else {
                response
            }
        }
        Err(parse_error) => match parse_error_response(&parse_error) {
            Some(response) => response,
            None => return, // connection closed before a request
        },
    };
    write_response(&mut stream, &response);
}

/// Answer an over-admission connection with `503` + `Retry-After` on
/// the accept thread itself — one bounded write, no worker involved.
fn shed_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    if Response::shed().write_to(&mut stream).is_ok() {
        graceful_close(&mut stream);
    }
}

/// Half-close and drain until the client hangs up (bounded): closing a
/// socket with pending inbound bytes makes the kernel RST the
/// connection, which would discard the just-written response out of the
/// client's receive buffer. Relevant whenever the request was not fully
/// read — shed 503s, queue-starved 504s, parse-error 4xx.
fn graceful_close(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                drained += n;
                if drained >= 64 * 1024 {
                    break;
                }
            }
        }
    }
}

fn deadline_response(deadline: Duration) -> Response {
    Response::error(
        504,
        &format!("deadline of {}ms exceeded", deadline.as_millis()),
    )
}

fn write_response(stream: &mut TcpStream, response: &Response) {
    if response.write_to(stream).is_err() {
        MetricsRegistry::global().counter("serve/io_errors").incr();
    } else {
        graceful_close(stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{body_of, encode_segment, http_get, http_post, tiny_artifacts};
    use std::net::TcpListener;

    fn spawn(config: ServerConfig) -> ServerHandle {
        let server = Server::new(Arc::new(tiny_artifacts()), config);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        server.spawn(listener).unwrap()
    }

    #[test]
    fn default_threads_follow_the_exec_worker_count() {
        let _guard = wikistale_exec::override_scope(3, 0);
        assert_eq!(ServerConfig::default().threads, 3);
    }

    #[test]
    fn serves_routes_over_tcp() {
        let handle = spawn(ServerConfig::default());
        let addr = handle.addr();
        let (status, text) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("\"status\": \"ok\""));
        assert!(text.contains("Connection: close"));
        let (status, _) = http_get(addr, "/no/such/route");
        assert_eq!(status, 404);
        let (status, text) = http_post(addr, "/v1/score", "{\"granularity\": 7, \"triples\": []}");
        assert_eq!(status, 200, "{text}");
        wikistale_obs::json::validate(body_of(&text)).unwrap();
        handle.stop().unwrap();
    }

    #[test]
    fn drives_concurrent_clients_without_errors() {
        let artifacts = Arc::new(tiny_artifacts());
        let data = artifacts.data();
        let stale = format!(
            "/v1/stale/{}?window=7",
            encode_segment(data.cube.page_title(wikistale_wikicube::PageId(0)))
        );
        let field = data.index.field(0);
        let score = format!(
            "{{\"granularity\": 7, \"triples\": [{{\"entity\": {}, \"property\": {}, \"window\": 0}}]}}",
            wikistale_obs::json::escape(data.cube.entity_name(field.entity)),
            wikistale_obs::json::escape(data.cube.property_name(field.property)),
        );
        let server = Server::new(Arc::clone(&artifacts), ServerConfig::default());
        let handle = server
            .spawn(TcpListener::bind("127.0.0.1:0").unwrap())
            .unwrap();
        let addr = handle.addr();
        // Stale, score, healthz and unknown routes from 4 concurrent
        // clients: every request gets its expected status, with no
        // transport errors.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        for (status, text) in [
                            http_get(addr, &stale),
                            http_post(addr, "/v1/score", &score),
                            http_get(addr, "/healthz"),
                        ] {
                            assert_eq!(status, 200, "{text}");
                        }
                        assert_eq!(http_get(addr, "/no/such/route").0, 404);
                    }
                });
            }
        });
        handle.stop().unwrap();
    }

    #[test]
    fn sheds_503_with_retry_after_when_queue_is_full() {
        let handle = spawn(ServerConfig {
            threads: 1,
            queue_limit: 1,
            deadline: Duration::from_millis(5_000),
            ..ServerConfig::default()
        });
        let addr = handle.addr();
        // Occupy the single worker, then the single queue slot, then
        // burst: the burst must see 503s written by the accept thread.
        let results: Vec<(u16, String)> = std::thread::scope(|scope| {
            let blocker = scope.spawn(move || http_get(addr, "/healthz?delay_ms=600"));
            std::thread::sleep(Duration::from_millis(150));
            let burst: Vec<_> = (0..6)
                .map(|_| scope.spawn(move || http_get(addr, "/healthz")))
                .collect();
            let mut all: Vec<(u16, String)> =
                burst.into_iter().map(|h| h.join().unwrap()).collect();
            all.push(blocker.join().unwrap());
            all
        });
        let sheds: Vec<&(u16, String)> = results.iter().filter(|(s, _)| *s == 503).collect();
        assert!(!sheds.is_empty(), "no 503s: {results:?}");
        assert!(
            sheds
                .iter()
                .all(|(_, text)| text.contains("Retry-After: 1")),
            "503 without Retry-After"
        );
        assert!(
            results.iter().any(|(s, _)| *s == 200),
            "everything shed: {results:?}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn late_requests_get_504_not_late_results() {
        let handle = spawn(ServerConfig {
            threads: 1,
            deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        });
        let (status, text) = http_get(handle.addr(), "/healthz?delay_ms=400");
        assert_eq!(status, 504, "{text}");
        assert!(text.contains("deadline"));
        handle.stop().unwrap();
    }

    #[test]
    fn graceful_drain_completes_in_flight_requests() {
        let handle = spawn(ServerConfig {
            threads: 1,
            deadline: Duration::from_millis(5_000),
            ..ServerConfig::default()
        });
        let addr = handle.addr();
        let in_flight = std::thread::spawn(move || http_get(addr, "/healthz?delay_ms=500"));
        std::thread::sleep(Duration::from_millis(120));
        // Stop while the request is mid-sleep on the worker: stop() must
        // block until the response has been written.
        handle.stop().unwrap();
        let (status, text) = in_flight.join().unwrap();
        assert_eq!(
            status, 200,
            "in-flight request dropped during drain: {text}"
        );
        assert!(TcpStream::connect(addr).is_err(), "listener still open");
    }
}
