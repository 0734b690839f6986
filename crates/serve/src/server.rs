//! The TCP layer: accept loops, the bounded worker pool, load
//! shedding, timeouts, and graceful shutdown.
//!
//! Concurrency model (in the spirit of `bgpsim::par`): a fixed pool of
//! worker threads pulls accepted connections from one bounded queue.
//! The accept threads never queue unboundedly — a connection arriving
//! while `queued + in-flight` is at the cap is answered `503 Service
//! Unavailable` and closed immediately (load shedding beats silent
//! queue growth: the client learns to back off instead of timing out).
//! Per-connection read/write timeouts bound how long a slow or silent
//! peer can hold a worker. Shutdown stops accepting, drains queued and
//! in-flight connections, and joins every thread.

use crate::app::App;
use crate::http::{read_request, HttpError, Response};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address for the HTTP listener; port 0 binds an ephemeral port.
    pub http_addr: SocketAddr,
    /// Address for the port-43-style WHOIS listener; `None` disables
    /// it. (Binding literal port 43 needs privileges; tests and the
    /// CLI use an ephemeral port.)
    pub whois_addr: Option<SocketAddr>,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Cap on queued + in-flight connections; beyond it new
    /// connections are shed with 503.
    pub max_connections: usize,
    /// Per-connection read timeout (also bounds keep-alive idling).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            http_addr: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            whois_addr: None,
            workers: 4,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Which protocol a queued connection speaks.
#[derive(Clone, Copy, Debug)]
enum Proto {
    Http,
    Whois,
}

/// State shared by accept threads and workers.
struct Shared {
    app: Arc<App>,
    config: ServerConfig,
    queue: Mutex<VecDeque<(Proto, TcpStream)>>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    /// Connections currently held by workers (the queue length is
    /// read under its own lock).
    in_flight: AtomicUsize,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaks the listener threads until process exit; call `shutdown` for
/// a clean drain-and-join.
pub struct Server {
    shared: Arc<Shared>,
    http_addr: SocketAddr,
    whois_addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind the listeners and spawn the accept threads and worker
    /// pool. Returns once the sockets are live (requests may arrive
    /// immediately after).
    pub fn start(app: App, config: ServerConfig) -> io::Result<Server> {
        app.pool
            .workers
            .store(config.workers.max(1), Ordering::SeqCst);
        app.pool
            .max_connections
            .store(config.max_connections, Ordering::SeqCst);
        let http_listener = TcpListener::bind(config.http_addr)?;
        let http_addr = http_listener.local_addr()?;
        let whois = match config.whois_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                let a = l.local_addr()?;
                Some((l, a))
            }
            None => None,
        };
        let whois_addr = whois.as_ref().map(|(_, a)| *a);

        let shared = Arc::new(Shared {
            app: Arc::new(app),
            config: config.clone(),
            queue: Mutex::new(VecDeque::new()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
        });

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                accept_loop(&shared, http_listener, Proto::Http)
            }));
        }
        if let Some((listener, _)) = whois {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                accept_loop(&shared, listener, Proto::Whois)
            }));
        }
        for _ in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }

        Ok(Server {
            shared,
            http_addr,
            whois_addr,
            threads,
        })
    }

    /// The bound HTTP address (resolves port 0 to the real port).
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// The bound WHOIS address, if the listener was enabled.
    pub fn whois_addr(&self) -> Option<SocketAddr> {
        self.whois_addr
    }

    /// The shared application (metrics access for tests/diagnostics).
    pub fn app(&self) -> &App {
        &self.shared.app
    }

    /// Graceful shutdown: stop accepting, serve everything already
    /// queued or in flight, then join every thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept threads: a throwaway connection makes
        // `accept` return so the loop can observe the flag.
        let _ = TcpStream::connect(self.http_addr);
        if let Some(addr) = self.whois_addr {
            let _ = TcpStream::connect(addr);
        }
        self.shared.wakeup.notify_all();
        for t in self.threads.drain(..) {
            // A worker that panicked already poisoned nothing we read
            // after this point; surface it.
            // lint:allow(L2): propagating worker panics at shutdown is the point
            t.join().expect("server thread panicked");
        }
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener, proto: Proto) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wakeup connection (or a raced client) is dropped
        }
        shared.app.metrics.accepted.inc();

        // A worker panic poisons the queue lock but the queue itself
        // stays coherent; recover so accepting continues.
        let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        let load = queue.len() + shared.in_flight.load(Ordering::SeqCst);
        if load >= shared.config.max_connections {
            drop(queue);
            shed(shared, stream, proto);
            continue;
        }
        queue.push_back((proto, stream));
        shared.app.pool.queued.store(queue.len(), Ordering::SeqCst);
        drop(queue);
        shared.app.metrics.active.add(1);
        shared.wakeup.notify_one();
    }
}

/// Refuse a connection over the cap: one best-effort 503 (HTTP) or
/// `%ERROR` line (WHOIS), then close. The write gets a short timeout
/// so a non-reading client cannot stall the accept thread.
fn shed(shared: &Shared, mut stream: TcpStream, proto: Proto) {
    shared.app.pool.shed_total.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    match proto {
        Proto::Http => {
            // Shed responses still get an id: the access log and the
            // client agree on which request was refused.
            let req_id = shared.app.next_request_id();
            shared.app.metrics.count_route_response("other", 503);
            obs::flight_event!(obs::Level::Warn, "http_shed", id = req_id, status = 503u64);
            let _ = Response::error(503, "connection cap reached, try again")
                .with_header("Retry-After", "1".to_string())
                .with_header("X-Request-Id", format!("{req_id:016x}"))
                .write_to(&mut stream, false);
        }
        Proto::Whois => {
            shared.app.metrics.count_response(503);
            let _ = stream.write_all(b"%ERROR:306: connections exceeded\n");
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.app.pool.queued.store(queue.len(), Ordering::SeqCst);
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.wakeup.wait(queue).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some((proto, stream)) = job else {
            return; // shutdown with an empty queue: fully drained
        };
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        shared.app.pool.in_flight.fetch_add(1, Ordering::SeqCst);
        let result = match proto {
            Proto::Http => handle_http_connection(shared, stream),
            Proto::Whois => handle_whois_connection(shared, stream),
        };
        let _ = result; // transport errors close the connection, nothing more
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.app.pool.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.app.metrics.active.sub(1);
    }
}

fn handle_http_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    let _ = stream.set_nodelay(true);
    let client = stream
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::V4(Ipv4Addr::UNSPECIFIED));
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // clean close at a request boundary
            Err(HttpError::BadRequest(detail)) => {
                // Even unparseable requests get an id, so the access
                // log and the 400 the client sees can be correlated.
                let req_id = shared.app.next_request_id();
                shared.app.metrics.count_route_response("other", 400);
                obs::flight_event!(
                    obs::Level::Warn,
                    "http_bad_request",
                    id = req_id,
                    status = 400u64
                );
                let _ = Response::error(400, &detail)
                    .with_header("X-Request-Id", format!("{req_id:016x}"))
                    .write_to(&mut writer, false);
                return Ok(());
            }
            // Idle keep-alive timeout or transport error: just close.
            Err(HttpError::Timeout) | Err(HttpError::Io(_)) => return Ok(()),
        };
        let req_id = shared.app.next_request_id();
        let t0 = Instant::now();
        let (resp, route) = {
            let span = obs::span!("serve_request", id = req_id);
            let _guard = RequestGuard::begin(&shared.app, req_id, req.path(), client);
            let out = shared.app.handle_labeled(&req, client);
            span.add_items(1);
            out
        };
        let resp = resp.with_header("X-Request-Id", format!("{req_id:016x}"));
        // Shutdown drains in-flight requests but ends keep-alive:
        // the last response is still written, with Connection: close.
        let keep_alive = req.wants_keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
        shared.app.metrics.count_route_response(route, resp.status);
        // Streamed bodies use chunked framing, but only for HTTP/1.1
        // peers — HTTP/1.0 predates chunked transfer, so those get the
        // same bytes with a Content-Length.
        if resp.chunked && req.version == "HTTP/1.1" {
            resp.write_chunked_to(&mut writer, keep_alive)?;
        } else {
            resp.write_to(&mut writer, keep_alive)?;
        }
        let wall = t0.elapsed();
        shared.app.metrics.latency.record(wall);
        shared.app.metrics.route_latency(route).record(wall);
        obs::flight_event!(
            obs::Level::Info,
            "http_access",
            id = req_id,
            route = route,
            status = resp.status as u64,
            us = wall.as_micros().min(u64::MAX as u128) as u64
        );
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Removes a request from the `/debug/requests` table when the
/// dispatch scope ends — including by panic, so a crashed route never
/// leaves a ghost row.
struct RequestGuard<'a> {
    app: &'a App,
    id: u64,
}

impl<'a> RequestGuard<'a> {
    fn begin(app: &'a App, id: u64, path: &str, client: IpAddr) -> RequestGuard<'a> {
        app.begin_request(id, path, client);
        RequestGuard { app, id }
    }
}

impl Drop for RequestGuard<'_> {
    fn drop(&mut self) {
        self.app.end_request(self.id);
    }
}

/// Port-43 conversation: one query line in, one text response out,
/// close — exactly the classic WHOIS exchange.
fn handle_whois_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let t0 = Instant::now();
    if reader.read_line(&mut line).is_err() {
        return Ok(()); // timeout or broken pipe: nothing to answer
    }
    let response = shared
        .app
        .handle_whois_line(line.trim_end_matches(['\r', '\n']));
    writer.write_all(response.as_bytes())?;
    writer.flush()?;
    shared.app.metrics.latency.record(t0.elapsed());
    Ok(())
}
