//! The benchmark's side of the serve protocol: one client, the
//! open-loop pacer, and the rules for what counts as a correct answer.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use corepart::json::result_field;
use corepart::serve::{respond_fresh, ComputeRequest, ServeOptions, Server};
use corepart::system::SystemConfig;

use crate::calib::Clock;

/// How long a client waits for any one answer, so that a daemon that
/// stops answering fails the run instead of hanging it. It is a
/// watchdog, not a timer: the kernel rounds a socket timeout up to its
/// scheduler tick, several milliseconds.
pub const WATCHDOG: Duration = Duration::from_secs(20);

/// A JSON-lines client. `TCP_NODELAY` is set and every request leaves
/// in one `write_all`, so no stall measured here is the client's own.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to the daemon at `addr`.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_line(&mut self.stream, line)
    }

    /// A second handle on the connection, for a thread that only
    /// writes while this one reads.
    ///
    /// # Errors
    ///
    /// Handle duplication failures.
    pub fn writer(&self) -> std::io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Sends several request lines in one write (pipelined).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_all(&mut self, lines: &[String]) -> std::io::Result<()> {
        let mut text = lines.join("\n");
        text.push('\n');
        self.stream.write_all(text.as_bytes())
    }

    /// Reads the next response line, waiting at most [`WATCHDOG`].
    ///
    /// # Errors
    ///
    /// Socket failures, the daemon closing the connection, and no
    /// answer within the watchdog.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let deadline = Instant::now() + WATCHDOG;
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=end).collect();
                return String::from_utf8(line[..end].to_vec())
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e));
            }
            let left = deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or_else(|| {
                    std::io::Error::new(ErrorKind::TimedOut, "no answer within the watchdog")
                })?;
            self.stream.set_read_timeout(Some(left))?;
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "the daemon closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One round trip.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// Writes `line` and its newline in one `write_all`.
///
/// # Errors
///
/// Socket write failures.
pub fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes)
}

/// Starts the daemon in-process on an ephemeral port, with the
/// `corepart serve` defaults otherwise.
///
/// # Errors
///
/// Bind and thread-spawn failures, as text.
pub fn spawn_daemon() -> Result<Server, String> {
    Server::spawn(
        SystemConfig::new(),
        &ServeOptions {
            port: 0,
            ..Default::default()
        },
    )
    .map_err(|e| format!("cannot start the daemon: {e}"))
}

/// Stops a daemon and waits for its accept loop. Its shard workers
/// exit once every client connection has closed, so drop the clients
/// first.
pub fn stop_daemon(server: Server) {
    server.shutdown();
    server.join();
}

/// One set-up of a serve workload: spawns a daemon and sends it
/// `lines` pipelined over `conns` connections. Returns the daemon and
/// each line's [`answer`].
///
/// # Errors
///
/// Daemon, connection and answer failures; the daemon is stopped.
fn spawn_warm(lines: &[String], conns: usize) -> Result<(Server, Vec<String>), String> {
    let server = spawn_daemon()?;
    let answers = pipelined(server.addr(), lines, conns).and_then(|responses| {
        responses
            .iter()
            .map(|r| answer(r).map(str::to_owned))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up: {e}"))
    });
    match answers {
        Ok(answers) => Ok((server, answers)),
        Err(e) => {
            stop_daemon(server);
            Err(e)
        }
    }
}

/// `times` set-ups in a row (at least one), each timed against the
/// reference kernel and pushed to `setup_s` in seconds at the nominal
/// host speed. Every daemon but the last is stopped. Returns the last
/// daemon and its answers, which every set-up must have given alike.
///
/// The daemon's shards run the warm-up in parallel. On a 2-vCPU host one
/// `serve-verify` set-up took either about 0.22 or 0.35 s, depending on
/// whether the second vCPU was free, so a median over 4 set-ups a run
/// jumped between the two (IQR 33 % over ten runs); over 12 it was
/// 6–13 %, and over 20 8–10 %.
///
/// # Errors
///
/// As `spawn_warm`, and set-ups that answered differently.
pub fn timed_set_ups(
    clock: &mut Clock,
    setup_s: &mut Vec<f64>,
    lines: &[String],
    conns: usize,
    times: usize,
) -> Result<(Server, Vec<String>), String> {
    let mut last: Option<(Server, Vec<String>)> = None;
    for _ in 0..times.max(1) {
        clock.sample();
        let (up, setup) = clock.time(|| spawn_warm(lines, conns));
        setup_s.push(setup.scaled_ms / 1e3);
        let previous = last.take().map(|(server, answers)| {
            stop_daemon(server);
            answers
        });
        let up = up?;
        if previous.is_some_and(|answers| answers != up.1) {
            stop_daemon(up.0);
            return Err("set-ups answered differently".into());
        }
        last = Some(up);
    }
    Ok(last.expect("at least one set-up ran"))
}

/// The deterministic part of a response: the raw `result` bytes of a
/// success, or the `error` object of a deterministic failure (`ir`,
/// `sim`, `sched`, `config` — the same answer a fresh engine gives).
///
/// # Errors
///
/// A failed operation: an unparseable line, or a `request`, `busy` or
/// `timeout` error, which say nothing about the request's content.
pub fn answer(response: &str) -> Result<&str, String> {
    if let Some(result) = result_field(response) {
        return Ok(result);
    }
    let error = response
        .find("\"error\":")
        .map(|at| &response[at..])
        .ok_or_else(|| format!("malformed response: {}", clip(response)))?;
    for kind in ["request", "busy", "timeout"] {
        if error.contains(&format!("\"kind\":\"{kind}\"")) {
            return Err(format!("`{kind}` error: {}", clip(response)));
        }
    }
    Ok(error)
}

/// The `id` a response echoes, read from its fixed prefix.
pub fn response_id(response: &str) -> Option<u64> {
    let rest = response.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// An integer field of a response's advisory `stats`, e.g.
/// `queue_nanos`.
pub fn stat_field(response: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = response.rfind(&pat)? + pat.len();
    let rest = &response[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Sends `lines` pipelined, dealt round robin over `conns` fresh
/// connections (all writes before any read), and returns the responses
/// in line order.
///
/// # Errors
///
/// Connection failures.
pub fn pipelined(addr: SocketAddr, lines: &[String], conns: usize) -> Result<Vec<String>, String> {
    let conns = conns.max(1);
    let io = |e: std::io::Error| format!("pipelined requests failed: {e}");
    let mut clients = Vec::with_capacity(conns);
    for c in 0..conns {
        let mut client = Client::connect(addr).map_err(io)?;
        let mine: Vec<String> = lines.iter().skip(c).step_by(conns).cloned().collect();
        if !mine.is_empty() {
            client.send_all(&mine).map_err(io)?;
        }
        clients.push(client);
    }
    let mut responses = Vec::with_capacity(lines.len());
    for i in 0..lines.len() {
        responses.push(clients[i % conns].recv().map_err(io)?);
    }
    Ok(responses)
}

/// Checks a served [`answer`] against a fresh, throwaway engine's
/// answer to the same request (`serve::respond_fresh`, the conformance
/// oracle).
///
/// # Errors
///
/// The mismatch, described.
pub fn check_fresh(req: &ComputeRequest, served: &str) -> Result<(), String> {
    let fresh = respond_fresh(&SystemConfig::new(), req);
    match answer(&fresh) {
        Ok(f) if f == served => Ok(()),
        fresh => Err(format!(
            "{} request differs from a fresh engine: served {}, fresh {:?}",
            req.kind.name(),
            clip(served),
            fresh.map(clip)
        )),
    }
}

fn clip(text: &str) -> &str {
    let mut end = text.len().min(160);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

/// Open-loop pacing: request `i` is due `i / rate` seconds after the
/// start, whether or not earlier answers have arrived. Times are
/// nanoseconds since the start, so a test can drive the pacer with a
/// fake clock.
#[derive(Debug, Clone)]
pub struct Pacer {
    interval_ns: f64,
    next: usize,
    total: usize,
    late_ms: Vec<f64>,
}

/// What the sender does next.
#[derive(Debug, PartialEq, Eq)]
pub enum Pace {
    /// Send request `i` now.
    Send(usize),
    /// Nothing is due before this time; sleep until then.
    Wait(u64),
    /// Every request has been sent.
    Done,
}

impl Pacer {
    /// A pacer at `rate` requests/s over `total` requests.
    pub fn new(rate: f64, total: usize) -> Self {
        Pacer {
            interval_ns: 1e9 / rate,
            next: 0,
            total,
            late_ms: Vec::new(),
        }
    }

    /// When request `i` is due.
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }

    /// The next action at `now_ns`. A `Send` records how late the
    /// generator is: requests due during a stall go out at once, late,
    /// and still count their latency from their due time.
    pub fn poll(&mut self, now_ns: u64) -> Pace {
        if self.next >= self.total {
            return Pace::Done;
        }
        let due = self.due_ns(self.next);
        if now_ns < due {
            return Pace::Wait(due);
        }
        self.late_ms.push((now_ns - due) as f64 / 1e6);
        self.next += 1;
        Pace::Send(self.next - 1)
    }

    /// How late each request went out after its due time, in ms.
    pub fn late_ms(&self) -> &[f64] {
        &self.late_ms
    }
}

/// Time since `start` in nanoseconds.
pub fn since_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// `start + ns`.
pub fn at_ns(start: Instant, ns: u64) -> Instant {
    start + Duration::from_nanos(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_keeps_the_schedule_through_a_stall() {
        const MS: u64 = 1_000_000;
        // 100 req/s: one due every 10 ms.
        let mut p = Pacer::new(100.0, 5);
        assert_eq!(p.poll(0), Pace::Send(0));
        assert_eq!(p.poll(3 * MS), Pace::Wait(10 * MS));
        assert_eq!(p.poll(15 * MS), Pace::Send(1));
        assert_eq!(p.late_ms(), [0.0, 5.0]);
        // A stall: requests 2, 3 and 4 (due at 20, 30 and 40 ms) all
        // leave at 47.
        for i in 2..5 {
            assert_eq!(p.poll(47 * MS), Pace::Send(i));
        }
        assert_eq!(p.late_ms(), [0.0, 5.0, 27.0, 17.0, 7.0]);
        assert_eq!(p.poll(47 * MS), Pace::Done);
        // Latency counts from the due time, not the late send.
        assert_eq!(p.due_ns(3), 30 * MS);
    }

    #[test]
    fn answers_keep_results_and_deterministic_errors() {
        let ok = r#"{"id":3,"ok":true,"cmd":"verify","result":{"a":1},"stats":{"shard":0,"queue_nanos":12,"compute_nanos":34}}"#;
        assert_eq!(answer(ok), Ok(r#"{"a":1}"#));
        assert_eq!(response_id(ok), Some(3));
        assert_eq!(stat_field(ok, "queue_nanos"), Some(12));
        assert_eq!(stat_field(ok, "compute_nanos"), Some(34));
        let sched = r#"{"id":4,"ok":false,"error":{"kind":"sched","message":"no divider"}}"#;
        assert_eq!(
            answer(sched),
            Ok(r#""error":{"kind":"sched","message":"no divider"}}"#)
        );
        for kind in ["request", "busy", "timeout"] {
            let line =
                format!(r#"{{"id":null,"ok":false,"error":{{"kind":"{kind}","message":"x"}}}}"#);
            assert!(answer(&line).is_err(), "{kind}");
        }
        assert!(answer("garbage").is_err());
    }
}
