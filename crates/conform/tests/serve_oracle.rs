//! Served-vs-fresh oracle: a `corepart serve` daemon on a loopback
//! socket must answer generated applications byte-identically to a
//! fresh in-process engine, and a corrupt request must produce a typed
//! error while leaving the store exactly as it was.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use corepart::json::{parse_json, result_field};
use corepart::serve::{
    respond_fresh, Client, ComputeKind, ComputeRequest, ServeOptions, Server, MAX_LINE_BYTES,
};
use corepart::system::SystemConfig;
use corepart_conform::generate;

fn connect(server: &Server) -> Client {
    Client::connect(server.addr()).unwrap()
}

/// Panicking conveniences over the protocol client.
trait Ask {
    fn ask(&mut self, line: &str) -> String;
    fn store_shape(&mut self) -> (u64, u64);
}

impl Ask for Client {
    fn ask(&mut self, line: &str) -> String {
        self.try_ask(line).unwrap()
    }

    fn store_shape(&mut self) -> (u64, u64) {
        let stats = parse_json(&self.ask("{\"cmd\":\"stats\"}")).unwrap();
        let result = stats.get("result").unwrap();
        (
            result.get("bytes").and_then(|v| v.as_u64()).unwrap(),
            result
                .get("shards")
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|s| s.get("entries").and_then(|v| v.as_u64()).unwrap())
                .sum(),
        )
    }
}

fn spawn_server() -> Server {
    Server::spawn(
        SystemConfig::new(),
        &ServeOptions {
            port: 0,
            shards: 2,
            threads: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn served_generated_apps_match_fresh_engines() {
    let server = spawn_server();
    let base = SystemConfig::new();
    let mut client = connect(&server);
    for seed in 0..6u64 {
        let app = generate(seed);
        let mut req = ComputeRequest::new(ComputeKind::Partition, &app.source());
        req.id = Some(seed);
        req.arrays = app.workload_arrays();
        let fresh = respond_fresh(&base, &req);
        // Twice per app: the second answer comes from the warm store.
        for pass in 0..2 {
            let served = client.ask(&req.to_json());
            if fresh.contains("\"ok\":false") {
                // Error responses carry no advisory stats — the whole
                // line must match, warm or cold.
                assert_eq!(served, fresh, "seed {seed} pass {pass}");
            } else {
                assert_eq!(
                    result_field(&served),
                    result_field(&fresh),
                    "seed {seed} pass {pass}: served result drifted from fresh"
                );
            }
        }
    }
    client.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

/// Builds the pipelined-oracle request mix: one partition and two
/// identical verify requests (a coalescable pair) per generated seed,
/// each paired with its fresh-engine reference response.
fn pipelined_mix(base: &SystemConfig, ordered: bool) -> Vec<(ComputeRequest, String)> {
    let mut mix = Vec::new();
    for seed in 0..6u64 {
        let app = generate(seed);
        let mut partition = ComputeRequest::new(ComputeKind::Partition, &app.source());
        partition.arrays = app.workload_arrays();
        partition.ordered = ordered;
        let mut verify = partition.clone();
        verify.kind = ComputeKind::Verify;
        verify.clusters = vec![0];
        for mut req in [partition, verify.clone(), verify] {
            req.id = Some(mix.len() as u64);
            let fresh = respond_fresh(base, &req);
            mix.push((req, fresh));
        }
    }
    // Deterministic shuffle: i -> (7 i + 3) mod 18 is a permutation
    // of the 18 requests because gcd(7, 18) = 1.
    let len = mix.len();
    (0..len).map(|i| mix[(7 * i + 3) % len].clone()).collect()
}

fn check_against_fresh(served: &str, fresh: &str, context: &str) {
    if fresh.contains("\"ok\":false") {
        assert_eq!(served, fresh, "{context}");
    } else {
        assert_eq!(
            result_field(served),
            result_field(fresh),
            "{context}: served result drifted from fresh"
        );
    }
}

#[test]
fn pipelined_shuffled_responses_match_serial_serving() {
    let server = spawn_server();
    let base = SystemConfig::new();
    let mix = pipelined_mix(&base, true);
    let mut client = connect(&server);
    // Burst every request before reading a single response; ordered
    // (default) semantics promise responses in request order even
    // though the shards finish out of order.
    for (req, _) in &mix {
        client.send(&req.to_json()).unwrap();
    }
    for (i, (req, fresh)) in mix.iter().enumerate() {
        let served = client.recv().unwrap();
        let echoed = parse_json(&served)
            .unwrap()
            .get("id")
            .and_then(|v| v.as_u64());
        assert_eq!(echoed, req.id, "burst position {i} answered out of order");
        check_against_fresh(&served, fresh, &format!("burst position {i}"));
    }
    client.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

#[test]
fn unordered_responses_are_matched_by_id() {
    let server = spawn_server();
    let base = SystemConfig::new();
    let mix = pipelined_mix(&base, false);
    let mut client = connect(&server);
    for (req, _) in &mix {
        client.send(&req.to_json()).unwrap();
    }
    // `"ordered":false` waives the reorder buffer: responses arrive in
    // completion order and the client matches them by echoed id.
    let mut seen = vec![false; mix.len()];
    for _ in 0..mix.len() {
        let served = client.recv().unwrap();
        let id = parse_json(&served)
            .unwrap()
            .get("id")
            .and_then(|v| v.as_u64())
            .expect("unordered response lost its id") as usize;
        assert!(!seen[id], "id {id} answered twice");
        seen[id] = true;
        let (_, fresh) = mix
            .iter()
            .find(|(req, _)| req.id == Some(id as u64))
            .unwrap();
        check_against_fresh(&served, fresh, &format!("id {id}"));
    }
    assert!(seen.iter().all(|&s| s), "some requests were never answered");
    client.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

#[test]
fn connection_cap_answers_busy_and_closes() {
    let server = Server::spawn(
        SystemConfig::new(),
        &ServeOptions {
            port: 0,
            shards: 2,
            threads: 1,
            max_connections: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut first = connect(&server);
    let app = generate(1);
    let mut req = ComputeRequest::new(ComputeKind::Partition, &app.source());
    req.arrays = app.workload_arrays();
    assert!(first.ask(&req.to_json()).contains("\"ok\":true"));

    // The over-cap connection gets exactly one typed `busy` line and
    // an orderly close, with no request ever read from it.
    let mut second = connect(&server);
    let busy = second.recv().unwrap();
    assert!(busy.contains("\"ok\":false"), "{busy}");
    assert!(busy.contains("\"kind\":\"busy\""), "{busy}");
    // `UnexpectedEof` is a close with zero further bytes; stray bytes
    // before the close would be `InvalidData`.
    let rest = second.recv();
    assert!(
        matches!(&rest, Err(e) if e.kind() == ErrorKind::UnexpectedEof),
        "not closed: {rest:?}"
    );

    // The admitted connection is unharmed — and once it hangs up, the
    // freed slot admits a new client.
    assert!(first.ask(&req.to_json()).contains("\"store_hit\":true"));
    drop(first);
    let mut third = None;
    for attempt in 0..100 {
        let mut candidate = connect(&server);
        // A refused client is sent `busy` and closed without its
        // request being read, so the write or read can also fail with
        // a reset: that is a refusal too.
        match candidate.try_ask(&req.to_json()) {
            Ok(answer) if answer.contains("\"ok\":true") => {
                third = Some(candidate);
                break;
            }
            Ok(answer) => assert!(answer.contains("\"kind\":\"busy\""), "{answer}"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    ErrorKind::BrokenPipe
                        | ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                ),
                "{e}"
            ),
        }
        assert!(attempt < 99, "slot never freed after disconnect");
        std::thread::sleep(Duration::from_millis(20));
    }
    third.unwrap().ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

/// A refused client that pipelined its first request still reads the
/// `busy` line and then an orderly close: the daemon drains what the
/// client sent before it closes, so the close is no reset.
#[test]
fn refused_clients_that_already_sent_read_busy_then_eof() {
    let server = Server::spawn(
        SystemConfig::new(),
        &ServeOptions {
            port: 0,
            shards: 1,
            threads: 1,
            max_connections: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut holder = connect(&server);
    assert!(holder.ask("{\"cmd\":\"stats\"}").contains("\"ok\":true"));
    for client in 0..20 {
        let mut refused = connect(&server);
        refused.send("{\"cmd\":\"stats\"}").unwrap();
        let busy = refused.recv();
        assert!(
            matches!(&busy, Ok(line) if line.contains("\"kind\":\"busy\"")),
            "client {client}: {busy:?}"
        );
        let rest = refused.recv();
        assert!(
            matches!(&rest, Err(e) if e.kind() == ErrorKind::UnexpectedEof),
            "client {client}: {rest:?}"
        );
    }
    holder.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

#[test]
fn request_timeout_returns_typed_error_without_poisoning() {
    let server = Server::spawn(
        SystemConfig::new(),
        &ServeOptions {
            port: 0,
            shards: 1,
            threads: 1,
            request_timeout_ms: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut client = connect(&server);
    let app = generate(0);
    let mut req = ComputeRequest::new(ComputeKind::Partition, &app.source());
    req.id = Some(7);
    req.arrays = app.workload_arrays();

    // A cold partition cannot finish inside 1 ms, so the writer
    // synthesizes a typed timeout error while the shard keeps
    // computing in the background.
    let timed_out = client.ask(&req.to_json());
    assert!(timed_out.contains("\"ok\":false"), "{timed_out}");
    assert!(timed_out.contains("\"kind\":\"timeout\""), "{timed_out}");
    assert!(timed_out.contains("\"id\":7"), "{timed_out}");

    // The abandoned compute still memoizes: polling the same request
    // eventually answers from the warm store, under the same 1 ms
    // deadline, proving the engine was not poisoned mid-flight.
    let mut warm = None;
    for _ in 0..2000 {
        let answer = client.ask(&req.to_json());
        if answer.contains("\"ok\":true") {
            warm = Some(answer);
            break;
        }
        assert!(answer.contains("\"kind\":\"timeout\""), "{answer}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let warm = warm.expect("request never completed after the timeout");
    assert!(warm.contains("\"store_hit\":true"), "{warm}");

    client.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

#[test]
fn corrupt_source_is_a_typed_error_and_leaves_the_store_clean() {
    let server = spawn_server();
    let mut client = connect(&server);

    // Warm the store with one healthy app, then snapshot its shape.
    let app = generate(1);
    let mut good = ComputeRequest::new(ComputeKind::Partition, &app.source());
    good.arrays = app.workload_arrays();
    assert!(client.ask(&good.to_json()).contains("\"ok\":true"));
    let before = client.store_shape();

    // A corrupt BDL must be rejected with the `ir` error kind…
    let mut broken = good.clone();
    broken.source = "app broken; func main( { return 0; }".to_owned();
    let response = client.ask(&broken.to_json());
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("\"kind\":\"ir\""), "{response}");

    // …and must not have admitted (or evicted) anything: no poisoned
    // entry reaches the pools, because the parse fails before the
    // store is touched.
    assert_eq!(client.store_shape(), before, "the store changed shape");

    // The daemon still answers healthy requests afterwards.
    let again = client.ask(&good.to_json());
    assert!(again.contains("\"ok\":true"), "{again}");
    assert!(again.contains("\"store_hit\":true"), "{again}");

    client.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

#[test]
fn deeply_nested_line_is_a_request_error_and_the_daemon_survives() {
    let server = spawn_server();
    let mut hostile = connect(&server);
    let mut bystander = connect(&server);
    // Half a million nested arrays once overflowed the connection
    // thread's stack and aborted the whole process.
    let response = hostile.ask(&"[".repeat(500_000));
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("\"kind\":\"request\""), "{response}");
    assert!(response.contains("nesting"), "{response}");
    // The same connection and every other one keep working.
    assert!(hostile.ask("{\"cmd\":\"stats\"}").contains("\"ok\":true"));
    let stats = bystander.ask("{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"cmd\":\"stats\""), "{stats}");
    bystander.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

#[test]
fn deeply_nested_source_is_an_ir_error_and_the_daemon_survives() {
    let server = spawn_server();
    let mut client = connect(&server);
    // A cold request parses its source on a shard worker; 200 000
    // nested parentheses once overflowed that thread's stack and
    // aborted the whole process.
    let n = 200_000;
    let source = format!(
        "app deep; func main() {{ return {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    let response = client.ask(&ComputeRequest::new(ComputeKind::Partition, &source).to_json());
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("\"kind\":\"ir\""), "{response}");
    assert!(response.contains("nesting deeper than"), "{response}");
    let stats = client.ask("{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"ok\":true"), "{stats}");
    client.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

#[test]
fn over_long_line_is_too_large_and_costs_only_its_connection() {
    let server = spawn_server();
    let mut bystander = connect(&server);

    // A line of exactly the cap is read and answered like any other
    // malformed request, on a connection that stays open.
    let mut capped = connect(&server);
    let response = capped.ask(&"x".repeat(MAX_LINE_BYTES));
    assert!(response.contains("\"kind\":\"request\""), "{response}");
    assert!(capped.ask("{\"cmd\":\"stats\"}").contains("\"ok\":true"));

    // One byte more, with no newline ever sent: the daemon answers
    // `too_large` without waiting for the line to end, then closes.
    let mut hostile = TcpStream::connect(server.addr()).unwrap();
    hostile.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":false"), "{line}");
    assert!(line.contains("\"kind\":\"too_large\""), "{line}");
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "not closed: {line}"
    );

    // Every other connection, old and new, keeps working.
    assert!(capped.ask("{\"cmd\":\"stats\"}").contains("\"ok\":true"));
    assert!(bystander.ask("{\"cmd\":\"stats\"}").contains("\"ok\":true"));
    let mut fresh = connect(&server);
    assert!(fresh.ask("{\"cmd\":\"stats\"}").contains("\"ok\":true"));
    fresh.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

/// A client that keeps streaming an over-long line past the cap still
/// reads its `too_large` answer and then an orderly end of stream: the
/// daemon drains what is left of the line before it closes, so no reset
/// destroys the answer.
#[test]
fn an_over_long_line_still_streaming_reads_its_answer_then_end_of_stream() {
    let server = spawn_server();
    let mut hostile = TcpStream::connect(server.addr()).unwrap();
    let patience = Some(Duration::from_secs(60));
    hostile.set_read_timeout(patience).unwrap();
    hostile.set_write_timeout(patience).unwrap();
    hostile
        .write_all(&vec![b'x'; MAX_LINE_BYTES + (32 << 10)])
        .expect("the daemon reads the line's tail instead of resetting");
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("the answer arrives, not a reset");
    assert!(line.contains("\"kind\":\"too_large\""), "{line}");
    line.clear();
    let end = reader
        .read_line(&mut line)
        .expect("an orderly end of stream, not a reset");
    assert_eq!(end, 0, "not closed: {line}");

    let mut client = connect(&server);
    assert!(client.ask("{\"cmd\":\"stats\"}").contains("\"ok\":true"));
    client.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

/// Opens a raw connection, writes `bytes`, half-closes it and reads
/// every line until the daemon closes; retried while the connection
/// cap refuses it (a refusal is a `busy` line or a reset).
fn half_closed_exchange(server: &Server, bytes: &[u8]) -> Vec<String> {
    for _ in 0..100 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let sent = stream
            .write_all(bytes)
            .and_then(|()| stream.shutdown(Shutdown::Write));
        let lines: Vec<String> = match sent {
            Ok(()) => BufReader::new(stream)
                .lines()
                .map_while(Result::ok)
                .collect(),
            Err(_) => Vec::new(),
        };
        if lines
            .first()
            .is_some_and(|l| !l.contains("\"kind\":\"busy\""))
        {
            return lines;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("the daemon never admitted the connection");
}

/// The wire faults at a line's end, on one daemon whose connection cap
/// leaves a single slot beside a bystander: a last line with no newline
/// before EOF is answered like any line, a line cut short by EOF is a
/// `request` error, and a client that hangs up mid-line goes
/// unanswered. Each closes only its own connection and gives its slot
/// back, and `stats` still answers on the bystander afterwards.
#[test]
fn unterminated_and_cut_off_lines_cost_only_their_connection() {
    let server = Server::spawn(
        SystemConfig::new(),
        &ServeOptions {
            port: 0,
            shards: 2,
            threads: 1,
            max_connections: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut bystander = connect(&server);
    assert!(bystander.ask("{\"cmd\":\"stats\"}").contains("\"ok\":true"));

    let lines = half_closed_exchange(&server, b"{\"id\":1,\"cmd\":\"stats\"}");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].starts_with("{\"id\":1,\"ok\":true,\"cmd\":\"stats\""),
        "{lines:?}"
    );

    let app = generate(2);
    let mut req = ComputeRequest::new(ComputeKind::Partition, &app.source());
    req.id = Some(2);
    req.arrays = app.workload_arrays();
    let line = req.to_json();
    let lines = half_closed_exchange(&server, &line.as_bytes()[..line.len() / 2]);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"ok\":false"), "{lines:?}");
    assert!(lines[0].contains("\"kind\":\"request\""), "{lines:?}");

    // Hang up mid-line on an admitted connection. The next connection
    // is only admitted once that one has given its slot back.
    let mut hangup = loop {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut answer = String::new();
        let asked = stream.write_all(b"{\"cmd\":\"stats\"}\n");
        let read = asked.and_then(|()| BufReader::new(&stream).read_line(&mut answer));
        if read.is_ok() && answer.contains("\"ok\":true") {
            break stream;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    hangup
        .write_all(br#"{"id":3,"cmd":"stats","source":"app x"#)
        .unwrap();
    drop(hangup);
    let lines = half_closed_exchange(&server, b"{\"id\":4,\"cmd\":\"stats\"}\n");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("{\"id\":4,\"ok\":true"), "{lines:?}");

    // No fault reached the store, and the bystander was never touched.
    let stats = bystander.ask("{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"requests\":0,"), "{stats}");
    bystander.ask("{\"cmd\":\"shutdown\"}");
    server.join();
}

/// The median of `samples`.
fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[test]
fn serial_round_trips_do_not_stall_on_nagle() {
    let server = spawn_server();
    let app = generate(2);
    let mut req = ComputeRequest::new(ComputeKind::Partition, &app.source());
    req.arrays = app.workload_arrays();
    let compute = req.to_json();
    assert!(connect(&server).ask(&compute).contains("\"ok\":true"));

    // A plain client: NODELAY left off, each line in one write. Every
    // delay measured here is the daemon's; a response split over two
    // writes costs the peer's delayed ACK, 40 ms or more.
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut round_trip = |line: &str| {
        let started = Instant::now();
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        started.elapsed()
    };
    for line in ["{\"cmd\":\"stats\"}", compute.as_str()] {
        round_trip(line);
        let p50 = median((0..20).map(|_| round_trip(line)).collect());
        assert!(
            p50 < Duration::from_millis(5),
            "serial round trip median {p50:?} for {}",
            &line[..line.len().min(40)]
        );
    }
    connect(&server).ask("{\"cmd\":\"shutdown\"}");
    server.join();
}
