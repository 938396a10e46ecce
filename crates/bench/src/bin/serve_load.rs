//! `serve_load` — scripted TCP load driver for a running `corepart
//! serve` daemon (the CI serve-smoke client).
//!
//! ```text
//! cargo run --release -p corepart-bench --bin serve_load [port] [--pipeline N]
//! ```
//!
//! Connects to `127.0.0.1:port` (default: the daemon's default port),
//! fires a request sequence with repeated fingerprints across all
//! three compute commands, then asserts through the `stats` endpoint
//! that the warm store actually served: hit rate above zero and a
//! reported p99 latency. One partition response line is echoed to
//! stdout so the CI job can grep the served session's `batched_replays`.
//!
//! With `--pipeline N`, a third pass re-fires the warm mix with N
//! requests in flight on the one connection, printing throughput
//! against the serial pass and the p50/p95/p99 latency split into
//! queue-wait vs compute (from the per-response `queue_nanos` /
//! `compute_nanos` stats). That mix is all warm repeats, and a memo hit
//! is answered on the connection reader without a shard hop, so the
//! pass measures the reader's hit path with pipelining, not shard
//! queueing or worker compute: its queue-wait split reads 0, and its
//! compute split is the memo lookup. Each `"store_hit":true` response
//! of the pass must carry `"queue_nanos":0`; the number of hits checked
//! goes to stdout (`reader hits checked: N`) for CI to grep. A
//! same-fingerprint verify storm against a
//! cold app then drives cross-request batch coalescing, and the
//! daemon's `pipeline` stats object is echoed to stdout so CI can
//! grep a nonzero coalesced-batch counter.
//!
//! Finishes with a `shutdown` request. Any failed expectation exits
//! nonzero.

use std::time::{Duration, Instant};

use corepart::json::{parse_json, JsonValue};
use corepart::serve::{Client, ComputeKind, ComputeRequest, DEFAULT_PORT};
use corepart_bench::SEED;
use corepart_workloads::{all, PaperWorkload};

fn fail(message: &str) -> ! {
    eprintln!("serve_load: {message}");
    std::process::exit(1);
}

/// Connects to the daemon, retrying while it may still be booting (CI
/// launches the driver right after the daemon).
fn connect(port: u16) -> Client {
    let mut last = String::new();
    for _ in 0..50 {
        match Client::connect(("127.0.0.1", port)) {
            Ok(client) => return client,
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
    fail(&format!("cannot connect to 127.0.0.1:{port}: {last}"));
}

fn send(client: &mut Client, text: &str) {
    client
        .send(text)
        .unwrap_or_else(|e| fail(&format!("send failed: {e}")));
}

/// The next response, which must parse and be `"ok":true`.
fn recv(client: &mut Client) -> JsonValue {
    let response = client
        .recv()
        .unwrap_or_else(|e| fail(&format!("receive failed mid-sequence: {e}")));
    let parsed = parse_json(&response)
        .unwrap_or_else(|e| fail(&format!("unparseable response {response:?}: {e}")));
    if parsed.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        fail(&format!("request was rejected: {response}"));
    }
    parsed
}

fn ask(client: &mut Client, line: &str) -> JsonValue {
    send(client, line);
    recv(client)
}

/// The `p`th percentile of `values` (nearest-rank on a sorted copy).
fn percentile(values: &[u64], p: usize) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) * p / 100]
}

fn requests_for(w: &PaperWorkload) -> Vec<ComputeRequest> {
    let mut partition = ComputeRequest::new(ComputeKind::Partition, w.source);
    partition.arrays = w.arrays(SEED);
    let mut explore = partition.clone();
    explore.kind = ComputeKind::Explore;
    explore.weights = Some(vec![0.0, 1.0]);
    let mut verify = partition.clone();
    verify.kind = ComputeKind::Verify;
    verify.clusters = vec![0];
    vec![partition, explore, verify]
}

fn main() {
    let mut port: u16 = DEFAULT_PORT;
    let mut pipeline: usize = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--pipeline" {
            let v = args.next().unwrap_or_else(|| fail("--pipeline needs N"));
            pipeline = v
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad pipeline depth `{v}`")));
        } else {
            port = arg
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad port `{arg}`")));
        }
    }
    let mut client = connect(port);

    // Two small apps, three commands each, the whole block twice: the
    // second pass repeats every fingerprint against a warm store.
    let apps: Vec<PaperWorkload> = all().into_iter().take(2).collect();
    let mut id = 0u64;
    let mut partition_response = None;
    let mut serial_warm = (Duration::ZERO, 0usize);
    for pass in 0..2 {
        let start = Instant::now();
        let mut sent = 0usize;
        for w in &apps {
            for mut req in requests_for(w) {
                id += 1;
                req.id = Some(id);
                sent += 1;
                let response = ask(&mut client, &req.to_json());
                // Capture the cold pass's partition answer: only a
                // fresh session carries the `batched_replays` counter CI
                // greps for (warm memo hits skip the session).
                if pass == 0 && req.kind == ComputeKind::Partition && partition_response.is_none() {
                    partition_response = Some(response);
                }
            }
        }
        if pass == 1 {
            serial_warm = (start.elapsed(), sent);
        }
    }

    if pipeline > 0 {
        id = pipelined_pass(&mut client, &apps, pipeline, id, serial_warm);
        id = coalescing_storm(&mut client, id);
    }

    // One served partition response on stdout — CI greps its session
    // stats for `batched_replays` to prove the batch kernel ran.
    let Some(partition_response) = partition_response else {
        fail("no partition response captured");
    };
    println!(
        "{}",
        crate_response_line(&partition_response).unwrap_or_else(|| fail("response not an object"))
    );

    let stats = ask(
        &mut client,
        &format!("{{\"id\":{},\"cmd\":\"stats\"}}", id + 1),
    );
    let result = stats
        .get("result")
        .unwrap_or_else(|| fail("stats response has no result"));
    let hit_rate = result
        .get("hit_rate")
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| fail("stats report no hit_rate"));
    let p99 = result
        .get("latency")
        .and_then(|l| l.get("p99_nanos"))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| fail("stats report no p99"));
    let requests = result
        .get("requests")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    if hit_rate <= 0.0 {
        fail(&format!("expected a warm hit rate, got {hit_rate}"));
    }
    if p99 == 0 {
        fail("expected a nonzero p99 latency");
    }
    eprintln!("serve_load: {requests} requests, hit rate {hit_rate:.2}, p99 {p99} ns");

    ask(
        &mut client,
        &format!("{{\"id\":{},\"cmd\":\"shutdown\"}}", id + 2),
    );
    eprintln!("serve_load: shutdown acknowledged");
}

/// The pipelined pass: the warm request mix re-fired with `depth`
/// requests in flight on the one connection. Prints throughput vs the
/// serial warm pass and the queue-wait/compute latency split.
fn pipelined_pass(
    client: &mut Client,
    apps: &[PaperWorkload],
    depth: usize,
    mut id: u64,
    serial_warm: (Duration, usize),
) -> u64 {
    // Repeat the warm mix a few times so the window stays full long
    // enough to measure something.
    let mut reqs = Vec::new();
    for _ in 0..4 {
        for w in apps {
            for mut req in requests_for(w) {
                id += 1;
                req.id = Some(id);
                reqs.push(req);
            }
        }
    }
    let mut queue_ns = Vec::with_capacity(reqs.len());
    let mut compute_ns = Vec::with_capacity(reqs.len());
    let mut hits = 0usize;
    let start = Instant::now();
    let mut next = 0usize;
    let mut inflight = 0usize;
    while next < reqs.len() || inflight > 0 {
        while inflight < depth && next < reqs.len() {
            send(client, &reqs[next].to_json());
            next += 1;
            inflight += 1;
        }
        let response = recv(client);
        inflight -= 1;
        if let Some(stats) = response.get("stats") {
            let queue = stats.get("queue_nanos").and_then(JsonValue::as_u64);
            if let Some(q) = queue {
                queue_ns.push(q);
            }
            if let Some(c) = stats.get("compute_nanos").and_then(JsonValue::as_u64) {
                compute_ns.push(c);
            }
            if stats.get("store_hit").and_then(JsonValue::as_bool) == Some(true) {
                if queue != Some(0) {
                    fail(&format!(
                        "a memo hit waited in a shard queue (queue_nanos {queue:?})"
                    ));
                }
                hits += 1;
            }
        }
    }
    let elapsed = start.elapsed();
    if queue_ns.is_empty() || compute_ns.is_empty() {
        fail("pipelined responses carried no queue/compute split");
    }
    println!("reader hits checked: {hits}");
    let throughput = reqs.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    let serial_rps = serial_warm.1 as f64 / serial_warm.0.as_secs_f64().max(1e-9);
    eprintln!(
        "serve_load: pipelined depth {depth}: {} requests in {:.3}s ({throughput:.0} req/s; \
         serial warm pass {serial_rps:.0} req/s)",
        reqs.len(),
        elapsed.as_secs_f64(),
    );
    eprintln!(
        "serve_load: queue-wait p50/p95/p99 = {}/{}/{} ns; compute p50/p95/p99 = {}/{}/{} ns",
        percentile(&queue_ns, 50),
        percentile(&queue_ns, 95),
        percentile(&queue_ns, 99),
        percentile(&compute_ns, 50),
        percentile(&compute_ns, 95),
        percentile(&compute_ns, 99),
    );
    id
}

/// The coalescing storm: 16 same-fingerprint verify requests against
/// an app no earlier pass touched, written back-to-back so the shard
/// worker drains them as one batch while the cold first request is
/// still computing. Prints the daemon's `pipeline` stats object to
/// stdout (the CI grep target) and asserts at least one multi-request
/// batch was coalesced.
fn coalescing_storm(client: &mut Client, mut id: u64) -> u64 {
    let apps = all();
    let Some(w) = apps.get(2) else {
        fail("need a third paper workload for the storm");
    };
    let mut burst = String::new();
    let count = 16usize;
    for _ in 0..count {
        let mut req = ComputeRequest::new(ComputeKind::Verify, w.source);
        req.arrays = w.arrays(SEED);
        req.clusters = vec![0];
        id += 1;
        req.id = Some(id);
        if !burst.is_empty() {
            burst.push('\n');
        }
        burst.push_str(&req.to_json());
    }
    send(client, &burst);
    for _ in 0..count {
        recv(client);
    }

    id += 1;
    let stats = ask(client, &format!("{{\"id\":{id},\"cmd\":\"stats\"}}"));
    let pipeline = stats
        .get("result")
        .and_then(|r| r.get("pipeline"))
        .unwrap_or_else(|| fail("stats report no pipeline object"));
    let bucket = |k: &str| {
        pipeline
            .get("coalesced")
            .and_then(|c| c.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    println!(
        "pipeline {}",
        crate_response_line(pipeline).unwrap_or_else(|| fail("pipeline stats not an object"))
    );
    if bucket("k2_4") + bucket("k5_16") == 0 {
        fail("the verify storm coalesced no multi-request batch");
    }
    id
}

/// Re-renders the captured partition response as one stdout line (the
/// parsed form is re-serialized so the grep target is what the daemon
/// actually said, minus any framing whitespace).
fn crate_response_line(v: &JsonValue) -> Option<String> {
    fn render(v: &JsonValue, out: &mut String) {
        match v {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => out.push_str(&format!("{n}")),
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&corepart::json::json_escape(s));
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(item, out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&corepart::json::json_escape(k));
                    out.push_str("\":");
                    render(item, out);
                }
                out.push('}');
            }
        }
    }
    matches!(v, JsonValue::Obj(_)).then(|| {
        let mut out = String::new();
        render(v, &mut out);
        out
    })
}
