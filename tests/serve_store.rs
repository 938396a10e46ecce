//! Integration tests of the serve stack: the [`ArtifactStore`]'s byte
//! budget, LRU eviction and admission control under real request
//! loads, and the served-vs-fresh byte-identity guarantee across every
//! compute command.

use corepart::json::{parse_json, result_field};
use corepart::serve::{
    handle_line, respond_compute, respond_fresh, ComputeKind, ComputeRequest, CorpusMeta,
};
use corepart::store::{ArtifactStore, StoreOptions};
use corepart::system::SystemConfig;
use corepart_tech::scaling::OperatingPoint;
use proptest::prelude::*;

use corepart::json::JsonValue;
use corepart::serve::{Client, ServeOptions, Server};

/// A small family of structurally identical apps whose names and
/// constants differ — distinct identities, near-identical footprints.
fn app_source(tag: &str, k: i64) -> String {
    format!(
        "app {tag}; var x[48]; var acc = 0;
         func main() {{
             for (var i = 0; i < 48; i = i + 1) {{ acc = acc + x[i] * {k}; }}
             return acc;
         }}"
    )
}

fn partition_request(tag: &str, k: i64) -> ComputeRequest {
    let mut req = ComputeRequest::new(ComputeKind::Partition, &app_source(tag, k));
    req.arrays = vec![("x".into(), (0..48).collect())];
    req
}

fn store_with(shards: usize, budget_bytes: u64) -> ArtifactStore {
    ArtifactStore::new(
        SystemConfig::new(),
        &StoreOptions {
            shards,
            budget_bytes,
        },
    )
    .unwrap()
}

fn ask(store: &ArtifactStore, req: &ComputeRequest) -> String {
    let (response, stop) = handle_line(store, &req.to_json());
    assert!(!stop);
    assert!(response.contains("\"ok\":true"), "{response}");
    response
}

/// The accounted footprint of one app's full artifact set, measured on
/// an unconstrained store.
fn one_app_bytes() -> u64 {
    let store = store_with(1, u64::MAX);
    ask(&store, &partition_request("probe", 3));
    let bytes = store.stats().bytes;
    assert!(bytes > 0);
    bytes
}

#[test]
fn budget_is_honored_under_load_and_evictions_are_counted() {
    let budget = one_app_bytes() * 2;
    let store = store_with(1, budget);
    // Six distinct apps through a two-app budget: the store must evict
    // to keep admitting, and never exceed the budget while doing so.
    for (i, k) in [3, 5, 7, 9, 11, 13].into_iter().enumerate() {
        ask(&store, &partition_request(&format!("load{i}"), k));
        let stats = store.stats();
        assert!(
            stats.bytes <= budget,
            "accounted {} exceeds budget {budget} after request {i}",
            stats.bytes,
        );
    }
    let stats = store.stats();
    assert!(
        stats.evictions > 0,
        "a 2-app budget under a 6-app load must evict"
    );
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.latency.count, 6);
}

#[test]
fn lru_eviction_keeps_the_recently_used_fingerprint() {
    // A budget that fits two apps; fill it with A then B, then admit C.
    // The LRU entries — A's — must go; B must still be warm.
    let budget = one_app_bytes() * 2 + one_app_bytes() / 2;
    let store = store_with(1, budget);
    let a = partition_request("appa", 3);
    let b = partition_request("appb", 5);
    let c = partition_request("appc", 7);
    ask(&store, &a);
    ask(&store, &b);
    ask(&store, &c);
    assert!(store.stats().evictions > 0, "admitting C must evict");
    // Probe warmth through the artifact layer, not the result memo: an
    // explicit n_max gives each probe a fresh result key, so store_hit
    // reports whether the app's baseline is still resident.
    let mut b_probe = b.clone();
    b_probe.n_max = Some(6);
    let b_again = ask(&store, &b_probe);
    assert!(
        b_again.contains("\"store_hit\":true"),
        "B was more recently used than A and must survive: {b_again}"
    );
    let mut a_probe = a.clone();
    a_probe.n_max = Some(6);
    let a_again = ask(&store, &a_probe);
    assert!(
        a_again.contains("\"store_hit\":false"),
        "A was the LRU fingerprint and must have been evicted: {a_again}"
    );
}

#[test]
fn hot_entries_are_not_evicted_for_one_shot_requests() {
    // Room for one app plus a little slack: once `hot` owns the store,
    // a stranger can only be admitted by displacing hot entries — which
    // cold, first-time admissions are not allowed to do.
    let budget = one_app_bytes() * 5 / 4;
    let store = store_with(1, budget);
    let hot = partition_request("hotapp", 3);
    // Two engine-touching requests make every artifact of `hot` hot
    // (touches >= 2) — the second varies n_max so it misses the result
    // memo and actually re-touches the artifact pools.
    ask(&store, &hot);
    let mut hot_variant = hot.clone();
    hot_variant.n_max = Some(6);
    ask(&store, &hot_variant);
    // A stream of one-shot strangers cannot displace it…
    for (i, k) in [5, 7, 9, 11].into_iter().enumerate() {
        ask(&store, &partition_request(&format!("cold{i}"), k));
    }
    let stats = store.stats();
    assert!(
        stats.declined > 0,
        "cold admissions against hot occupancy must be declined: {stats:?}"
    );
    let again = ask(&store, &hot);
    assert!(
        again.contains("\"store_hit\":true"),
        "the hot baseline must have survived the cold stream: {again}"
    );
}

#[test]
fn served_results_are_byte_identical_to_fresh_engines() {
    let store = store_with(2, 256 << 20);
    let base = SystemConfig::new();
    let mut requests = vec![
        partition_request("ident", 3),
        ComputeRequest::new(ComputeKind::Explore, &app_source("ident", 3)),
        ComputeRequest::new(ComputeKind::Verify, &app_source("ident", 3)),
    ];
    requests[1].arrays = vec![("x".into(), (0..48).collect())];
    requests[1].weights = Some(vec![0.0, 0.5, 2.0]);
    requests[2].arrays = vec![("x".into(), (0..48).collect())];
    requests[2].clusters = vec![0];
    // Twice each: the warm pass must not drift from the cold one.
    for _ in 0..2 {
        for req in &requests {
            let served = ask(&store, req);
            let fresh = respond_fresh(&base, req);
            assert_eq!(
                result_field(&served),
                result_field(&fresh),
                "served and fresh results must be byte-identical ({})",
                req.kind.name(),
            );
        }
    }
    assert!(store.stats().hits > 0);
}

#[test]
fn repeated_identical_requests_hit_the_result_memo() {
    let store = store_with(1, 256 << 20);
    let req = partition_request("memo", 3);
    let first = ask(&store, &req);
    let second = ask(&store, &req);
    // The repeat is a pure memo lookup: byte-identical result, no
    // fresh session (hence no session counters in its stats).
    assert!(first.contains("\"session\""), "{first}");
    assert!(!second.contains("\"session\""), "{second}");
    assert!(second.contains("\"store_hit\":true"), "{second}");
    assert_eq!(result_field(&first), result_field(&second));
    // A knob change misses the memo and runs the engine again.
    let mut variant = req.clone();
    variant.factor_f = Some(2.0);
    let third = ask(&store, &variant);
    assert!(third.contains("\"session\""), "{third}");
}

#[test]
fn served_sessions_drive_the_sharded_batch_kernel() {
    let mut config = SystemConfig::new();
    config.threads = 2;
    let store = ArtifactStore::new(config, &StoreOptions::default()).unwrap();
    let response = ask(&store, &partition_request("batched", 3));
    let parsed = parse_json(&response).unwrap();
    let batches = parsed
        .get("stats")
        .and_then(|s| s.get("session"))
        .and_then(|s| s.get("batched_replays"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(
        batches > 0,
        "served verifies must run the batched kernel: {response}"
    );
}

/// A verify request over an app with two loops (so cluster sets {0}
/// and {1} both exist), carrying every knob the memo key covers.
fn keyed_request() -> ComputeRequest {
    let source = "app keyed; var x[32]; var y[32]; var acc = 0;
        func main() {
            for (var i = 0; i < 32; i = i + 1) { y[i] = x[i] * 3 + 1; }
            for (var j = 0; j < 32; j = j + 1) { acc = acc + y[j] * y[j]; }
            return acc;
        }";
    let mut req = ComputeRequest::new(ComputeKind::Verify, source);
    req.arrays = vec![("x".into(), (0..32).collect())];
    req.clusters = vec![0];
    req
}

/// Changes exactly one field of `req`: `field` picks which (0–10 are
/// memo-keyed content, 11–12 are transport), `step` (1–4) how.
fn perturb(req: &mut ComputeRequest, field: usize, step: usize) {
    let f = step as f64;
    match field {
        0 => {
            req.kind = [ComputeKind::Partition, ComputeKind::Explore][step % 2];
        }
        // One source byte: a space becomes a tab, so the app (and its
        // engine artifacts) stay the same while the text differs.
        1 => {
            let at = req.source.match_indices(' ').nth(step).unwrap().0;
            req.source.replace_range(at..=at, "\t");
        }
        2 => req.arrays[0].1[step] += step as i64,
        3 => req.n_max = Some(step),
        4 => req.factor_f = Some(1.0 + f / 8.0),
        5 => req.factor_g = Some(f / 4.0),
        6 => req.weights = Some(vec![0.0, f]),
        7 => {
            req.clusters = if step.is_multiple_of(2) {
                vec![1]
            } else {
                vec![0, 1]
            }
        }
        8 => req.set_index = step % 2 * 2 + 1,
        9 => {
            req.operating_point = Some(OperatingPoint {
                node_nm: 180,
                vdd: 1.6 + f / 10.0,
            });
        }
        10 => {
            let meta = req.corpus.as_mut().unwrap();
            match step % 3 {
                0 => meta.index += 1,
                1 => meta.seed += step as u64,
                _ => meta.name.push('x'),
            }
        }
        11 => req.id = Some(step as u64),
        _ => req.ordered = false,
    }
}

fn ledger_entries(store: &ArtifactStore) -> u64 {
    store.stats().shards.iter().map(|s| s.entries).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Requests that differ in one keyed field never share a result-memo
    /// entry, and each answers like a fresh engine; requests that differ
    /// only in `id` or `ordered` are memo hits.
    #[test]
    fn memo_key_covers_every_content_field(field in 0usize..13, step in 1usize..5) {
        let store = store_with(1, 256 << 20);
        let base_config = SystemConfig::new();
        let mut base = keyed_request();
        if field == 10 {
            base.kind = ComputeKind::Corpus;
            base.weights = Some(vec![0.0, 1.0]);
            base.corpus = Some(CorpusMeta { index: 3, seed: 7, name: "keyed".into() });
        }
        let first = respond_compute(&store, &base);
        prop_assert!(first.contains("\"ok\":true"), "{}", first);
        let before = ledger_entries(&store);

        let mut variant = base.clone();
        perturb(&mut variant, field, step);
        let served = respond_compute(&store, &variant);
        prop_assert!(served.contains("\"ok\":true"), "{}", served);
        let fresh = respond_fresh(&base_config, &variant);
        prop_assert_eq!(result_field(&served), result_field(&fresh));
        if field <= 10 {
            // A miss admits the variant's own result entry; a hit
            // would leave the ledger untouched.
            prop_assert!(
                ledger_entries(&store) > before,
                "field {} shared the base's memo entry: {}", field, served
            );
        } else {
            prop_assert!(served.contains("\"store_hit\":true"), "{}", served);
            prop_assert_eq!(ledger_entries(&store), before);
        }
        // The base still answers its own result from the memo.
        let again = respond_compute(&store, &base);
        prop_assert!(again.contains("\"store_hit\":true"), "{}", again);
        prop_assert_eq!(result_field(&again), result_field(&first));
    }
}

/// A live daemon on an ephemeral port with two shards.
fn live_server() -> Server {
    let opts = ServeOptions {
        port: 0,
        shards: 2,
        threads: 1,
        ..ServeOptions::default()
    };
    Server::spawn(SystemConfig::new(), &opts).unwrap()
}

/// Member `key` of a served line's `stats` object.
fn served_stat(response: &str, key: &str) -> Option<JsonValue> {
    parse_json(response).ok()?.get("stats")?.get(key).cloned()
}

/// Asserts that `response` is a memo hit answered on the connection
/// reader: `store_hit`, no queue wait, and `req`'s fresh `result`.
fn assert_reader_hit(response: &str, req: &ComputeRequest) {
    assert!(response.contains("\"ok\":true"), "{response}");
    let hit = served_stat(response, "store_hit").and_then(|v| v.as_bool());
    assert_eq!(hit, Some(true), "{response}");
    let queue = served_stat(response, "queue_nanos").and_then(|v| v.as_u64());
    assert_eq!(queue, Some(0), "{response}");
    assert!(response.contains("\"queue_nanos\":0,"), "{response}");
    assert!(
        served_stat(response, "compute_nanos").is_some(),
        "{response}"
    );
    let fresh = respond_fresh(&SystemConfig::new(), req);
    assert_eq!(result_field(response), result_field(&fresh));
}

fn shut_down(server: Server) {
    let mut client = Client::connect(server.addr()).unwrap();
    let bye = client.try_ask("{\"cmd\":\"shutdown\"}").unwrap();
    assert!(bye.contains("\"cmd\":\"shutdown\""), "{bye}");
    server.join();
}

#[test]
fn memo_hits_over_two_connections_skip_the_shard_queues() {
    let server = live_server();
    let mut verify = keyed_request();
    verify.clusters = vec![0, 1];
    let keys = [partition_request("hop", 3), keyed_request(), verify];
    let mut warm = Client::connect(server.addr()).unwrap();
    for req in &keys {
        let response = warm.try_ask(&req.to_json()).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let before = server.store().stats();
    assert!(before.shards.iter().any(|s| s.depth_max > 0));

    std::thread::scope(|s| {
        for conn in 0..2u64 {
            let (server, keys) = (&server, &keys);
            s.spawn(move || {
                let mut client = Client::connect(server.addr()).unwrap();
                for round in 0..3u64 {
                    for (k, req) in keys.iter().enumerate() {
                        let mut req = req.clone();
                        req.id = Some(conn * 100 + round * 10 + k as u64);
                        let response = client.try_ask(&req.to_json()).unwrap();
                        assert_reader_hit(&response, &req);
                    }
                }
            });
        }
    });

    let after = server.store().stats();
    assert_eq!(after.hits - before.hits, 2 * 3 * keys.len() as u64);
    for (b, a) in before.shards.iter().zip(&after.shards) {
        assert_eq!((a.depth, a.depth_max), (0, b.depth_max));
    }
    let histogram =
        |p: &corepart::store::PipelineStats| (p.coalesced_k1, p.coalesced_k2_4, p.coalesced_k5_16);
    assert_eq!(histogram(&after.pipeline), histogram(&before.pipeline));
    shut_down(server);
}

#[test]
fn an_unordered_hit_behind_a_cold_compute_is_answered_on_the_reader() {
    let server = live_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut hit = partition_request("warm", 3);
    let warm = client.try_ask(&hit.to_json()).unwrap();
    assert!(warm.contains("\"ok\":true"), "{warm}");

    let mut cold = partition_request("cold", 5);
    cold.id = Some(1);
    hit.id = Some(2);
    hit.ordered = false;
    client
        .send(&format!("{}\n{}", cold.to_json(), hit.to_json()))
        .unwrap();
    // Either may arrive first: only the ids pair them up.
    let mut responses = [client.recv().unwrap(), client.recv().unwrap()];
    responses.sort_by_key(|r| parse_json(r).unwrap().get("id").and_then(JsonValue::as_u64));
    let [cold_response, hit_response] = responses;
    assert_reader_hit(&hit_response, &hit);
    assert!(
        cold_response.contains("\"id\":1,\"ok\":true"),
        "{cold_response}"
    );
    let fresh = respond_fresh(&SystemConfig::new(), &cold);
    assert_eq!(result_field(&cold_response), result_field(&fresh));
    shut_down(server);
}
