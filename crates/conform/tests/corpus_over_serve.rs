//! Distributed-corpus oracle: `conform corpus --connect` against a
//! live `corepart serve` daemon must produce a TSV, journal and Pareto
//! frontier byte-identical to a local run — including a run that is
//! interrupted mid-way and resumed, and one whose daemon hangs up
//! mid-chunk.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use corepart::corpus::{point_to_line, run_corpus_with, CorpusOptions, RemoteOptions};
use corepart::serve::{handle_line, Client, ServeOptions, Server};
use corepart::store::{ArtifactStore, StoreOptions};
use corepart::system::SystemConfig;
use corepart::tech::scaling::OperatingPoint;
use corepart::CorepartError;
use corepart_conform::corpus::{gen_entry, run_gen_corpus, run_gen_corpus_with};

/// A unique per-test scratch path (the OS temp dir plus pid + counter).
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "corepart-corpus-serve-test-{}-{n}-{tag}",
        std::process::id()
    ))
}

/// RAII cleanup for the scratch files a test creates.
struct Scratch(Vec<PathBuf>);

impl Scratch {
    fn path(&mut self, tag: &str) -> PathBuf {
        let p = temp_path(tag);
        self.0.push(p.clone());
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn small_options() -> CorpusOptions {
    let mut options = CorpusOptions::new(SystemConfig::new());
    options.chunk = 2;
    options.threads = 1;
    options
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

fn shutdown(server: Server) {
    let mut client = Client::connect(server.addr()).unwrap();
    client.try_ask("{\"cmd\":\"shutdown\"}").unwrap();
    server.join();
}

fn remote_to(server: &Server, connections: usize) -> RemoteOptions {
    let mut remote = RemoteOptions::new(&server.addr().to_string());
    remote.connections = connections;
    remote
}

/// The tentpole contract end to end: a corpus shipped to a daemon over
/// two pipelined connections reproduces the local TSV and journal byte
/// for byte — as does a remote run interrupted after its first chunk
/// and resumed against the same daemon.
#[test]
fn remote_corpus_matches_local_byte_for_byte() {
    let mut scratch = Scratch(Vec::new());
    let out_local = scratch.path("local.tsv");
    let journal_local = scratch.path("local.journal");
    let local = run_gen_corpus(13, 6, small_options(), &journal_local, &out_local, false)
        .expect("local corpus runs");
    assert!(local.finished);

    let server = spawn_server();

    // One uninterrupted remote run over two pipelined connections.
    let out_remote = scratch.path("remote.tsv");
    let journal_remote = scratch.path("remote.journal");
    let remote = run_gen_corpus_with(
        13,
        6,
        small_options(),
        &journal_remote,
        &out_remote,
        false,
        Some(&remote_to(&server, 2)),
    )
    .expect("remote corpus runs");
    assert!(remote.finished);
    assert_eq!(remote.evaluated, 6);

    let read = |p: &PathBuf| std::fs::read(p).expect("file exists");
    assert_eq!(read(&out_local), read(&out_remote), "TSVs differ");
    assert_eq!(
        read(&journal_local),
        read(&journal_remote),
        "journals differ"
    );
    // Compare frontiers in their canonical serialized form: a fresh
    // local run keeps pre-sanitization labels in memory, exactly like
    // a local resume replaying the journal would not.
    let rendered = |f: &[corepart::explore::DesignPoint]| -> Vec<String> {
        f.iter().map(point_to_line).collect()
    };
    assert_eq!(
        rendered(&local.frontier),
        rendered(&remote.frontier),
        "frontiers differ"
    );

    // Interrupt the remote run after one chunk, then resume it — the
    // journal replay plus the remaining remote chunks must land on the
    // same bytes again.
    let out_resumed = scratch.path("resumed.tsv");
    let journal_resumed = scratch.path("resumed.journal");
    let mut interrupted = small_options();
    interrupted.limit = Some(2);
    let partial = run_gen_corpus_with(
        13,
        6,
        interrupted,
        &journal_resumed,
        &out_resumed,
        false,
        Some(&remote_to(&server, 2)),
    )
    .expect("interrupted remote run still succeeds");
    assert!(!partial.finished);
    assert_eq!(partial.chunks_done, 1);

    let resumed = run_gen_corpus_with(
        13,
        6,
        small_options(),
        &journal_resumed,
        &out_resumed,
        true,
        Some(&remote_to(&server, 2)),
    )
    .expect("remote resume succeeds");
    assert!(resumed.finished);
    assert_eq!(resumed.replayed, 2, "the completed chunk is replayed");
    assert_eq!(read(&out_local), read(&out_resumed), "resumed TSV differs");
    assert_eq!(
        read(&journal_local),
        read(&journal_resumed),
        "resumed journal differs"
    );

    shutdown(server);
}

/// A daemon that dies mid-chunk is a typed error naming `--resume`;
/// the journal keeps every durable chunk, and resuming against a
/// healthy daemon completes to the local-run bytes.
#[test]
fn mid_chunk_disconnect_is_reported_and_resumable() {
    let mut scratch = Scratch(Vec::new());

    // A stub daemon that answers exactly one chunk's worth of requests
    // (two lines) through the real protocol handler, then hangs up.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let store = ArtifactStore::new(SystemConfig::new(), &StoreOptions::default()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let (response, _) = handle_line(&store, line.trim_end());
            writer.write_all(response.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
        }
        writer.flush().unwrap();
        // Hang up the response stream but keep draining requests, so
        // the client's next writes land and its next read is a clean
        // EOF (not a racy connection reset).
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
        }
    });

    let out = scratch.path("cut.tsv");
    let journal = scratch.path("cut.journal");
    let mut remote = RemoteOptions::new(&addr.to_string());
    remote.connections = 1;
    let err = run_gen_corpus_with(29, 4, small_options(), &journal, &out, false, Some(&remote))
        .expect_err("the dropped connection must surface as an error");
    assert!(
        err.to_string().contains("closed the connection mid-chunk"),
        "unexpected error: {err}"
    );
    assert!(
        err.to_string().contains("--resume"),
        "the error must point at --resume: {err}"
    );
    stub.join().unwrap();

    // The answered chunk is durable; resuming against a real daemon
    // recomputes only the rest and lands on the local-run bytes.
    let journal_text = std::fs::read_to_string(&journal).expect("journal survives the cut");
    assert!(journal_text.contains("row\t"), "chunk 1 must be durable");

    let server = spawn_server();
    let resumed = run_gen_corpus_with(
        29,
        4,
        small_options(),
        &journal,
        &out,
        true,
        Some(&remote_to(&server, 1)),
    )
    .expect("resume against a healthy daemon succeeds");
    assert!(resumed.finished);
    assert_eq!(resumed.replayed, 2);
    shutdown(server);

    let out_local = scratch.path("cut-local.tsv");
    let journal_local = scratch.path("cut-local.journal");
    run_gen_corpus(29, 4, small_options(), &journal_local, &out_local, false)
        .expect("local reference runs");
    let read = |p: &PathBuf| std::fs::read(p).expect("file exists");
    assert_eq!(read(&out_local), read(&out), "recovered TSV differs");
    assert_eq!(
        read(&journal_local),
        read(&journal),
        "recovered journal differs"
    );
}

/// A dead address fails before the journal is created or rewritten —
/// a typo in `--connect` must never cost an on-disk resumable run.
#[test]
fn dead_daemon_fails_before_touching_the_journal() {
    let mut scratch = Scratch(Vec::new());
    let out = scratch.path("dead.tsv");
    let journal = scratch.path("dead.journal");
    // Port 1 is reserved and never serves on loopback.
    let remote = RemoteOptions::new("127.0.0.1:1");
    run_gen_corpus_with(3, 4, small_options(), &journal, &out, false, Some(&remote))
        .expect_err("connecting to a dead address must fail");
    assert!(
        !journal.exists(),
        "a failed connect must not create the journal"
    );
    assert!(!out.exists());
}

/// Operating-point re-weighting is local-only: the daemon strips the
/// point from corpus requests, so a remote run refuses it up front
/// rather than silently diverging from the local bytes.
#[test]
fn remote_run_rejects_operating_point_reweighting() {
    let mut scratch = Scratch(Vec::new());
    let out = scratch.path("op.tsv");
    let journal = scratch.path("op.journal");
    let mut options = small_options();
    options.base = SystemConfig::new().with_operating_point(OperatingPoint {
        node_nm: 800,
        vdd: 5.0,
    });
    let remote = RemoteOptions::new("127.0.0.1:1");
    let err = run_gen_corpus_with(3, 4, options, &journal, &out, false, Some(&remote))
        .expect_err("operating-point remote runs must be refused");
    assert!(
        err.to_string().contains("operating-point"),
        "unexpected error: {err}"
    );
    assert!(!journal.exists(), "the refusal must precede journal setup");
}

/// The wire carries integers exactly only below 2^53, and the daemon
/// refuses the rest as a `request` error. A remote run refuses such an
/// entry itself, before the chunk is sent, with an error that names the
/// entry, the array and the value.
#[test]
fn remote_run_refuses_elements_the_wire_cannot_carry() {
    let mut scratch = Scratch(Vec::new());
    let out = scratch.path("wide.tsv");
    let journal = scratch.path("wide.journal");
    let server = spawn_server();
    let provider = |index| {
        let mut entry = gen_entry(5, index)?;
        if index == 1 {
            let (_, data) = entry.workload.arrays.first_mut().expect("an input array");
            data[0] = -(1 << 53);
        }
        Ok(entry)
    };
    let err = run_corpus_with(
        2,
        provider,
        &small_options(),
        &journal,
        &out,
        false,
        Some(&remote_to(&server, 1)),
    )
    .expect_err("an element the wire cannot carry must be refused");
    let wide = gen_entry(5, 1).unwrap();
    let (array, _) = &wide.workload.arrays[0];
    let message = err.to_string();
    assert!(matches!(err, CorepartError::Config { .. }), "{message}");
    for part in [
        format!("corpus entry 1 ({})", wide.name),
        format!("`{array}`"),
        "-9007199254740992".to_owned(),
        "without --connect".to_owned(),
    ] {
        assert!(message.contains(&part), "{part:?} missing: {message}");
    }
    shutdown(server);
}
