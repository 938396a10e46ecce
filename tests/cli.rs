//! Integration tests of the `corepart` command-line front end.

use std::io::Write as _;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_corepart"))
}

fn sample_file() -> tempfile::NamedFile {
    let mut f = tempfile::NamedFile::new();
    write!(
        f.file,
        r#"app clidemo;
var x[48];
var y[48];
func main() {{
    for (var i = 1; i < 47; i = i + 1) {{
        y[i] = x[i] * 3 + x[i - 1];
    }}
    var s = 0;
    for (var j = 0; j < 48; j = j + 1) {{ s = s + y[j]; }}
    return s;
}}
"#
    )
    .expect("write sample");
    f
}

/// Minimal stand-in for the tempfile crate (not a dependency): a file
/// in the target tmpdir with a unique-enough name, removed on drop.
mod tempfile {
    use std::fs::File;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    pub struct NamedFile {
        pub file: File,
        pub path: PathBuf,
    }

    impl NamedFile {
        pub fn new() -> Self {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("corepart-cli-test-{}-{n}.bdl", std::process::id()));
            let file = File::create(&path).expect("create temp file");
            NamedFile { file, path }
        }
    }

    impl Drop for NamedFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }

    /// A scratch directory, removed recursively on drop.
    pub struct NamedDir {
        pub path: PathBuf,
    }

    impl NamedDir {
        pub fn new() -> Self {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("corepart-cli-test-dir-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("create temp dir");
            NamedDir { path }
        }
    }

    impl Drop for NamedDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[test]
fn partition_command_prints_table() {
    let f = sample_file();
    let out = bin()
        .args(["partition", f.path.to_str().expect("utf8 path")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("clidemo"), "{text}");
    assert!(text.contains("i-cache"));
}

#[test]
fn partition_json_is_emitted() {
    let f = sample_file();
    let out = bin()
        .args(["partition", f.path.to_str().expect("utf8"), "--json"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(text.contains("\"app\":\"clidemo\""));
    assert!(text.contains("\"search\""));
}

#[test]
fn clusters_and_disasm_and_schedule_work() {
    let f = sample_file();
    for (cmd, needle) in [
        ("clusters", "cluster chain"),
        ("disasm", "halt"),
        ("schedule", "GEQ_RS"),
    ] {
        let out = bin()
            .args([cmd, f.path.to_str().expect("utf8")])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains(needle),
            "{cmd} output missing `{needle}`: {text}"
        );
    }
}

#[test]
fn explore_command_prints_frontier() {
    let f = sample_file();
    let out = bin()
        .args(["explore", f.path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("initial (all software)"), "{text}");
    assert!(text.contains("G = "), "{text}");
}

#[test]
fn explore_json_marks_pareto_membership() {
    let f = sample_file();
    let out = bin()
        .args(["explore", f.path.to_str().expect("utf8"), "--json"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with("{\"points\":["), "{text}");
    assert!(text.contains("\"pareto\":true"), "{text}");
    assert!(text.contains("\"initial\":true"), "{text}");
}

#[test]
fn threads_flag_is_accepted_and_output_matches_default() {
    let f = sample_file();
    let path = f.path.to_str().expect("utf8");
    let default = bin()
        .args(["partition", path, "--json"])
        .output()
        .expect("runs");
    let single = bin()
        .args(["partition", path, "--json", "--threads", "1"])
        .output()
        .expect("runs");
    assert!(default.status.success() && single.status.success());
    // Thread count must not change the chosen design: compare the
    // JSON up to the timing-carrying "search" object.
    let strip = |raw: &[u8]| {
        let text = String::from_utf8_lossy(raw).into_owned();
        let cut = text.find("\"search\"").expect("search key");
        text[..cut].to_owned()
    };
    assert_eq!(strip(&default.stdout), strip(&single.stdout));

    let bad = bin()
        .args(["partition", path, "--threads", "zebra"])
        .output()
        .expect("runs");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("bad thread count"));
}

#[test]
fn out_of_range_set_index_reports_config_error() {
    let f = sample_file();
    let out = bin()
        .args([
            "schedule",
            f.path.to_str().expect("utf8"),
            "--set-index",
            "99",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no resource set at index 99"), "{err}");
}

#[test]
fn array_flag_sets_inputs() {
    let f = sample_file();
    let out = bin()
        .args([
            "partition",
            f.path.to_str().expect("utf8"),
            "--array",
            "x=1,2,3,4,5",
            "--json",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_usage_fails_gracefully() {
    // Unknown command.
    let f = sample_file();
    let out = bin()
        .args(["frobnicate", f.path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(!out.status.success());

    // Bad array spec.
    let out = bin()
        .args([
            "partition",
            f.path.to_str().expect("utf8"),
            "--array",
            "oops",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn missing_file_exits_one_with_error_line() {
    // A runtime failure (not a usage error) must exit 1 and explain
    // itself on stderr without any stdout output.
    let out = bin()
        .args(["partition", "/nonexistent/nope.bdl"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "runtime failures exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "stderr: {err}");
    assert!(err.contains("nope.bdl"), "names the missing file: {err}");
    assert!(out.stdout.is_empty(), "no partial stdout on failure");
}

#[test]
fn unparseable_source_exits_one_with_parse_error() {
    let mut f = tempfile::NamedFile::new();
    write!(f.file, "app broken; func main() {{ this is not bdl").expect("write garbage");
    let out = bin()
        .args(["partition", f.path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "parse failures exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "no partial stdout on failure");
}

#[test]
fn deeply_nested_source_exits_one_instead_of_overflowing_the_stack() {
    // 200 000 nested parentheses once aborted the process with a stack
    // overflow (exit 134); the parser's nesting bound makes it a typed
    // parse error.
    let n = 200_000;
    let mut f = tempfile::NamedFile::new();
    write!(
        f.file,
        "app deep;\nfunc main() {{ return {}1{}; }}\n",
        "(".repeat(n),
        ")".repeat(n)
    )
    .expect("write deep source");
    let out = bin()
        .args(["partition", f.path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "deep nesting exits 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: parse error"), "stderr: {err}");
    assert!(err.contains("nesting deeper than"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "no partial stdout on failure");
}

#[test]
fn out_of_range_vdd_exits_one_with_config_error() {
    // A supply below the threshold voltage is a typed configuration
    // error surfaced before any simulation: exit 1, `error:` prefix,
    // and the DVFS range in the message.
    let f = sample_file();
    let out = bin()
        .args(["partition", f.path.to_str().expect("utf8"), "--vdd", "0.2"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "config failures exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "stderr: {err}");
    assert!(err.contains("outside"), "names the valid range: {err}");
    assert!(out.stdout.is_empty(), "no partial stdout on failure");

    // Same contract for a node the scaling table does not know.
    let out = bin()
        .args(["partition", f.path.to_str().expect("utf8"), "--node", "123"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown technology node 123"), "{err}");
}

#[test]
fn explore_nodes_emits_scaled_points() {
    let f = sample_file();
    let out = bin()
        .args([
            "explore",
            f.path.to_str().expect("utf8"),
            "--nodes",
            "800,180",
            "--vdd-steps",
            "2",
            "--json",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with("{\"base\":{"), "{text}");
    assert!(text.contains("\"node_nm\":800"), "{text}");
    assert!(text.contains("\"node_nm\":180"), "{text}");
    assert!(text.contains("\"pareto\":true"), "{text}");
}

/// Fills `dir` with `n` small distinct applications.
fn fill_corpus_dir(dir: &std::path::Path, n: usize) {
    for i in 0..n {
        let source = format!(
            r#"app corp{i};
var x[32];
var y[32];
func main() {{
    for (var i = 1; i < 31; i = i + 1) {{
        y[i] = x[i] * {m} + x[i - 1];
    }}
    var s = 0;
    for (var j = 0; j < 32; j = j + 1) {{ s = s + y[j]; }}
    return s;
}}
"#,
            m = i + 2
        );
        std::fs::write(dir.join(format!("app{i}.bdl")), source).expect("write corpus app");
    }
}

#[test]
fn corpus_usage_errors_exit_two() {
    // The corpus verb without its directory argument is a usage error.
    let out = bin().args(["corpus"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "missing dir is a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: corepart"), "stderr: {err}");
    assert!(err.contains("corpus"), "usage names the verb: {err}");
}

#[test]
fn corpus_bad_inputs_exit_one_with_error_line() {
    // A nonexistent directory is a runtime error: exit 1, `error:`.
    let out = bin()
        .args(["corpus", "/nonexistent-corpus-dir"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "stderr: {err}");

    // An empty directory has nothing to run over.
    let dir = tempfile::NamedDir::new();
    let out = bin()
        .args(["corpus", dir.path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "stderr: {err}");
    assert!(err.contains("no .bdl files"), "{err}");

    // A zero chunk size is a configuration error, not a crash.
    fill_corpus_dir(&dir.path, 1);
    let out = bin()
        .args([
            "corpus",
            dir.path.to_str().expect("utf8"),
            "--chunk",
            "0",
            "--out",
            dir.path.join("out.tsv").to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "stderr: {err}");
    assert!(err.contains("chunk"), "{err}");
}

#[test]
fn corpus_limit_resume_round_trip_matches_one_shot() {
    let dir = tempfile::NamedDir::new();
    fill_corpus_dir(&dir.path, 3);
    let dir_arg = dir.path.to_str().expect("utf8").to_owned();
    let one_shot = dir.path.join("one-shot.tsv");
    let stepped = dir.path.join("stepped.tsv");

    let out = bin()
        .args([
            "corpus",
            &dir_arg,
            "--chunk",
            "2",
            "--out",
            one_shot.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("corpus complete"));

    // Limit to the first chunk, then resume to completion at another
    // thread count: threads change wall time, never the journal.
    let out = bin()
        .args([
            "corpus",
            &dir_arg,
            "--chunk",
            "2",
            "--threads",
            "2",
            "--limit",
            "1",
            "--out",
            stepped.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("--resume"),
        "interrupted run points at --resume"
    );
    assert!(!stepped.exists(), "no results file until the run finishes");
    let out = bin()
        .args([
            "corpus",
            &dir_arg,
            "--chunk",
            "2",
            "--threads",
            "1",
            "--resume",
            "--out",
            stepped.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let a = std::fs::read(&one_shot).expect("one-shot results");
    let b = std::fs::read(&stepped).expect("resumed results");
    assert_eq!(a, b, "limit+resume must match the one-shot run");
}

#[test]
fn usage_errors_exit_two() {
    // No arguments at all: usage text, exit 2 (distinct from the
    // exit-1 runtime failures so scripts can tell them apart).
    let out = bin().output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: corepart"), "stderr: {err}");

    // A command without its file argument is a usage error too.
    let out = bin().args(["partition"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}
