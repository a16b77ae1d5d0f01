//! CLI argument validation against the real `serve` and `loadgen`
//! binaries: flag combinations the semantics cannot honor must be
//! refused at parse time with an error that names the offending flags —
//! never silently downgraded, never discovered mid-run. The flags the
//! two binaries share are parsed once, in `clipcache_serve::cli`, so
//! each binary refuses a bad shared flag with the same message.

use std::process::Command;

/// Run the `serve` binary with `args` and return (success, stderr).
fn run_serve(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("serve binary spawns");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Run the `loadgen` binary with `args` and return (success, stderr).
fn run_loadgen(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .expect("loadgen binary spawns");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn loadgen_refuses_pipeline_combined_with_faults() {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--target",
            "127.0.0.1:1", // never dialed: parsing must fail first
            "--pipeline",
            "4",
            "--faults",
            "rate=0.02,seed=7,kinds=drop-pre",
        ])
        .output()
        .expect("loadgen binary spawns");
    assert!(
        !out.status.success(),
        "conflicting flags must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--pipeline") && stderr.contains("--faults"),
        "error must name both conflicting flags, got: {stderr}"
    );
}

#[test]
fn loadgen_accepts_pipeline_one_with_faults() {
    // Depth 1 is the request-at-a-time default, so it composes with
    // fault injection; only genuine pipelining (depth > 1) conflicts.
    // An unreachable target proves parsing got past the conflict check:
    // the failure is a connection error, not the flag refusal.
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--target",
            "127.0.0.1:1",
            "--requests",
            "1",
            "--pipeline",
            "1",
            "--faults",
            "rate=0.02,seed=7,kinds=drop-pre",
        ])
        .output()
        .expect("loadgen binary spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("--pipeline cannot be combined"),
        "depth 1 must not trip the conflict check: {stderr}"
    );
}

#[test]
fn serve_refuses_peer_timeout_flags_without_cluster() {
    // Both flags tune peer probes, which only exist in cluster
    // mode; each must be refused by name when --cluster is absent.
    for flag in ["--peer-connect-timeout", "--peer-read-timeout"] {
        let (ok, stderr) = run_serve(&[flag, "50"]);
        assert!(!ok, "{flag} without --cluster must exit non-zero");
        assert!(
            stderr.contains(flag) && stderr.contains("--cluster"),
            "error must name {flag} and --cluster, got: {stderr}"
        );
    }
}

#[test]
fn serve_refuses_zero_and_garbage_peer_timeouts() {
    for flag in ["--peer-connect-timeout", "--peer-read-timeout"] {
        let (ok, stderr) = run_serve(&[flag, "0"]);
        assert!(!ok, "{flag} 0 must exit non-zero");
        assert!(
            stderr.contains(flag) && stderr.contains("at least 1 ms"),
            "zero {flag} must be refused with the 1 ms floor, got: {stderr}"
        );
        let (ok, stderr) = run_serve(&[flag, "fast"]);
        assert!(!ok, "{flag} fast must exit non-zero");
        assert!(
            stderr.contains(&format!("bad {flag}")),
            "garbage {flag} must be refused by name, got: {stderr}"
        );
    }
}

#[test]
fn serve_composes_split_peer_timeouts_and_refuses_the_old_alias() {
    // The two split flags compose. A trailing unknown argument proves
    // parsing got past both: the failure names the bogus flag, not
    // either timeout flag.
    let (ok, stderr) = run_serve(&[
        "--cluster",
        "0",
        "--peers",
        "127.0.0.1:1",
        "--peer-connect-timeout",
        "25",
        "--peer-read-timeout",
        "400",
        "--bogus-flag",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--bogus-flag") && !stderr.contains("timeout"),
        "failure must be the unknown flag, not the timeouts, got: {stderr}"
    );
    // There is no coarse `--peer-timeout` alias: it is refused like any
    // other unknown argument.
    let (ok, stderr) = run_serve(&[
        "--cluster",
        "0",
        "--peers",
        "127.0.0.1:1",
        "--peer-timeout",
        "100",
    ]);
    assert!(!ok, "--peer-timeout must exit non-zero");
    assert!(
        stderr.contains("unknown argument --peer-timeout"),
        "--peer-timeout must be refused as unknown, got: {stderr}"
    );
}

#[test]
fn loadgen_refuses_zero_max_backoff() {
    let (ok, stderr) = run_loadgen(&["--max-backoff-ms", "0"]);
    assert!(!ok, "--max-backoff-ms 0 must exit non-zero");
    assert!(
        stderr.contains("--max-backoff-ms") && stderr.contains("at least 1"),
        "error must name the flag and the floor, got: {stderr}"
    );
}

#[test]
fn loadgen_refuses_malformed_kill_spans() {
    // Shape errors: missing fields, and an empty span (from == to).
    let (ok, stderr) = run_loadgen(&["--kill-span", "1:100"]);
    assert!(!ok, "two-field span must exit non-zero");
    assert!(
        stderr.contains("node:from:to"),
        "error must show the expected shape, got: {stderr}"
    );
    let (ok, stderr) = run_loadgen(&["--kill-span", "0:500:500"]);
    assert!(!ok, "empty span must exit non-zero");
    assert!(
        stderr.contains("from must precede to"),
        "error must explain the ordering, got: {stderr}"
    );
}

#[test]
fn loadgen_refuses_kill_span_without_harness_or_serial_clients() {
    // A well-formed span still needs the in-process cluster harness...
    let (ok, stderr) = run_loadgen(&["--kill-span", "0:100:500"]);
    assert!(!ok);
    assert!(
        stderr.contains("--kill-span") && stderr.contains("--cluster-nodes"),
        "error must name both flags, got: {stderr}"
    );
    // ...a node index inside the membership...
    let (ok, stderr) = run_loadgen(&[
        "--cluster-nodes",
        "3",
        "--clients",
        "1",
        "--kill-span",
        "3:100:500",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("exceeds"),
        "out-of-range node must be refused, got: {stderr}"
    );
    // ...and a single client, so the request-count schedule is
    // deterministic (default is 4 clients).
    let (ok, stderr) = run_loadgen(&["--cluster-nodes", "3", "--kill-span", "0:100:500"]);
    assert!(!ok);
    assert!(
        stderr.contains("--clients 1"),
        "multi-client kill spans must be refused, got: {stderr}"
    );
}

#[test]
fn serve_and_loadgen_refuse_bad_shared_flags_alike() {
    let cases: &[(&[&str], &str)] = &[
        (&["--shards", "0"], "--shards must be at least 1"),
        (&["--replication", "0"], "--replication must be at least 1"),
        (
            &["--segment-bytes", "0"],
            "--segment-bytes must be at least 1",
        ),
        (&["--peers", ","], "--peers needs at least one address"),
        (&["--seed", "zz"], "bad --seed"),
        (&["--wal-sync", "maybe"], "--wal-sync"),
        (&["--policy", "nope"], "nope"),
        (&["--segment-bytes", "9"], "need --data-dir"),
    ];
    for (args, expected) in cases {
        let (serve_ok, serve_err) = run_serve(args);
        let (loadgen_ok, loadgen_err) = run_loadgen(args);
        assert!(!serve_ok, "serve must refuse {args:?}");
        assert!(!loadgen_ok, "loadgen must refuse {args:?}");
        assert!(
            serve_err.contains(expected),
            "serve {args:?} must say {expected:?}, got: {serve_err}"
        );
        assert_eq!(
            serve_err, loadgen_err,
            "serve and loadgen must refuse {args:?} with the same message"
        );
    }
}
