//! What the end-to-end tests share: the real `serve` binary as a child
//! process, a run of the real `loadgen` binary, and the bytes of a data
//! directory.

// Each test target uses its own subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};

/// A running `serve` process.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    // Held open so the server never hits a broken pipe on its own
    // stdout (it prints a final report at shutdown).
    stdout: BufReader<ChildStdout>,
    /// The address the server printed after `listening on`.
    pub addr: String,
    /// The `recovered …` line a durable server printed at startup.
    pub recovery_line: Option<String>,
}

/// Start `serve` with `args`, then `--data-dir` when one is given, and
/// wait until it prints the address it listens on.
pub fn spawn_serve(args: &[&str], data_dir: Option<&Path>) -> Server {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    cmd.args(args);
    if let Some(dir) = data_dir {
        cmd.arg("--data-dir").arg(dir);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("serve binary spawns");
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut recovery_line = None;
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("server stdout readable") == 0 {
            panic!("server {args:?} exited before printing its address");
        }
        if line.starts_with("recovered ") {
            recovery_line = Some(line.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address after 'listening on'")
                .to_string();
        }
    };
    Server {
        child,
        stdin,
        stdout: reader,
        addr,
        recovery_line,
    }
}

impl Server {
    /// Graceful shutdown through stdin; the server must exit with
    /// status 0 after printing `shut down cleanly`.
    pub fn quit(mut self) {
        self.stdin.write_all(b"quit\n").expect("stdin writable");
        self.stdin.flush().expect("stdin flushes");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("shutdown output drains");
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "graceful shutdown exits cleanly");
        assert!(rest.contains("shut down cleanly"), "{rest}");
    }

    /// Whether the server printed `recovered <dir> …` at startup.
    pub fn recovered_from(&self, dir: &Path) -> bool {
        let prefix = format!("recovered {} ", dir.display());
        self.recovery_line
            .as_deref()
            .is_some_and(|l| l.starts_with(&prefix))
    }

    /// Wait for the server to exit on its own, without `quit`, and
    /// return its exit code (`None` when a signal ended it).
    pub fn exit_code(mut self) -> Option<i32> {
        let _ = std::io::copy(&mut self.stdout, &mut std::io::sink());
        self.child.wait().expect("server exits").code()
    }

    /// SIGKILL — the same observable as a power-cut for the process: no
    /// flush hooks, open commit windows die where they are.
    pub fn kill(mut self) {
        self.child.kill().expect("kill delivered");
        self.child.wait().expect("killed server reaped");
    }
}

/// Run `loadgen` with `args` to its end; returns its exit status and
/// what it printed to stdout (its stderr passes through).
pub fn loadgen(args: &[&str]) -> (ExitStatus, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .expect("loadgen binary runs");
    let stdout = String::from_utf8(out.stdout).expect("loadgen prints UTF-8");
    (out.status, stdout)
}

/// Every file beneath `dir` with its bytes, keyed by its path relative
/// to `dir` and sorted, for byte-identity assertions.
pub fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("data dir readable") {
            let entry = entry.unwrap();
            let path = entry.path();
            if entry.file_type().unwrap().is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    files.sort();
    files
}
