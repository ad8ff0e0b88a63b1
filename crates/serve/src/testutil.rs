//! Shared helpers for the in-crate test suites: tiny trained artifact
//! sets and a bare-bones blocking HTTP client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::artifacts::ServeArtifacts;
use wikistale_core::checkpoint::CheckpointManifest;
use wikistale_core::experiment::ExperimentConfig;
use wikistale_core::filters::FilterPipeline;
use wikistale_synth::{generate, SynthConfig};
use wikistale_wikicube::binio;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Generate a tiny synthetic corpus, checkpoint it, load it back through
/// the verified path, and clean up the directory.
pub fn tiny_artifacts() -> ServeArtifacts {
    let dir = std::env::temp_dir().join(format!(
        "wikistale-serve-testutil-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = generate(&SynthConfig::tiny());
    let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
    let bytes = binio::encode(&filtered);
    binio::write_bytes_atomic(&dir.join("filter.wcube"), &bytes).unwrap();
    let mut manifest = CheckpointManifest::new("testutilfp");
    manifest.record_stage("filter", "filter.wcube", &bytes);
    manifest.save(&dir).unwrap();
    let artifacts = ServeArtifacts::load(&dir, &ExperimentConfig::default()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    artifacts
}

/// Send raw request bytes, read the whole response, return
/// `(status, full response text)`.
pub fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, text)
}

/// `GET target` against `addr`.
pub fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    raw_request(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

/// `POST target` with a JSON `body` against `addr`.
pub fn http_post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    raw_request(
        addr,
        format!(
            "POST {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
             Content-Type: application/json\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Percent-encode a path segment (everything but unreserved bytes).
pub fn encode_segment(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The body of a response (after the blank line).
pub fn body_of(response: &str) -> &str {
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => body,
        None => "",
    }
}
