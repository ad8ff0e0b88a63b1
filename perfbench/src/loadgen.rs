//! Open-loop request generator.
//!
//! Readers arrive whether or not the server keeps up, so requests are
//! sent on a fixed schedule — request `i` is due `i / rate` seconds after
//! the start. A request whose client was still waiting on the server at
//! its due time is timed from the due time, not from when it could be
//! sent: a stall makes every request queued behind it late, and that wait
//! is counted. A client that was idle but woke late is the generator's
//! own lateness; that request is timed from when it was sent, and the
//! lateness is recorded apart.
//!
//! At most `threads` client threads run, each holding at most one
//! connection. Requests ask for HTTP/1.1 keep-alive and a connection is
//! reused when the server leaves it open; connections opened are counted
//! so that a keep-alive change shows.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{Kind, Request};
use crate::stats;

/// Socket read/write timeout: far beyond any latency limit, so a hung
/// exchange fails instead of stalling the run.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One sent request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub kind: Kind,
    /// Sent minus due, in microseconds.
    pub late_us: f64,
    /// Response complete minus due (minus sent, when the client was idle
    /// at the due time and woke late), in microseconds.
    pub latency_us: f64,
    /// 2xx, and the body equal to the expected one where one was given.
    pub ok: bool,
}

/// A finished run: outcomes in schedule order, connections opened, and
/// seconds from the first request's due time to the last response.
pub struct Run {
    pub outcomes: Vec<Outcome>,
    pub connects: u64,
    pub secs: f64,
}

impl Run {
    /// Runs one after another, as one: outcomes in order, connections
    /// and seconds summed.
    pub fn pooled(runs: &[Run]) -> Run {
        Run {
            outcomes: runs.iter().flat_map(|r| r.outcomes.iter().copied()).collect(),
            connects: runs.iter().map(|r| r.connects).sum(),
            secs: runs.iter().map(|r| r.secs).sum(),
        }
    }
}

/// When request `i` of a schedule at `rate` requests per second is due.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Send `count` requests at `rate`, taking `plan[(first + i) % len]` as
/// request `i`; `expected[j]`, when set, is the body plan entry `j` must
/// be answered with.
pub fn run(
    addr: SocketAddr,
    plan: &[Request],
    expected: &[Option<Vec<u8>>],
    first: usize,
    count: usize,
    rate: f64,
    threads: usize,
) -> Run {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let per_thread: Vec<(Vec<(usize, Outcome)>, u64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client {
                        addr,
                        conn: None,
                        connects: 0,
                    };
                    let mut outcomes = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let due = start + due_offset(i, rate);
                        let free = Instant::now();
                        if due > free {
                            std::thread::sleep(due - free);
                        }
                        let sent = Instant::now();
                        // A client still busy at the due time was held up by
                        // the server, and that wait counts; a client that was
                        // idle but woke late only shows the generator's own
                        // lateness, which is reported apart.
                        let timed_from = if free >= due { due } else { sent };
                        let j = (first + i) % plan.len();
                        let ok = match client.exchange(&plan[j].raw) {
                            Ok((status, body)) => {
                                (200..300).contains(&status)
                                    && expected[j].as_ref().is_none_or(|e| *e == body)
                            }
                            Err(_) => false,
                        };
                        let done = Instant::now();
                        let micros = |d: Duration| d.as_secs_f64() * 1e6;
                        outcomes.push((
                            i,
                            Outcome {
                                kind: plan[j].kind,
                                late_us: micros(sent.saturating_duration_since(due)),
                                latency_us: micros(done.saturating_duration_since(timed_from)),
                                ok,
                            },
                        ));
                    }
                    (outcomes, client.connects)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let secs = Instant::now()
        .saturating_duration_since(start)
        .as_secs_f64();
    let connects = per_thread.iter().map(|(_, c)| c).sum();
    let mut indexed: Vec<(usize, Outcome)> = per_thread.into_iter().flat_map(|(o, _)| o).collect();
    indexed.sort_by_key(|(i, _)| *i);
    Run {
        outcomes: indexed.into_iter().map(|(_, o)| o).collect(),
        connects,
        secs,
    }
}

/// One client thread's connection.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    /// Send one request and read its response: `(status, body)`. A failed
    /// exchange is not retried, so every transport error counts; the
    /// connection is dropped and the next request opens a fresh one.
    fn exchange(&mut self, raw: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let result = conn
            .get_mut()
            .write_all(raw)
            .and_then(|()| read_response(conn));
        match result {
            Ok((status, body, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Read one response framed by `Content-Length`: `(status, body,
/// whether the connection stays open)`.
fn read_response(reader: &mut impl BufRead) -> io::Result<(u16, Vec<u8>, bool)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut length, mut keep_alive) = (0usize, true);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok((status, body, keep_alive))
}

/// A run's latency and lateness summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub requests: usize,
    pub failed: usize,
    /// Requests answered per second over the run.
    pub rps: f64,
    pub p50_ms: f64,
    /// The tail percentile the sample count supports, in per mille.
    pub tail_pm: u32,
    pub tail_ms: f64,
    /// Generator lateness at the tail percentile.
    pub late_tail_ms: f64,
    /// Median lateness over the last tenth of the schedule: a backlog
    /// that grew during the run shows here.
    pub backlog_ms: f64,
}

impl Summary {
    pub fn of(run: &Run) -> Summary {
        let ms = |f: fn(&Outcome) -> f64| -> Vec<f64> {
            run.outcomes.iter().map(|o| f(o) / 1e3).collect()
        };
        let latency = ms(|o| o.latency_us);
        let late = ms(|o| o.late_us);
        let requests = latency.len();
        let tail_pm = stats::tail_per_mille(requests);
        Summary {
            requests,
            failed: run.outcomes.iter().filter(|o| !o.ok).count(),
            rps: requests as f64 / run.secs,
            p50_ms: stats::median(&latency),
            tail_pm,
            tail_ms: stats::percentile(&latency, tail_pm),
            late_tail_ms: stats::percentile(&late, tail_pm),
            backlog_ms: stats::median(&late[requests - requests / 10..]),
        }
    }

    /// Tail latency and backlog within `limit_ms`, and at most
    /// `max_fail_frac` of the requests failed.
    pub fn meets(&self, limit_ms: f64, max_fail_frac: f64) -> bool {
        self.tail_ms <= limit_ms
            && self.backlog_ms <= limit_ms
            && self.failed as f64 <= max_fail_frac * self.requests as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_rate_alone() {
        assert_eq!(due_offset(0, 100.0), Duration::ZERO);
        assert_eq!(due_offset(150, 100.0), Duration::from_millis(1_500));
        assert_eq!(due_offset(5, 125.0), Duration::from_millis(40));
        let offsets: Vec<Duration> = (0..1_000).map(|i| due_offset(i, 381.0)).collect();
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
    }

    fn outcome(late_ms: f64, latency_ms: f64, ok: bool) -> Outcome {
        Outcome {
            kind: Kind::Healthz,
            late_us: late_ms * 1e3,
            latency_us: latency_ms * 1e3,
            ok,
        }
    }

    #[test]
    fn a_growing_backlog_or_failures_miss_the_limit() {
        let on_time = Run {
            outcomes: (0..200).map(|_| outcome(0.1, 3.0, true)).collect(),
            connects: 200,
            secs: 2.0,
        };
        let summary = Summary::of(&on_time);
        assert_eq!(summary.tail_pm, 950);
        assert!(summary.meets(25.0, 0.01));

        // Latency stays low, but the generator falls further behind as
        // the run goes on.
        let behind = Run {
            outcomes: (0..200)
                .map(|i| outcome(i as f64 * 0.2, 3.0, true))
                .collect(),
            connects: 200,
            secs: 2.0,
        };
        let summary = Summary::of(&behind);
        assert!(summary.backlog_ms > 25.0);
        assert!(!summary.meets(25.0, 0.01));

        let failing = Run {
            outcomes: (0..200).map(|i| outcome(0.1, 3.0, i % 50 != 0)).collect(),
            connects: 200,
            secs: 2.0,
        };
        assert!(!Summary::of(&failing).meets(25.0, 0.01));
    }

    #[test]
    fn responses_are_framed_by_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                    Content-Length: 2\r\nConnection: close\r\n\r\n{}HTTP/1.1";
        let (status, body, keep_alive) = read_response(&mut &raw[..]).unwrap();
        assert_eq!(
            (status, body.as_slice(), keep_alive),
            (200, &b"{}"[..], false)
        );
        let open = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(
            read_response(&mut &open[..]).unwrap(),
            (404, Vec::new(), true)
        );
        assert!(read_response(&mut &b"HTTP/1.1 200 OK\r\n"[..]).is_err());
    }
}
