//! Driving the real `rlckit-server` binary over TCP: spawning it, reading
//! its reply lines, and the closed-loop load generator.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{Ending, Timing};

/// A running daemon, shut down gracefully by [`Daemon::stop`] and killed on
/// drop if still alive.
pub struct Daemon {
    child: Child,
    addr: String,
    /// Kept open so the daemon never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    /// Spawns `server` on a free local port with `args`, and waits for its
    /// listening line and a `pong`. Returns the daemon and the seconds from
    /// spawn to `pong`. The port is found free just before the daemon binds
    /// it, so another process can take it in between: a failed start is
    /// retried on a new port.
    pub fn spawn(server: &Path, args: &[String]) -> Result<(Self, f64), String> {
        let mut failure = String::new();
        for _ in 0..3 {
            match Self::spawn_once(server, args) {
                Ok(started) => return Ok(started),
                Err(e) => failure = e,
            }
        }
        Err(failure)
    }

    fn spawn_once(server: &Path, args: &[String]) -> Result<(Self, f64), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let start = Instant::now();
        let mut child = Command::new(server)
            .arg("--addr")
            .arg(&addr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", server.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let _ = stderr.read_line(&mut line);
        let mut daemon = Self { child, addr, _stderr: stderr };
        if !line.contains("listening") {
            daemon.kill();
            return Err(format!("daemon did not start: {}", line.trim()));
        }
        let mut conn = daemon.connect()?;
        conn.send("{\"op\":\"ping\"}")?;
        let pong = conn.recv()?;
        if pong != "{\"type\":\"pong\"}" {
            return Err(format!("expected pong, got {pong}"));
        }
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    /// A new connection to the daemon.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// The daemon's cumulative `stats` reply.
    pub fn stats(&self) -> Result<String, String> {
        let mut conn = self.connect()?;
        conn.send("{\"op\":\"stats\"}")?;
        conn.recv()
    }

    /// Peak resident set of the daemon (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.send("{\"op\":\"shutdown\"}")?;
        let _ = conn.recv();
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("daemon did not exit after shutdown".to_owned());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kb / 1024.0)
}

/// One line-oriented connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self { reader: BufReader::new(stream), writer })
    }

    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).map_err(|e| format!("send: {e}"))
    }

    /// Reads one reply line (without its newline).
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => {
                line.pop();
                Ok(line)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// The text of field `key` in a flat reply line: a number, `true`/`false`,
/// a string's contents, or an array's raw text without brackets.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    // Finds `"key":` without building the pattern: the client reads a line
    // per cell, and allocating here would compete with the daemon for CPU.
    let mut from = 0;
    let start = loop {
        let at = from + line[from..].find(key)?;
        let end = at + key.len();
        if line[..at].ends_with('"') && line[end..].starts_with("\":") {
            break end + 2;
        }
        from = at + 1;
    };
    let rest = &line[start..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|e| &s[..e]);
    }
    if let Some(s) = rest.strip_prefix('[') {
        return s.find(']').map(|e| &s[..e]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// A number field of a reply line.
pub fn number(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// FNV-1a digest of a cell's `values` text or of a scenario key. Records
/// and the correctness check keep digests rather than the text, since a run
/// at the daemon's full rate answers millions of cells.
pub fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Everything the client saw of one request.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index of the request in its stream.
    pub request: usize,
    /// Timing and ending.
    pub timing: Timing,
    /// [`digest`] of each cell line's raw `values` array text, in arrival
    /// order (`None` for a failed cell).
    pub cells: Vec<Option<u64>>,
    /// The raw `values` text of each cell line (`None` for a failed cell),
    /// kept only by [`round_trip`].
    pub values: Vec<Option<String>>,
    /// Whether cell `k` was the `k`-th cell line, for every cell.
    pub in_order: bool,
    /// `(evaluated, cached, failed, cancelled)` from the `done` line.
    pub done: Option<[u64; 4]>,
}

/// Reads the replies of one request sent at `sent` seconds after `epoch`,
/// keeping each cell's `values` text if `keep_values`.
fn read_reply(
    reader: &mut BufReader<TcpStream>,
    epoch: Instant,
    request: usize,
    sent: f64,
    keep_values: bool,
) -> Result<Record, String> {
    let mut record = Record {
        request,
        timing: Timing { sent, first_cell: None, end: 0.0, ending: Ending::Done },
        cells: Vec::new(),
        values: Vec::new(),
        in_order: true,
        done: None,
    };
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))? == 0 {
            return Err("daemon closed the connection mid-request".to_owned());
        }
        let now = epoch.elapsed().as_secs_f64();
        match field(&line, "type") {
            Some("ack") => {}
            Some("cell") => {
                record.timing.first_cell.get_or_insert(now);
                let index = number(&line, "index").ok_or("cell without index")? as usize;
                record.in_order &= index == record.cells.len();
                let values = field(&line, "values");
                record.cells.push(values.map(digest));
                if keep_values {
                    record.values.push(values.map(str::to_owned));
                }
            }
            Some("done") => {
                let counts = ["evaluated", "cached", "failed", "cancelled"]
                    .map(|k| number(&line, k).unwrap_or(u64::MAX));
                record.done = Some(counts);
                record.timing.end = now;
                if counts[2] > 0 || counts[3] > 0 {
                    record.timing.ending = Ending::PartlyFailed;
                }
                return Ok(record);
            }
            Some("error") | Some("reject") => {
                record.timing.end = now;
                record.timing.ending = if field(&line, "type") == Some("reject") {
                    Ending::Reject
                } else {
                    Ending::Error
                };
                return Ok(record);
            }
            _ => return Err(format!("unexpected reply line {}", line.trim_end())),
        }
    }
}

/// Sends one request and reads its replies, `values` text included, on an
/// idle connection.
pub fn round_trip(
    conn: &mut Conn,
    epoch: Instant,
    request: usize,
    line: &str,
) -> Result<Record, String> {
    let sent = epoch.elapsed().as_secs_f64();
    conn.send(line)?;
    read_reply(&mut conn.reader, epoch, request, sent, true)
}

/// Closed loop: `clients` connections each send their next request (the
/// line `request(i)` gives for the next unsent index `i`) as soon as the
/// previous `done` arrives, until `seconds` have passed or `request` has no
/// more. Returns every completed request, without `values` text.
pub fn closed_loop(
    daemon: &Daemon,
    request: &(dyn Fn(usize) -> Option<String> + Sync),
    clients: usize,
    seconds: f64,
) -> Result<Vec<Record>, String> {
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let results: Vec<Result<Vec<Record>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                s.spawn(move || -> Result<Vec<Record>, String> {
                    let mut conn = daemon.connect()?;
                    let mut records = Vec::new();
                    while epoch.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = request(i) else { break };
                        let sent = epoch.elapsed().as_secs_f64();
                        conn.send(&line)?;
                        records.push(read_reply(&mut conn.reader, epoch, i, sent, false)?);
                    }
                    Ok(records)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut records = Vec::new();
    for r in results {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.request);
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_reply_lines() {
        let cell = "{\"type\":\"cell\",\"id\":\"r1\",\"index\":3,\"labels\":[\"5\"],\"values\":[1.5,null],\"cached\":true}";
        assert_eq!(field(cell, "type"), Some("cell"));
        assert_eq!(number(cell, "index"), Some(3));
        assert_eq!(field(cell, "values"), Some("1.5,null"));
        assert_eq!(field(cell, "cached"), Some("true"));
        let done = "{\"type\":\"done\",\"id\":\"r1\",\"evaluated\":4,\"cached\":1,\"failed\":0,\"cancelled\":0}";
        assert_eq!(number(done, "cancelled"), Some(0));
        assert_eq!(number(done, "evaluated"), Some(4));
    }
}
