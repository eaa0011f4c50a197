//! The `serve` side of the benchmark: starting `qof_server::serve` on a
//! reopened `.qofx` file, and the load generator's own HTTP client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use qof_core::FileDatabase;
use qof_corpus::bibtex;
use qof_pat::json::{self, Json};
use qof_server::{serve, QueryLog, ServerConfig, ServerHandle};

use crate::mix::Answer;

/// How long the client waits for a reply before counting an error.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A keep-alive HTTP/1.1 connection that sends every request in a single
/// write with `TCP_NODELAY` set, so any stall it measures is the server's.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request and reads the reply: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes())?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            let mut h = String::new();
            self.reader.read_line(&mut h)?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        let mut buf = vec![0u8; length];
        self.reader.read_exact(&mut buf)?;
        String::from_utf8(buf).map(|b| (status, b)).map_err(|_| bad("body is not UTF-8"))
    }
}

/// A `/query` reply: the answer plus the server's own `total_nanos`.
pub fn parse_reply(body: &str) -> Result<(Answer, u64), String> {
    let doc = Json::parse(body)?;
    let obj = doc.as_obj().ok_or("reply is not an object")?;
    let results = usize::try_from(json::get_u64(obj, "results")?).map_err(|e| e.to_string())?;
    let total = json::get_u64(obj, "total_nanos")?;
    // `SELECT r.Key` values arrive as quoted key atoms.
    let values = json::get_str_arr(obj, "values")?
        .into_iter()
        .map(|v| v.trim_matches('"').to_owned())
        .collect();
    Ok((Answer { results, ref_keys: None, values }, total))
}

/// A started server with the timings of its start.
pub struct Started {
    pub handle: ServerHandle,
    /// `FileDatabase::open` of the `.qofx` file.
    pub open: Duration,
    /// `serve()` up to the first `200` from `/healthz`.
    pub ready: Duration,
    pub index_bytes: u64,
}

/// Opens `qofx` and serves it on a loopback port with the default server
/// configuration, logging to a real file at `log`; returns once `/healthz`
/// answers `200`.
pub fn start(qofx: &Path, log: &Path) -> Result<Started, String> {
    let t = Instant::now();
    let db = FileDatabase::open(qofx, bibtex::schema()).map_err(|e| e.to_string())?;
    let open = t.elapsed();
    let index_bytes = db.index_bytes();
    let t = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let file = std::fs::File::create(log).map_err(|e| e.to_string())?;
    let handle = serve(db, listener, QueryLog::new(Box::new(file)), &ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(handle.addr()).map_err(|e| e.to_string())?;
    let (status, body) = conn.request("GET", "/healthz", "").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/healthz answered {status}: {body}"));
    }
    Ok(Started { handle, open, ready: t.elapsed(), index_bytes })
}
