//! A minimal blocking HTTP/1.1 client for the daemon's control API, with
//! client-side timing of every call.

use crate::report::Outcome;
use crate::stats::median;
use jtelemetry::schema::{parse_json, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Pause between two status polls of one campaign.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// A campaign that is not done after this long counts as failed.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(120);

/// Sends one request and returns `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status code"))?;
    Ok((status, body.to_string()))
}

/// Client-side timings of the daemon's API, accumulated over campaigns.
#[derive(Default)]
pub struct Timings {
    pub submit_ms: Vec<f64>,
    pub status_ms: Vec<f64>,
    pub queue_wait_s: Vec<f64>,
    pub scrape_ms: Vec<f64>,
}

impl Timings {
    /// Fills the `daemon.*` rows with the median of each call.
    pub fn report(&self, out: &mut Outcome) {
        out.layer("daemon.submit_ms", median(&self.submit_ms));
        out.layer("daemon.status_ms", median(&self.status_ms));
        out.layer("daemon.queue_wait_s", median(&self.queue_wait_s));
        out.layer("daemon.metrics_scrape_ms", median(&self.scrape_ms));
    }
}

fn str_field(json: &Json, key: &str) -> String {
    match json.get(key) {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

/// Submits `spec`, then polls `GET /campaigns/{id}` until the campaign
/// reaches a terminal state, which it returns.
pub fn run_campaign(addr: SocketAddr, spec: &str, timings: &mut Timings) -> Result<String, String> {
    let submitted = Instant::now();
    let (status, body) = request(addr, "POST", "/campaigns", spec)?;
    timings
        .submit_ms
        .push(submitted.elapsed().as_secs_f64() * 1e3);
    if status != 201 {
        return Err(format!("submit returned {status}: {}", body.trim()));
    }
    let id = str_field(&parse_json(&body)?, "id");
    let path = format!("/campaigns/{id}");
    let mut running_seen = false;
    loop {
        let t = Instant::now();
        let (code, body) = request(addr, "GET", &path, "")?;
        timings.status_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if code != 200 {
            return Err(format!("status of {id} returned {code}"));
        }
        let json = parse_json(&body)?;
        let state = str_field(&json, "state");
        if !running_seen && state != "queued" {
            running_seen = true;
            timings.queue_wait_s.push(submitted.elapsed().as_secs_f64());
        }
        if matches!(
            state.as_str(),
            "done" | "cancelled" | "failed" | "interrupted"
        ) {
            return Ok(state);
        }
        if submitted.elapsed() > CAMPAIGN_TIMEOUT {
            return Err(format!(
                "campaign {id} still {state} after {CAMPAIGN_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}
