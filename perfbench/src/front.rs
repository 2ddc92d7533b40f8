//! A timing decorator around each service front, and the wire-codec leg
//! measured over the traffic it samples.

use crate::hist::LogHistogram;
use httpnet::http::{parse_request, read_response, serialize_response_head, write_request};
use httpnet::{Handler, Request, Response, Server, ServerConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use webfront::{Front, SimFronts};

/// Requests whose path hashes to 0 modulo this are sampled for the wire
/// leg: a deterministic ~0.2% of the traffic.
const SAMPLE_MODULUS: u64 = 512;
/// Sampled exchanges kept per front.
const SAMPLE_CAP: usize = 256;

/// FNV-1a, 64-bit.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// What one front's decorator counted.
#[derive(Default)]
pub struct FrontStats {
    pub body_bytes: AtomicU64,
    pub handle_ns: AtomicU64,
    /// Handler latency of every request the front served.
    pub latency_ns: LogHistogram,
    pub sample: Mutex<Vec<(Request, Response)>>,
}

struct Timed<F> {
    front: Arc<F>,
    stats: Arc<FrontStats>,
}

impl<F: Front> Handler for Timed<F> {
    fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        let resp = self.front.handle(req);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let s = &self.stats;
        s.handle_ns.fetch_add(ns, Ordering::Relaxed);
        s.body_bytes
            .fetch_add(resp.body.len() as u64, Ordering::Relaxed);
        s.latency_ns.record(ns);
        if fnv(req.path().as_bytes()).is_multiple_of(SAMPLE_MODULUS) {
            let mut sample = s
                .sample
                .lock()
                .expect("sample lock poisoned by a panicking handler");
            if sample.len() < SAMPLE_CAP {
                sample.push((req.clone(), resp.clone()));
            }
        }
        resp
    }
}

/// The four services, each front wrapped in the timing decorator.
pub struct Services {
    /// Servers in dissenter, gab, reddit, youtube order.
    pub servers: Vec<Server>,
}

fn launch<F: Front + 'static>(
    front: Arc<F>,
    base: &ServerConfig,
    stats: &Arc<FrontStats>,
) -> std::io::Result<Server> {
    // The decorator keeps the configuration the front asks for.
    let config = front.server_config(base);
    Server::start(
        Arc::new(Timed {
            front,
            stats: stats.clone(),
        }),
        config,
    )
}

impl Services {
    /// Start one decorated server per front, as `SimServices::start_with`
    /// does undecorated. `stats` (dissenter, gab, reddit, youtube) collect
    /// what each decorator counts.
    pub fn start(
        fronts: SimFronts,
        base: &ServerConfig,
        stats: &[Arc<FrontStats>; 4],
    ) -> std::io::Result<Self> {
        Ok(Self {
            servers: vec![
                launch(fronts.dissenter, base, &stats[0])?,
                launch(fronts.gab, base, &stats[1])?,
                launch(fronts.reddit, base, &stats[2])?,
                launch(fronts.youtube, base, &stats[3])?,
            ],
        })
    }

    /// Crawler endpoints of the four servers.
    pub fn endpoints(&self) -> crawler::Endpoints {
        let addr = |i: usize| self.servers[i].addr();
        crawler::Endpoints {
            dissenter: addr(0),
            gab: addr(1),
            reddit: addr(2),
            youtube: addr(3),
        }
    }
}

fn headers(h: &httpnet::Headers) -> Vec<(String, String)> {
    h.iter()
        .map(|(n, v)| (n.to_owned(), v.to_owned()))
        .collect()
}

/// Round-trip one request through `write_request` → `parse_request`.
fn request_round_trip(req: &Request, buf: &mut Vec<u8>) -> Result<Request, String> {
    buf.clear();
    write_request(req, buf).map_err(|e| format!("write_request: {e}"))?;
    match parse_request(buf) {
        Ok(Some((parsed, used))) if used == buf.len() => Ok(parsed),
        Ok(Some((_, used))) => Err(format!(
            "parse_request consumed {used} of {} bytes",
            buf.len()
        )),
        Ok(None) => Err("parse_request wants more bytes than write_request wrote".into()),
        Err(e) => Err(format!("parse_request: {e}")),
    }
}

/// Round-trip one response through `serialize_response_head` (+ body) →
/// `read_response`.
fn response_round_trip(resp: &Response, buf: &mut Vec<u8>) -> Result<Response, String> {
    buf.clear();
    serialize_response_head(resp, buf);
    buf.extend_from_slice(&resp.body);
    read_response(&mut buf.as_slice()).map_err(|e| format!("read_response: {e}"))
}

/// Check that every sampled exchange survives the codec, then time the
/// codec over the sample. Returns `(request ns/op, response ns/op)`.
pub fn wire_leg(sample: &[(Request, Response)]) -> Result<(f64, f64), String> {
    if sample.is_empty() {
        return Err("the decorators sampled no traffic for the wire leg".into());
    }
    let mut buf = Vec::new();
    for (req, resp) in sample {
        let parsed = request_round_trip(req, &mut buf)?;
        let same = parsed.method == req.method
            && parsed.target == req.target
            && headers(&parsed.headers) == headers(&req.headers)
            && parsed.body == req.body;
        if !same {
            return Err(format!(
                "request {} {} changed on the wire",
                req.method, req.target
            ));
        }
        let parsed = response_round_trip(resp, &mut buf)?;
        // The head serializer adds Content-Length when the front left it out.
        let mut want = headers(&resp.headers);
        if !want
            .iter()
            .any(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        {
            want.push(("Content-Length".into(), resp.body.len().to_string()));
        }
        if parsed.status != resp.status
            || headers(&parsed.headers) != want
            || parsed.body != resp.body
        {
            return Err(format!("response to {} changed on the wire", req.target));
        }
    }
    const ROUNDS: usize = 16;
    let ops = (ROUNDS * sample.len()) as f64;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for (req, _) in sample {
            black_box(request_round_trip(black_box(req), &mut buf)?);
        }
    }
    let request_ns = started.elapsed().as_secs_f64() * 1e9 / ops;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for (_, resp) in sample {
            black_box(response_round_trip(black_box(resp), &mut buf)?);
        }
    }
    let response_ns = started.elapsed().as_secs_f64() * 1e9 / ops;
    Ok((request_ns, response_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn wire_leg_round_trips_and_rejects_an_empty_sample() {
        assert!(wire_leg(&[]).is_err());
        let mut req = Request::get("/discussion/begin?url=https%3A%2F%2Fexample.com%2Fa");
        req.headers.add("Cookie", "session=crawler:both");
        req.headers.add("If-None-Match", "\"00000000000000ff\"");
        let resp = Response::html("<html>ok</html>".into());
        let mut not_modified = Response::not_modified(resp.headers.clone());
        not_modified.headers.add("ETag", "\"00000000000000ff\"");
        let (req_ns, resp_ns) =
            wire_leg(&[(req.clone(), resp), (req, not_modified)]).expect("round trips");
        assert!(req_ns > 0.0 && resp_ns > 0.0);
    }
}
