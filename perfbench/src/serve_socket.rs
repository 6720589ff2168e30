//! The socket pass of `oracle-batch`: `oracled` serves the compact `.seor`
//! image of the queried oracle. Every run checks the served answers; the
//! traced run also drives it over two closed-loop connections of 64-pair
//! `Distance` requests for the `net` layer metrics.

use crate::check::{identical, Bound, Checks, Reference};
use crate::inputs::{pairs, Refined};
use crate::measure::{median_time, Phase};
use crate::{Report, RunArgs};
use se_oracle::net::{
    decode_response, encode_request, encode_response, Connection, FrameReader, Request, Response,
};
use se_oracle::oracle::SeOracle;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use terrain::VertexId;

/// Closed-loop connections.
const CLIENTS: usize = 2;
/// Distinct requests per connection, cycled.
const REQUESTS: usize = 256;
/// Pairs per request.
const PAIRS: usize = 64;

/// A running `oracled`, stopped (and waited for) on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Held open (unread) until the daemon exits; it prints a handful of
    /// lines at shutdown, far below a pipe buffer.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `oracled` on an ephemeral loopback port and waits for its
    /// "listening on" line.
    fn spawn(oracled: &Path, image: &Path) -> Self {
        let mut child = Command::new(oracled)
            .arg("--image")
            .arg(image)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("starting {}: {e}", oracled.display()));
        let mut line = String::new();
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        out.read_line(&mut line).expect("reading oracled's first line");
        let addr = line
            .strip_prefix("oracled listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("oracled did not report its address: {line:?}");
        };
        Self { child, addr, _stdout: out }
    }

    fn request(&self, req: &Request) -> Response {
        let mut c = Connection::connect(self.addr).expect("connecting to oracled");
        c.roundtrip(req).expect("oracled roundtrip")
    }

    fn shutdown(mut self) {
        let _ = self.request(&Request::Shutdown { id: 0 });
        let status = self.child.wait().expect("waiting for oracled");
        assert!(status.success(), "oracled exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client's tally.
#[derive(Default)]
struct Client {
    phase: Phase,
    failed: u64,
    /// First answer to each distinct request; repeats must match it.
    first: Vec<Option<Vec<f64>>>,
    mismatches: u64,
}

/// Measured phase: `CLIENTS` closed-loop connections for `seconds`, after
/// a warm-up round on each.
fn measure(addr: SocketAddr, reqs: &[Vec<Request>], seconds: Duration) -> Vec<Client> {
    let barrier = Barrier::new(CLIENTS + 1);
    let start = std::sync::OnceLock::new();
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = reqs
            .iter()
            .map(|mine| {
                let (barrier, start) = (&barrier, &start);
                s.spawn(move || {
                    let mut conn = Connection::connect(addr).expect("connecting to oracled");
                    let mut c = Client { first: vec![None; mine.len()], ..Client::default() };
                    // One unrecorded warm-up round, which also collects the
                    // answers every measured repeat must equal.
                    for (k, req) in mine.iter().enumerate() {
                        if let Response::Distances { distances, .. } =
                            conn.roundtrip(req).expect("oracled roundtrip")
                        {
                            c.first[k] = Some(distances);
                        }
                    }
                    barrier.wait();
                    let start: Instant = *start.get_or_init(Instant::now);
                    'run: loop {
                        for (k, req) in mine.iter().enumerate() {
                            let t = Instant::now();
                            let resp = conn.roundtrip(req).expect("oracled roundtrip");
                            match resp {
                                Response::Distances { distances, .. } => {
                                    c.phase.record(start, t, distances.len() as u64);
                                    match &c.first[k] {
                                        Some(f) => {
                                            c.mismatches += identical(&distances, f).violations
                                        }
                                        None => c.first[k] = Some(distances),
                                    }
                                }
                                _ => {
                                    c.phase.record(start, t, 0);
                                    c.failed += PAIRS as u64;
                                }
                            }
                            if start.elapsed() >= seconds {
                                break 'run;
                            }
                        }
                    }
                    c
                })
            })
            .collect();
        barrier.wait();
        let _ = start.get_or_init(Instant::now);
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<Client>>()
    });
    clients
}

fn pairs_of(req: &Request) -> &[(u32, u32)] {
    match req {
        Request::Distance { pairs, .. } => pairs,
        _ => unreachable!("only distance requests are generated"),
    }
}

/// Writes `image` to the work directory and starts `oracled` on it.
fn serve(a: &RunArgs, image: &[u8], tag: &str) -> (Daemon, PathBuf) {
    let path = a.work.join(format!("serve-{tag}-{}-{}.seor", a.seed, std::process::id()));
    std::fs::write(&path, image).expect("writing the image");
    (Daemon::spawn(&a.oracled, &path), path)
}

/// Every run: `oracled` serves the compact image and answers the exact
/// reference's pairs in one request. The answers must meet the v2 bound
/// and the chord floor and equal an in-process replay of the same image
/// bit for bit; the self-test is run against the v2 bound too.
pub fn check(
    a: &RunArgs,
    image: &[u8],
    refined: &Refined,
    sites: &[VertexId],
    reference: &Reference,
) -> (bool, String) {
    let replay = SeOracle::load_bytes(image).expect("decoding the image");
    let (daemon, path) = serve(a, image, "check");
    let sample = match daemon.request(&Request::Distance { id: 2, pairs: reference.pairs.clone() })
    {
        Response::Distances { distances, .. } => distances,
        other => panic!("unexpected reply to the sample request: {other:?}"),
    };
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
    let checks = Checks {
        refined,
        sites,
        reference,
        bound: Bound::oracle_v2(),
        twin: Some((
            sample.clone(),
            replay.distance_many_checked(&reference.pairs).expect("replay"),
        )),
        sample,
    };
    let (pass, note) = checks.pass();
    let (self_test_ok, self_note) = checks.self_test();
    (pass && self_test_ok, format!("{note} (socket vs in-process replay); self-test: {self_note}"))
}

/// Traced run: the `net` layer metrics from `CLIENTS` closed-loop
/// connections of `PAIRS`-pair requests against `oracled` serving the
/// compact image, for a quarter of the run length, read back through the
/// `Metrics` verb. Every answer must equal the in-process replay; returns
/// whether all did.
pub fn net_layers(r: &mut Report, a: &RunArgs, image: &[u8]) -> bool {
    let replay = SeOracle::load_bytes(image).expect("decoding the image");
    let n = replay.n_sites();
    assert!(2 * PAIRS < n, "coalesced batches must stay below n_sites (two-slot scratch path)");
    let reqs: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|c| {
            (0..REQUESTS)
                .map(|k| {
                    let id = (c * REQUESTS + k) as u64;
                    Request::Distance { id, pairs: pairs(a.seed, 1000 + id, n, PAIRS) }
                })
                .collect()
        })
        .collect();
    let (daemon, path) = serve(a, image, "net");
    let mut clients = measure(daemon.addr, &reqs, a.seconds / 4);
    let metrics = match daemon.request(&Request::Metrics { id: 1 }) {
        Response::Metrics { text, .. } => text,
        other => panic!("unexpected reply to Metrics: {other:?}"),
    };
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
    let phase = Phase::merge(clients.iter_mut().map(|c| std::mem::take(&mut c.phase)));
    println!("# socket pass, {}", phase.note("64-pair request latency"));

    let mut bad: u64 = clients.iter().map(|c| c.mismatches + c.failed).sum();
    for (c, mine) in clients.iter().zip(&reqs) {
        for (got, req) in c.first.iter().zip(mine) {
            let want = replay.distance_many_checked(pairs_of(req)).expect("replay");
            bad += got.as_ref().map_or(1, |got| identical(got, &want).violations);
        }
    }
    println!("# socket pass: {bad} answers differing from the in-process replay or failed");

    let metric = |name: &str| {
        obs::lookup(&metrics, name)
            .unwrap_or_else(|| panic!("{name} missing from the Metrics text")) as f64
    };
    r.layers
        .insert("net.pairs_per_batch", metric("serve_pairs_total") / metric("serve_batches_total"));
    r.layers.insert("net.queue_depth_max", metric("serve_queue_depth_max"));

    // The request/response codec, timed around the protocol's public
    // functions, and the compute share, from the same replay.
    let flat: Vec<&Request> = reqs.iter().flatten().collect();
    let request_pairs: Vec<&[(u32, u32)]> = flat.iter().map(|q| pairs_of(q)).collect();
    let answers: Vec<Vec<f64>> =
        request_pairs.iter().map(|p| replay.distance_many_checked(p).expect("replay")).collect();
    let (codec_s, _) = median_time(5, || {
        for (q, d) in flat.iter().zip(&answers) {
            black_box(encode_request(q));
            let frame = encode_response(&Response::Distances { id: 0, distances: d.clone() });
            let mut fr = FrameReader::new();
            fr.feed(&frame);
            let payload = fr.next_payload().expect("frame").expect("whole frame");
            black_box(decode_response(&payload).expect("decode"));
        }
    });
    let (compute_s, _) = median_time(5, || {
        for p in &request_pairs {
            black_box(replay.distance_many_checked(p).expect("replay"));
        }
    });
    let codec_us = codec_s * 1e6 / flat.len() as f64;
    let compute_us = compute_s * 1e6 / flat.len() as f64;
    r.layers.insert("net.codec_us_per_req", codec_us);
    r.layers.insert("net.compute_us_per_req", compute_us);
    r.layers.insert("net.wait_us_per_req", phase.p50() - codec_us - compute_us);
    bad == 0
}
