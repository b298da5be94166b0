//! The `serve-*` workloads: a `DecodeServer` in its own process, opened
//! from a saved dictionary and queried over loopback TCP.
//!
//! Each run trains and saves the dictionary, then starts one fresh server
//! process per phase from that same file, so every phase begins from the
//! same server state. The open loop, at a constant offered rate, gives the
//! latency percentiles; the traced run's closed loop gives the throughput.
//! Every answer is compared with `eval` + `bind` computed outside the
//! server.

use crate::stats::{mean, median, percentile, ratio, timed, Rng};
use crate::trace::Tracer;
use crate::Outcome;
use lad_core::{ball_from_words, ball_to_words, by_name, query_key, train_store, ServedSchema};
use lad_graph::{generators, IdAssignment, NodeId};
use lad_runtime::store::ClassStore;
use lad_runtime::{Ball, CanonScratch, MemoStep, Network};
use lad_serve::protocol::{
    decode_batch_response, encode_batch_request, read_frame, write_frame, BatchResult,
};
use lad_serve::{Client, DecodeServer};
use std::collections::{HashSet, VecDeque};
use std::io::{self, BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which serving mix a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Balanced-orientation dictionary; every query hits a class that is
    /// already past its early verifications; batches of 1–16.
    Hits,
    /// Cluster-coloring dictionary of at least 10⁴ classes with
    /// append-back; about one query in ten is a never-seen class; batches
    /// of 1, 16 and 64.
    Mixed,
}

/// Fixed parameters of one serving mix.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The mix.
    pub mix: Mix,
    /// Requests of the traced run's closed loop.
    pub closed_requests: usize,
    /// Requests of the open loop; the traced run sends half.
    pub open_requests: usize,
    /// Offered rate of the open-loop phase, requests per second.
    pub open_rate: f64,
    /// Training networks behind the dictionary.
    pub train_nets: usize,
    /// Nodes per training network.
    pub train_size: usize,
    /// Distinct hit balls queries are drawn from.
    pub hit_pool: usize,
    /// Fewest classes the trained dictionary may hold; fewer fails the run.
    pub min_classes: usize,
    /// Times every hit ball is sent to a fresh server before a phase is
    /// measured.
    pub warm_hits: usize,
}

/// Offered rates, requests per second: a twelfth of the hits mix's and a
/// sixth of the mixed mix's closed-loop request rate at the commit that
/// introduced the benchmark, on a 2-core x86-64 virtual machine whose speed
/// dropped by up to two thirds for a minute at a time. With a busy process
/// holding one of the two cores, the hits server fell behind at 1,500 and
/// once at 750 requests per second, because it spawns threads for every
/// batch; at 500 it kept up. They are constants so that a faster server
/// shows as lower latency at the same load.
const HITS_RATE: f64 = 500.0;
const MIXED_RATE: f64 = 300.0;
/// Closed-loop request rates on the same box; they size the traced run's
/// closed loop to its share of `--seconds`.
const HITS_CLOSED_RATE: f64 = 6_000.0;
const MIXED_CLOSED_RATE: f64 = 2_000.0;
/// Requests in flight in the closed loop. With one, the figure would be a
/// sum of wake-up latencies of an idle client and server, which on a 2-core
/// virtual machine moved by ±30% between runs; with a few in flight the
/// server always has the next request waiting, so the figure is its
/// throughput.
const WINDOW: usize = 4;
/// Requests of the traced run's one-at-a-time loop that gives
/// `serve.rtt_us`.
const RTT_REQUESTS: usize = 2_000;
/// Segments of the closed loop; its throughput is the median segment, so
/// a passing slowdown of the machine moves a few segments, not the figure.
const CLOSED_SEGMENTS: usize = 6;
/// Shares of `--seconds` given to the traced run's closed loop and to the
/// untraced run's open loop.
const CLOSED_SHARE: f64 = 0.15;
const OPEN_SHARE: f64 = 0.85;
/// One query in `MISS_EVERY` of the mixed mix is a never-seen class.
const MISS_EVERY: u64 = 10;
/// Set-ups per run, for the median set-up time. Each set-up's server
/// serves its share of the open loop before the next set-up starts.
const SETUP_REPEATS: usize = 5;
/// An open loop is invalid when half its sends ran later than this: the
/// generator fell behind its schedule. (Single late sends happen whenever
/// the machine stalls; they count in the latencies, timed from the due
/// time.) …
const MAX_LAG_P50_MS: f64 = 1.0;
/// … or when this much offered work was still queued at its end.
const MAX_BACKLOG_S: f64 = 0.25;

/// The plan of mix `mix` for a run of `seconds`.
pub fn plan(mix: Mix, seconds: u64) -> Plan {
    let s = seconds as f64;
    match mix {
        Mix::Hits => Plan {
            mix,
            closed_requests: (s * CLOSED_SHARE * HITS_CLOSED_RATE) as usize,
            open_requests: (s * OPEN_SHARE * HITS_RATE) as usize,
            open_rate: HITS_RATE,
            train_nets: 64,
            train_size: 128,
            hit_pool: 256,
            min_classes: 1,
            // The server re-verifies a class at hit counts 1, 2, 4, …; after
            // 64 warm-up hits the next check is at 128, so the hits mix
            // measures hits that are past their early verifications.
            warm_hits: 64,
        },
        Mix::Mixed => Plan {
            mix,
            closed_requests: (s * CLOSED_SHARE * MIXED_CLOSED_RATE) as usize,
            open_requests: (s * OPEN_SHARE * MIXED_RATE) as usize,
            open_rate: MIXED_RATE,
            train_nets: 400,
            train_size: 32,
            hit_pool: 4_096,
            min_classes: 10_000,
            // One warm-up hit per ball: the first-hit verification of every
            // class and the growth of the server's per-class tables happen
            // before the clock starts, while verifications at hit counts 2,
            // 4 and 8 still fall inside the measured phases.
            warm_hits: 1,
        },
    }
}

impl Plan {
    fn schema_name(&self) -> &'static str {
        match self.mix {
            Mix::Hits => "balanced",
            Mix::Mixed => "cluster",
        }
    }
}

fn net_for(mix: Mix, size: usize, seed: u64) -> Network {
    let g = match mix {
        Mix::Hits => generators::random_even_degree(size, 3, 6, seed),
        Mix::Mixed => generators::random_regular(size, 3, seed),
    };
    let n = g.n();
    Network::with_ids(g, IdAssignment::random_permutation(n, seed ^ 0x1D5))
}

/// Training networks of a run: a pure function of the workload seed.
pub fn training_nets(plan: &Plan, seed: u64) -> Vec<Network> {
    let mut rng = Rng::new(seed, 2);
    (0..plan.train_nets)
        .map(|_| net_for(plan.mix, plan.train_size, rng.next_u64()))
        .collect()
}

/// One query: serialized ball words at the radius where its class answers,
/// and the answer `eval` + `bind` give outside the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Serialized ball.
    pub words: Vec<u64>,
    /// Expected answer words.
    pub expected: Vec<u64>,
}

/// Runs the live ladder for `nodes` of `net`.
fn resolve(
    schema: &dyn ServedSchema,
    net: &Network,
    nodes: &[NodeId],
) -> Result<Vec<Query>, String> {
    let advice = schema
        .encode_advice(net)
        .map_err(|e| format!("encoding a query network: {e}"))?;
    let advised = net.with_inputs(advice.strings());
    nodes
        .iter()
        .map(|&v| {
            let mut radius = schema.initial_radius();
            for _ in 0..64 {
                let ball = Ball::collect(&advised, v, radius);
                match schema
                    .eval(&ball)
                    .map_err(|e| format!("evaluating a query: {e}"))?
                {
                    MemoStep::Done(class) => {
                        let expected = schema
                            .bind(&ball, &class)
                            .map_err(|e| format!("binding a query: {e}"))?;
                        return Ok(Query {
                            words: ball_to_words(&ball),
                            expected,
                        });
                    }
                    MemoStep::Expand(r) => radius = r,
                }
            }
            Err(format!("the ladder did not resolve at {v:?}"))
        })
        .collect()
}

/// Which query a request slot carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Index into the hit pool.
    Hit(usize),
    /// Index into the miss pool; each is sent once per server.
    Miss(usize),
}

/// The request schedule: batches of slots, a pure function of the seed.
pub fn schedule(plan: &Plan, seed: u64, requests: usize) -> Vec<Vec<Slot>> {
    let mut rng = Rng::new(seed, 3);
    let mut misses = 0;
    (0..requests)
        .map(|_| {
            let size = match plan.mix {
                Mix::Hits => 1 + rng.below(16) as usize,
                Mix::Mixed => [1, 16, 64][rng.below(3) as usize],
            };
            (0..size)
                .map(|_| {
                    if plan.mix == Mix::Mixed && rng.below(MISS_EVERY) == 0 {
                        misses += 1;
                        Slot::Miss(misses - 1)
                    } else {
                        Slot::Hit(rng.below(plan.hit_pool as u64) as usize)
                    }
                })
                .collect()
        })
        .collect()
}

/// Everything a run sends, with the answers it expects.
pub struct Inputs {
    /// Balls whose classes the dictionary holds.
    pub hits: Vec<Query>,
    /// Balls of never-seen, pairwise distinct classes.
    pub misses: Vec<Query>,
    /// Requests, longest phase first.
    pub requests: Vec<Vec<Slot>>,
}

impl Inputs {
    fn query(&self, slot: Slot) -> &Query {
        match slot {
            Slot::Hit(i) => &self.hits[i],
            Slot::Miss(i) => &self.misses[i],
        }
    }

    fn words(&self, request: &[Slot]) -> Vec<Vec<u64>> {
        request
            .iter()
            .map(|&s| self.query(s).words.clone())
            .collect()
    }

    fn misses_in(&self, requests: &[Vec<Slot>]) -> usize {
        requests
            .iter()
            .flatten()
            .filter(|s| matches!(s, Slot::Miss(_)))
            .count()
    }
}

/// Builds the queries of a run from the seed and the trained dictionary.
pub fn inputs(
    plan: &Plan,
    seed: u64,
    training: &[Network],
    store: &ClassStore<Vec<u64>>,
) -> Result<Inputs, String> {
    let schema = by_name(plan.schema_name()).ok_or("unregistered schema")?;
    let mut rng = Rng::new(seed, 4);
    let picks: Vec<(usize, NodeId)> = (0..plan.hit_pool)
        .map(|_| {
            let net = rng.below(training.len() as u64) as usize;
            let n = training[net].graph().n() as u64;
            (net, NodeId::from_index(rng.below(n) as usize))
        })
        .collect();
    // Resolve net by net, so each training net is encoded once.
    let mut hits: Vec<Option<Query>> = vec![None; picks.len()];
    for (i, net) in training.iter().enumerate() {
        let mine: Vec<usize> = (0..picks.len()).filter(|&p| picks[p].0 == i).collect();
        let nodes: Vec<NodeId> = mine.iter().map(|&p| picks[p].1).collect();
        for (p, q) in mine.into_iter().zip(resolve(&*schema, net, &nodes)?) {
            hits[p] = Some(q);
        }
    }
    let hits: Vec<Query> = hits.into_iter().flatten().collect();
    let requests = schedule(plan, seed, plan.closed_requests.max(plan.open_requests));
    let needed = requests
        .iter()
        .flatten()
        .filter(|s| matches!(s, Slot::Miss(_)))
        .count();
    let mut misses = Vec::with_capacity(needed);
    let mut seen = HashSet::new();
    let mut scratch = CanonScratch::new();
    let mut fresh = Rng::new(seed, 5);
    while misses.len() < needed {
        let net = net_for(plan.mix, plan.train_size, fresh.next_u64());
        let nodes: Vec<NodeId> = net.graph().nodes().collect();
        for q in resolve(&*schema, &net, &nodes)? {
            let ball = ball_from_words(&q.words).map_err(|e| e.to_string())?;
            let key = query_key(&ball, &mut scratch);
            if store.get(&key).is_none() && seen.insert(key) && misses.len() < needed {
                misses.push(q);
            }
        }
    }
    Ok(Inputs {
        hits,
        misses,
        requests,
    })
}

/// A scratch directory of the run inside the working directory, removed
/// when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench_work/<pid>-<n>` under the working directory,
    /// unique to this run even when runs share a process.
    ///
    /// # Errors
    ///
    /// I/O failures creating it.
    pub fn new() -> io::Result<Self> {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(".perfbench_work").join(format!("{}-{run}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// The server side of the `serve-child` command: open the saved
/// dictionary, print the bound port, serve with append-back until shut
/// down, then print the peak heap in use. Append-back is on for both mixes,
/// so a query of the hits mix that missed would grow the dictionary and
/// fail the run's growth check. The server exits when its parent closes
/// its stdin, so it never outlives a run.
pub fn serve_child(schema_name: &str, store_path: &str) -> ExitCode {
    let Some(schema) = by_name(schema_name) else {
        eprintln!("serve-child: unknown schema {schema_name:?}");
        return ExitCode::FAILURE;
    };
    let expected = schema.schema_id();
    let store = match ClassStore::open(store_path, Some(&expected)) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("serve-child: opening {store_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match DecodeServer::new(schema, store, true) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve-child: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind("127.0.0.1:0").and_then(|l| {
        let port = l.local_addr()?.port();
        Ok((l, port))
    }) {
        Ok((listener, port)) => {
            println!("PORT {port}");
            listener
        }
        Err(e) => {
            eprintln!("serve-child: binding loopback: {e}");
            return ExitCode::FAILURE;
        }
    };
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        std::process::exit(0);
    });
    match server.serve_tcp(&listener) {
        Ok(()) => {
            println!("PEAK_HEAP_MB {}", crate::heap::peak_mb());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve-child: serving failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running server process and one client connection to it.
struct ServerProc {
    child: Child,
    /// The server's standard output, which reports its peak heap at exit.
    out: BufReader<ChildStdout>,
    client: Client<TcpStream>,
    /// A second handle on the client's socket, for the open loop's reader
    /// and writer.
    stream: TcpStream,
    classes: usize,
}

impl ServerProc {
    /// Starts a server on `store` and waits for its first `REQ_INFO` reply.
    fn start(exe: &Path, plan: &Plan, store: &Path) -> io::Result<Self> {
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg(plan.schema_name())
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut out = child.stdout.take().map(BufReader::new);
        let port = out.as_mut().and_then(|out| {
            let mut line = String::new();
            out.read_line(&mut line).ok()?;
            line.trim().strip_prefix("PORT ")?.parse::<u16>().ok()
        });
        let (Some(port), Some(out)) = (port, out) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("the server did not report its port"));
        };
        let stream = TcpStream::connect(("127.0.0.1", port));
        let stream = match stream.and_then(|s| s.set_nodelay(true).map(|()| s)) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut proc = ServerProc {
            child,
            out,
            client: Client::over(stream.try_clone()?),
            stream,
            classes: 0,
        };
        proc.classes = proc.client.info()?.classes;
        Ok(proc)
    }

    fn classes(&mut self) -> io::Result<usize> {
        Ok(self.client.info()?.classes)
    }

    /// Shuts the server down and returns its peak heap in MB.
    fn shutdown(mut self) -> io::Result<f64> {
        self.client.shutdown()?;
        let mut line = String::new();
        self.out.read_line(&mut line)?;
        self.child.wait()?;
        line.trim()
            .strip_prefix("PEAK_HEAP_MB ")
            .and_then(|mb| mb.parse().ok())
            .ok_or_else(|| io::Error::other("the server did not report its peak heap"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Counts answers that differ from the expected ones.
fn wrong(inputs: &Inputs, request: &[Slot], results: &[BatchResult]) -> u64 {
    let mut bad = request.len().abs_diff(results.len()) as u64;
    for (slot, result) in request.iter().zip(results) {
        match result {
            BatchResult::Answer(words) if *words == inputs.query(*slot).expected => {}
            other => {
                if bad == 0 {
                    eprintln!("wrong answer: {other:?}");
                }
                bad += 1;
            }
        }
    }
    bad
}

/// Tallies of one run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, queries: usize, failed: u64) {
        self.attempted += queries as u64;
        self.failed += failed;
    }
}

/// Sends every hit ball `plan.warm_hits` times, round-robin in batches of
/// 16, so every phase starts from the same warmed server state.
fn warm(
    server: &mut ServerProc,
    plan: &Plan,
    inputs: &Inputs,
    tally: &mut Tally,
) -> io::Result<()> {
    let slots: Vec<Slot> = (0..plan.warm_hits)
        .flat_map(|_| (0..inputs.hits.len()).map(Slot::Hit))
        .collect();
    for request in slots.chunks(16) {
        let results = server.client.batch(&inputs.words(request))?;
        tally.add(request.len(), wrong(inputs, request, &results));
    }
    Ok(())
}

/// Checks that a phase appended exactly one class per miss it sent.
fn check_growth(
    server: &mut ServerProc,
    inputs: &Inputs,
    requests: &[Vec<Slot>],
    tally: &mut Tally,
) -> io::Result<()> {
    let grown = server.classes()?.saturating_sub(server.classes);
    let misses = inputs.misses_in(requests);
    if grown != misses {
        eprintln!("the dictionary grew by {grown} classes for {misses} misses");
        tally.failed += grown.abs_diff(misses).max(1) as u64;
    }
    Ok(())
}

/// Closed loop on one connection with `window` requests in flight: the
/// next request is sent when an answer arrives. Returns queries per second
/// of each of `CLOSED_SEGMENTS` segments and each request's round trip in
/// seconds.
fn closed_loop(
    server: &mut ServerProc,
    inputs: &Inputs,
    requests: &[Vec<Slot>],
    window: usize,
    tally: &mut Tally,
) -> io::Result<(Vec<f64>, Vec<f64>)> {
    let mut reader = BufReader::new(server.stream.try_clone()?);
    let writer = &mut server.stream;
    let send = |writer: &mut TcpStream, request: &[Slot]| {
        write_frame(writer, &encode_batch_request(&inputs.words(request)))
    };
    let mut sent_at = VecDeque::with_capacity(window);
    let mut rtts = Vec::with_capacity(requests.len());
    let mut segment_qps = Vec::new();
    let per_segment = requests.len().div_ceil(CLOSED_SEGMENTS).max(1);
    let (mut segment_start, mut segment_queries) = (Instant::now(), 0);
    for request in requests.iter().take(window) {
        sent_at.push_back(Instant::now());
        send(writer, request)?;
    }
    for (i, request) in requests.iter().enumerate() {
        let frame = read_frame(&mut reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let sent = sent_at.pop_front().expect("one send per answer");
        rtts.push(sent.elapsed().as_secs_f64());
        if let Some(next) = requests.get(i + window) {
            sent_at.push_back(Instant::now());
            send(writer, next)?;
        }
        let results = decode_batch_response(&frame)?;
        tally.add(request.len(), wrong(inputs, request, &results));
        segment_queries += request.len();
        if (i + 1) % per_segment == 0 || i + 1 == requests.len() {
            segment_qps.push(segment_queries as f64 / segment_start.elapsed().as_secs_f64());
            (segment_start, segment_queries) = (Instant::now(), 0);
        }
    }
    Ok((segment_qps, rtts))
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
struct OpenLoop {
    /// Per-request latency from due time to answer, seconds.
    latencies: Vec<f64>,
    /// Per-request send lag behind the schedule, seconds.
    lags: Vec<f64>,
    /// Whether the generator kept up and the queue stayed bounded.
    valid: bool,
}

/// Open loop at `rate` requests per second on one pipelined connection:
/// one thread sleeps until each request is due and sends it, the calling
/// thread reads the answers in order.
fn open_loop(
    server: &mut ServerProc,
    inputs: &Inputs,
    requests: &[Vec<Slot>],
    rate: f64,
    tally: &mut Tally,
) -> io::Result<OpenLoop> {
    let mut writer = server.stream.try_clone()?;
    let mut reader = BufReader::new(server.stream.try_clone()?);
    let received = AtomicUsize::new(0);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let tail = requests.len() - requests.len() / 10;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + gap * i as u32;
    let mut out = OpenLoop {
        latencies: Vec::with_capacity(requests.len()),
        ..OpenLoop::default()
    };
    let (lags, tail_backlog) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<(Vec<f64>, usize)> {
            let mut lags = Vec::with_capacity(requests.len());
            let mut tail_backlog = 0;
            for (i, request) in requests.iter().enumerate() {
                // Built when due, so the generator holds one request at a
                // time rather than the whole schedule.
                let frame = encode_batch_request(&inputs.words(request));
                let now = Instant::now();
                if now < due(i) {
                    std::thread::sleep(due(i) - now);
                }
                lags.push(
                    Instant::now()
                        .saturating_duration_since(due(i))
                        .as_secs_f64(),
                );
                if i >= tail {
                    tail_backlog = tail_backlog.max(i - received.load(Ordering::Relaxed));
                }
                write_frame(&mut writer, &frame)?;
            }
            Ok((lags, tail_backlog))
        });
        for (i, request) in requests.iter().enumerate() {
            let frame = read_frame(&mut reader)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
            out.latencies.push(
                Instant::now()
                    .saturating_duration_since(due(i))
                    .as_secs_f64(),
            );
            received.store(i + 1, Ordering::Relaxed);
            let results = decode_batch_response(&frame)?;
            tally.add(request.len(), wrong(inputs, request, &results));
        }
        sender.join().expect("the sender thread does not panic")
    })?;
    let lag_p50_ms = median(&lags) * 1e3;
    let backlog_limit = (rate * MAX_BACKLOG_S).ceil() as usize;
    out.valid = lag_p50_ms <= MAX_LAG_P50_MS && tail_backlog <= backlog_limit;
    if !out.valid {
        eprintln!(
            "open loop invalid: send lag p50 {lag_p50_ms:.3} ms, tail backlog {tail_backlog} \
             requests (limit {backlog_limit})"
        );
    }
    out.lags = lags;
    Ok(out)
}

/// One timed set-up: train, save, start a server and wait for its first
/// `REQ_INFO` reply. Returns the server, the store and the part times.
struct SetUp {
    server: ServerProc,
    store: ClassStore<Vec<u64>>,
    training: Vec<Network>,
    total_s: f64,
    train_s: f64,
    save_s: f64,
}

fn set_up(exe: &Path, plan: &Plan, seed: u64, path: &Path) -> Result<SetUp, String> {
    let start = Instant::now();
    let schema = by_name(plan.schema_name()).ok_or("unregistered schema")?;
    let ((training, store), train_s) = timed(|| {
        let training = training_nets(plan, seed);
        let store = train_store(&*schema, &training);
        (training, store)
    });
    let store = store.map_err(|e| format!("training failed: {e}"))?;
    let (saved, save_s) = timed(|| store.save(path));
    saved.map_err(|e| format!("saving the dictionary: {e}"))?;
    let server =
        ServerProc::start(exe, plan, path).map_err(|e| format!("starting the server: {e}"))?;
    Ok(SetUp {
        server,
        store,
        training,
        total_s: start.elapsed().as_secs_f64(),
        train_s,
        save_s,
    })
}

fn io_err(e: io::Error) -> String {
    format!("serving I/O: {e}")
}

/// Runs one serving workload and returns its outcome. `exe` is this
/// benchmark's executable, which serves as the server process through its
/// `serve-child` command.
///
/// # Errors
///
/// A set-up or transport failure that leaves nothing to measure.
pub fn run(exe: &Path, plan: &Plan, seed: u64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let work = WorkDir::new().map_err(|e| format!("creating the work directory: {e}"))?;
    let path = work.file("dictionary.lads");
    let first = set_up(exe, plan, seed, &path)?;
    let inputs = inputs(plan, seed, &first.training, &first.store)?;
    let classes_start = first.store.len();
    let mut tally = Tally::default();
    if classes_start < plan.min_classes {
        eprintln!(
            "the dictionary holds {classes_start} classes, below {}",
            plan.min_classes
        );
        tally.failed += 1;
    }
    if tracer.enabled() {
        return traced(exe, plan, &inputs, first, &path, tracer, tally);
    }

    // The open loop is split over `SETUP_REPEATS` server processes in turn,
    // each set up afresh and warmed the same way. A server process's speed
    // varies from process to process, and the median over all of them does
    // not; and the set-ups, spread over the run, are not all caught by one
    // slow spell of the machine.
    let open = &inputs.requests[..plan.open_requests];
    let (mut setup_s, mut latencies, mut heap) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = Some(first);
    for part in open.chunks(open.len().div_ceil(SETUP_REPEATS).max(1)) {
        let setup = match next.take() {
            Some(setup) => setup,
            None => set_up(exe, plan, seed, &path)?,
        };
        setup_s.push(setup.total_s);
        let mut server = setup.server;
        warm(&mut server, plan, &inputs, &mut tally).map_err(io_err)?;
        let measured =
            open_loop(&mut server, &inputs, part, plan.open_rate, &mut tally).map_err(io_err)?;
        check_growth(&mut server, &inputs, part, &mut tally).map_err(io_err)?;
        heap.push(server.shutdown().map_err(io_err)?);
        if !measured.valid {
            tally.failed += part.iter().map(Vec::len).sum::<usize>() as u64;
        }
        latencies.extend(measured.latencies);
    }

    let mut out = Outcome::new(tally.attempted);
    out.failed = tally.failed;
    out.put("setup_s", median(&setup_s));
    out.put("peak_heap_mb", median(&heap));
    out.put("latency_p50_ms", median(&latencies) * 1e3);
    Ok(out)
}

/// The traced run: the same set-up and transport, then the recorded
/// request stream replayed in-process against servers opened from the
/// same saved dictionary, so each layer can be timed from outside.
fn traced(
    exe: &Path,
    plan: &Plan,
    inputs: &Inputs,
    setup: SetUp,
    path: &Path,
    tracer: &mut Tracer,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let classes_start = setup.store.len();
    let mut server = setup.server;
    // A halved open loop keeps the traced run within the same time budget
    // as the untraced one, which the in-process replay then fills.
    let closed = &inputs.requests[..plan.closed_requests];
    warm(&mut server, plan, inputs, &mut tally).map_err(io_err)?;
    let (qps, _) = closed_loop(&mut server, inputs, closed, WINDOW, &mut tally).map_err(io_err)?;
    let one_by_one = &inputs.requests[..closed.len().min(RTT_REQUESTS)];
    let (_, rtts) = closed_loop(&mut server, inputs, one_by_one, 1, &mut tally).map_err(io_err)?;
    server.shutdown().map_err(io_err)?;

    let open = &inputs.requests[..plan.open_requests / 2];
    let mut server = ServerProc::start(exe, plan, path).map_err(io_err)?;
    warm(&mut server, plan, inputs, &mut tally).map_err(io_err)?;
    let measured =
        open_loop(&mut server, inputs, open, plan.open_rate, &mut tally).map_err(io_err)?;
    server.shutdown().map_err(io_err)?;
    if !measured.valid {
        tally.failed += open.iter().map(Vec::len).sum::<usize>() as u64;
    }

    let replay = &inputs.requests[..plan.open_requests / 2];
    let open_server = |tally: &mut Tally| -> Result<(DecodeServer, f64), String> {
        let schema = by_name(plan.schema_name()).ok_or("unregistered schema")?;
        let expected = schema.schema_id();
        let (store, open_s) = timed(|| ClassStore::open(path, Some(&expected)));
        let store = store.map_err(|e| format!("opening the dictionary: {e}"))?;
        let server = DecodeServer::new(schema, store, true).map_err(|e| e.to_string())?;
        let mut scratch = CanonScratch::new();
        for _ in 0..plan.warm_hits {
            for (i, q) in inputs.hits.iter().enumerate() {
                let result = server.answer_query(&q.words, &mut scratch);
                tally.add(1, wrong(inputs, &[Slot::Hit(i)], &[result]));
            }
        }
        Ok((server, open_s))
    };
    let replay_start = Instant::now();
    let spans_before = tracer.len();

    // Whole requests through `handle_request`, with the frame codec on
    // memory around them.
    let (by_request, open_s) = open_server(&mut tally)?;
    let mut request_s = Vec::new();
    let mut frame_s = Vec::new();
    for (id, request) in replay.iter().enumerate() {
        let id = id as u64;
        let queries = inputs.words(request);
        let t = Instant::now();
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_batch_request(&queries)).map_err(io_err)?;
        let frame = read_frame(&mut wire.as_slice())
            .map_err(io_err)?
            .unwrap_or_default();
        let codec_in = t.elapsed().as_secs_f64();
        tracer.record("frame", None, id, t);
        let t = Instant::now();
        let (response, _) = by_request.handle_request(&frame);
        request_s.push(t.elapsed().as_secs_f64());
        tracer.record("handle_request", None, id, t);
        let t = Instant::now();
        let mut wire = Vec::new();
        write_frame(&mut wire, &response).map_err(io_err)?;
        let back = read_frame(&mut wire.as_slice())
            .map_err(io_err)?
            .unwrap_or_default();
        let results = decode_batch_response(&back).map_err(io_err)?;
        frame_s.push(codec_in + t.elapsed().as_secs_f64());
        tracer.record("frame", None, id, t);
        tally.add(request.len(), wrong(inputs, request, &results));
    }

    // The same stream through `handle_batch`.
    let (by_batch, _) = open_server(&mut tally)?;
    let mut batch_s = Vec::new();
    for (id, request) in replay.iter().enumerate() {
        let queries = inputs.words(request);
        let refs: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
        let t = Instant::now();
        let results = by_batch.handle_batch(&refs);
        batch_s.push(t.elapsed().as_secs_f64());
        tracer.record("handle_batch", None, id as u64, t);
        tally.add(request.len(), wrong(inputs, request, &results));
    }

    // The same stream one `answer_query` at a time, with parse, key, eval
    // and bind timed on the same balls right after each answer.
    let (by_query, _) = open_server(&mut tally)?;
    let schema = by_name(plan.schema_name()).ok_or("unregistered schema")?;
    let mut scratch = CanonScratch::new();
    let (mut answer_s, mut parse_s, mut key_s, mut bind_s, mut eval_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (id, request) in replay.iter().enumerate() {
        let id = id as u64;
        let t_request = Instant::now();
        let mut children = Vec::new();
        for &slot in request {
            let q = inputs.query(slot);
            let before = by_query.stats();
            let t = Instant::now();
            let result = by_query.answer_query(&q.words, &mut scratch);
            answer_s.push(t.elapsed().as_secs_f64());
            children.push(tracer.record("answer_query", None, id, t));
            tally.add(1, wrong(inputs, &[slot], &[result]));
            let after = by_query.stats();

            let t = Instant::now();
            let ball = ball_from_words(&q.words).map_err(|e| e.to_string())?;
            parse_s.push(t.elapsed().as_secs_f64());
            children.push(tracer.record("parse", None, id, t));
            let t = Instant::now();
            std::hint::black_box(query_key(&ball, &mut scratch));
            key_s.push(t.elapsed().as_secs_f64());
            children.push(tracer.record("key", None, id, t));
            let evaluated = after.misses > before.misses || after.verified > before.verified;
            let t = Instant::now();
            let step = schema.eval(&ball).map_err(|e| e.to_string())?;
            if evaluated {
                eval_s.push(t.elapsed().as_secs_f64());
                children.push(tracer.record("eval", None, id, t));
            }
            let MemoStep::Done(class) = step else {
                return Err("a resolved query needs a deeper radius".into());
            };
            let t = Instant::now();
            std::hint::black_box(schema.bind(&ball, &class).map_err(|e| e.to_string())?);
            bind_s.push(t.elapsed().as_secs_f64());
            children.push(tracer.record("bind", None, id, t));
        }
        let span = tracer.record("request", None, id, t_request);
        for child in children {
            tracer.set_parent(child, span);
        }
    }
    let replay_s = replay_start.elapsed().as_secs_f64();
    let stats = by_query.stats();

    let mut out = Outcome::new(tally.attempted);
    out.failed = tally.failed;
    let us = |xs: &[f64]| mean(xs) * 1e6;
    let queries = answer_s.len() as f64;
    let per_request = ratio(queries, replay.len() as f64);
    let parts =
        us(&parse_s) + us(&key_s) + us(&bind_s) + us(&eval_s) * ratio(eval_s.len() as f64, queries);
    out.put("serve.rtt_us", median(&rtts) * 1e6);
    out.put(
        "serve.latency_p99_ms",
        percentile(&measured.latencies, 99.0) * 1e3,
    );
    out.put("serve.frame_us", us(&frame_s));
    out.put("serve.handle_request_us", us(&request_s));
    out.put("serve.handle_batch_us", us(&batch_s));
    out.put("serve.answer_query_us", us(&answer_s));
    out.put("serve.request_self_us", us(&request_s) - us(&batch_s));
    out.put(
        "serve.batch_self_us",
        us(&batch_s) - us(&answer_s) * per_request,
    );
    out.put("serve.unattributed_us", us(&answer_s) - parts);
    out.put("core.served.parse_us", us(&parse_s));
    out.put("core.served.key_us", us(&key_s));
    out.put("core.served.bind_us", us(&bind_s));
    out.put("core.served.eval_us", us(&eval_s));
    out.put("serve.hits", stats.hits as f64);
    out.put("serve.misses", stats.misses as f64);
    out.put("serve.verified", stats.verified as f64);
    out.put("serve.appended", stats.appended as f64);
    out.put("serve.errors", stats.errors as f64);
    out.put(
        "serve.hit_rate",
        ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
    );
    out.put(
        "serve.verify_share",
        ratio(stats.verified as f64, stats.hits as f64),
    );
    out.put("runtime.store.open_s", open_s);
    out.put("runtime.store.save_s", setup.save_s);
    out.put(
        "runtime.store.bytes",
        std::fs::metadata(path).map_or(0.0, |m| m.len() as f64),
    );
    out.put("runtime.store.classes_start", classes_start as f64);
    out.put("runtime.store.classes_end", by_query.class_count() as f64);
    out.put("core.served.train_s", setup.train_s);
    out.put("gen.lag_p99_ms", percentile(&measured.lags, 99.0) * 1e3);
    out.put("gen.requests", open.len() as f64);
    out.put(
        "gen.queries",
        open.iter().map(Vec::len).sum::<usize>() as f64,
    );
    out.put("trace.outputs_per_s", median(&qps));
    out.put("trace.spans", tracer.len() as f64);
    out.put(
        "trace.overhead_share",
        ratio(
            (tracer.len() - spans_before) as f64 * crate::trace::span_cost_s(),
            replay_s,
        ),
    );
    Ok(out)
}
