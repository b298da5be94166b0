//! The decode server's TCP transport against live connections: a client
//! that disconnects mid-frame ends only its own connection, an idle
//! connection blocks no other, shutdown closes what is still open, and a
//! server with every connection worker taken answers `ERR_BUSY` and
//! stays up.

use lad_core::{ball_to_words, by_name, train_store};
use lad_graph::{generators, IdAssignment};
use lad_runtime::{Ball, MemoStep, Network};
use lad_serve::protocol::{
    encode_batch_request, read_frame, read_string, write_frame, BatchResult, ERR_BUSY, RESP_ERROR,
};
use lad_serve::{connection_workers, Client, DecodeServer};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest a test waits on the server: for `serve_tcp` to return
/// after a shutdown request, for a refusal, for a freed worker.
const WAIT: Duration = Duration::from_secs(10);

fn balanced_net(seed: u64) -> Network {
    let g = generators::random_even_degree(24, 3, 6, seed);
    let n = g.n();
    Network::with_ids(g, IdAssignment::random_permutation(n, seed ^ 0xFEED))
}

/// Query balls of every node of a fresh network, with the answers live
/// `eval` + `bind` give for them.
fn queries_and_answers(radius: usize) -> (Vec<Vec<u64>>, Vec<BatchResult>) {
    let schema = by_name("balanced").expect("registered");
    let net = balanced_net(41);
    let advice = schema.encode_advice(&net).expect("even degrees encode");
    let advised = net.with_inputs(advice.strings());
    net.graph()
        .nodes()
        .map(|v| {
            let ball = Ball::collect(&advised, v, radius);
            let MemoStep::Done(words) = schema.eval(&ball).expect("live eval") else {
                panic!("balanced ladder has no Expand rungs");
            };
            let answer = schema.bind(&ball, &words).expect("live bind");
            (ball_to_words(&ball), BatchResult::Answer(answer))
        })
        .unzip()
}

/// A server on a loopback port; `serve_tcp`'s result arrives on the
/// channel when it returns.
struct Live {
    addr: SocketAddr,
    radius: usize,
    done: mpsc::Receiver<io::Result<()>>,
    thread: JoinHandle<()>,
}

impl Live {
    fn start() -> Live {
        let schema = by_name("balanced").expect("registered");
        let training: Vec<Network> = (1..=3).map(balanced_net).collect();
        let store = train_store(&*schema, &training).expect("training");
        let server = Arc::new(DecodeServer::new(schema, store, false).expect("schemas match"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        let (tx, done) = mpsc::channel();
        let radius = server.radius();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(server.serve_tcp(&listener));
        });
        Live {
            addr,
            radius,
            done,
            thread,
        }
    }

    fn assert_serving(&self) {
        assert!(
            matches!(self.done.try_recv(), Err(mpsc::TryRecvError::Empty)),
            "serve_tcp returned while it should still be serving"
        );
    }

    /// Waits a bounded time for `serve_tcp` to return, and checks it
    /// returned `Ok`.
    fn assert_stopped(self) {
        let result = self
            .done
            .recv_timeout(WAIT)
            .expect("serve_tcp returned within the wait");
        result.expect("serve_tcp returned Ok");
        self.thread.join().expect("server thread");
    }
}

#[test]
fn truncated_frames_end_only_their_own_connection() {
    let live = Live::start();
    let (queries, answers) = queries_and_answers(live.radius);
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_batch_request(&queries[..1])).expect("encode");
    // Every proper prefix of a valid frame, the empty one and those that
    // end inside the 8-byte length prefix included, on a throwaway
    // connection each. The server must close each one without a reply.
    for cut in 0..frame.len() {
        let mut stream = TcpStream::connect(live.addr).expect("connect");
        stream.write_all(&frame[..cut]).expect("send the prefix");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("read until closed");
        assert!(
            reply.is_empty(),
            "cut at {cut}: got a {}-byte reply",
            reply.len()
        );
    }
    live.assert_serving();

    let mut client = Client::connect(live.addr).expect("connect");
    assert_eq!(client.batch(&queries).expect("batch"), answers);
    live.assert_serving();
    client.shutdown().expect("shutdown acknowledged");
    live.assert_stopped();
}

#[test]
fn idle_connection_blocks_no_other_and_shutdown_closes_it() {
    let live = Live::start();
    let (queries, answers) = queries_and_answers(live.radius);
    // A holds a worker: its round trip finished, so a worker serves it.
    let mut idle = Client::connect(live.addr).expect("connect A");
    idle.info().expect("A is served");

    let mut active = Client::connect(live.addr).expect("connect B");
    assert_eq!(active.batch(&queries).expect("B's batch"), answers);
    live.assert_serving();

    active.shutdown().expect("shutdown acknowledged");
    live.assert_stopped();
    // A never closed its end; the server closed it on the way out.
    assert!(idle.info().is_err(), "A outlived the server");
}

#[test]
fn a_full_server_answers_err_busy_and_stays_up() {
    let live = Live::start();
    let (queries, answers) = queries_and_answers(live.radius);
    let mut served: Vec<Client<TcpStream>> = (0..connection_workers())
        .map(|i| {
            let mut client = Client::connect(live.addr).expect("connect");
            client
                .info()
                .unwrap_or_else(|e| panic!("client {i} not served: {e}"));
            client
        })
        .collect();

    // One more finds every worker taken. It sends nothing, so the close
    // that follows the reply is a clean one.
    let mut extra = TcpStream::connect(live.addr).expect("connect");
    extra.set_read_timeout(Some(WAIT)).expect("timeout");
    let reply = read_frame(&mut extra)
        .expect("read the refusal")
        .expect("a refusal frame");
    assert_eq!(reply[..2], [RESP_ERROR, ERR_BUSY]);
    let message = read_string(&mut reply[2..].iter()).expect("message");
    assert!(!message.is_empty());
    assert_eq!(read_frame(&mut extra).expect("closed"), None);
    live.assert_serving();

    for client in &mut served {
        assert_eq!(client.batch(&queries).expect("served batch"), answers);
    }
    // A finished connection frees its worker for the next arrival. The
    // worker notices the close on its own schedule, so poll for it.
    drop(served.pop());
    let deadline = Instant::now() + WAIT;
    let mut next = loop {
        let mut client = Client::connect(live.addr).expect("connect");
        if client.info().is_ok() {
            break client;
        }
        assert!(
            Instant::now() < deadline,
            "the freed worker never came back"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(next.batch(&queries).expect("batch"), answers);
    next.shutdown().expect("shutdown acknowledged");
    live.assert_stopped();
}
