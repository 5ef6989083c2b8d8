//! The fleet TCP wire against misbehaving peers, driven over raw
//! sockets so the tests control every byte and every pause:
//!
//! * a producer that pauses mid-frame for longer than the server's
//!   read slice still gets its `BatchAck` (the pause is not mistaken
//!   for idleness, so the stream stays in sync);
//! * a 0.9.0 producer's JSON-bodied `Batch` gets a loud `Err` reply
//!   and ingests nothing, and the refused sequence number stays free;
//! * a peer stalled mid-frame cannot hold a server stop hostage.

use profileme_core::{encode_batch, ProfileDatabase, ProfileMeConfig, Sample, Session};
use profileme_serve::{FleetConfig, FleetServer, FleetService, ServeConfig, TenantQuota};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

struct Stream {
    program: profileme_isa::Program,
    samples: Vec<Sample>,
    interval: u64,
}

fn stream() -> &'static Stream {
    static STREAM: OnceLock<Stream> = OnceLock::new();
    STREAM.get_or_init(|| {
        let w = profileme_workloads::compress(300);
        let run = Session::builder(w.program.clone())
            .memory(w.memory.clone())
            .sampling(ProfileMeConfig {
                mean_interval: 16,
                ..Default::default()
            })
            .build()
            .expect("config is valid")
            .profile_single()
            .expect("workload completes");
        assert!(run.samples.len() >= 128, "stream too thin");
        Stream {
            program: w.program,
            interval: run.db.interval(),
            samples: run.samples,
        }
    })
}

struct Server {
    svc: Arc<FleetService<ProfileDatabase>>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    addr: std::net::SocketAddr,
}

fn start() -> Server {
    let s = stream();
    let quota = TenantQuota {
        rate_per_sec: u64::MAX / 4,
        burst: u64::MAX / 4,
        queue_share: u64::MAX / 4,
    };
    let svc = Arc::new(
        FleetService::start(
            ProfileDatabase::new(&s.program, s.interval),
            ServeConfig::builder().shards(1).build().unwrap(),
            FleetConfig::uniform(1, quota),
        )
        .expect("fleet starts"),
    );
    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run().expect("accept loop runs"));
    Server {
        svc,
        stop,
        handle,
        addr,
    }
}

impl Server {
    fn offered(&self) -> u64 {
        self.svc.stats().tenants[0].offered
    }

    /// Stops the accept loop and every handler, failing the test if
    /// that takes longer than `budget`.
    fn stop_within(self, budget: Duration) {
        self.stop.store(true, Ordering::Release);
        let (done, joined) = mpsc::channel();
        let handle = self.handle;
        std::thread::spawn(move || done.send(handle.join().is_ok()));
        let clean = joined
            .recv_timeout(budget)
            .unwrap_or_else(|_| panic!("server did not stop within {budget:?}"));
        assert!(clean, "accept loop panicked");
        let svc = Arc::try_unwrap(self.svc)
            .unwrap_or_else(|_| panic!("service still shared after the server stopped"));
        drop(svc.shutdown().expect("fleet drains"));
    }
}

/// CRC-32 (zlib), bit by bit: the frame checksum, independent of the
/// server's table-driven implementation.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn read_reply(sock: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; 8];
    sock.read_exact(&mut header).expect("reply header");
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    sock.read_exact(&mut payload).expect("reply payload");
    assert_eq!(
        crc32(&payload),
        u32::from_le_bytes(header[4..].try_into().unwrap())
    );
    payload
}

/// Connects and completes the Hello exchange for tenant 0.
fn hello(addr: std::net::SocketAddr) -> TcpStream {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    sock.set_nodelay(true).expect("nodelay");
    let mut payload = vec![0x01];
    payload.extend_from_slice(&0u32.to_le_bytes());
    sock.write_all(&frame(&payload)).expect("send Hello");
    assert_eq!(read_reply(&mut sock)[0], 0x81, "HelloAck");
    sock
}

fn batch(seq: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = vec![0x02];
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(body);
    frame(&payload)
}

fn binary_batch(seq: u64, samples: &[Sample]) -> Vec<u8> {
    let mut body = Vec::new();
    encode_batch(samples, &mut body);
    batch(seq, &body)
}

/// Asserts `reply` is a BatchAck for `seq` admitting `admitted`.
fn assert_acked(reply: &[u8], seq: u64, admitted: u64) {
    assert_eq!(
        reply[0],
        0x82,
        "expected BatchAck, got {:?}",
        String::from_utf8_lossy(reply)
    );
    assert_eq!(u64::from_le_bytes(reply[1..9].try_into().unwrap()), seq);
    assert_eq!(
        u64::from_le_bytes(reply[10..18].try_into().unwrap()),
        admitted
    );
}

/// Longer than the server's 50 ms read slice.
const PAUSE: Duration = Duration::from_millis(200);

#[test]
fn batch_split_by_a_pause_longer_than_the_read_slice_is_acked() {
    let server = start();
    let mut sock = hello(server.addr);
    let samples = &stream().samples[..64];

    // Pause inside the payload.
    let frame1 = binary_batch(1, samples);
    let (head, tail) = frame1.split_at(frame1.len() / 2);
    sock.write_all(head).expect("first half");
    std::thread::sleep(PAUSE);
    sock.write_all(tail).expect("second half");
    assert_acked(&read_reply(&mut sock), 1, 64);

    // Pause inside the frame header.
    let frame2 = binary_batch(2, samples);
    sock.write_all(&frame2[..3]).expect("header prefix");
    std::thread::sleep(PAUSE);
    sock.write_all(&frame2[3..]).expect("rest of frame");
    assert_acked(&read_reply(&mut sock), 2, 64);

    assert_eq!(server.offered(), 128);
    drop(sock);
    server.stop_within(Duration::from_secs(10));
}

#[test]
fn json_bodied_batch_from_a_0_9_0_producer_is_refused_loudly() {
    let server = start();
    let mut sock = hello(server.addr);
    let samples = &stream().samples[..32];

    let json = serde_json::to_string(samples).expect("samples serialize");
    sock.write_all(&batch(1, json.as_bytes()))
        .expect("send JSON Batch");
    let reply = read_reply(&mut sock);
    assert_eq!(reply[0], 0x7F, "a JSON body must earn an Err reply");
    let message = String::from_utf8_lossy(&reply[1..]);
    assert!(
        message.contains("sample batch"),
        "Err names the cause: {message}"
    );
    assert_eq!(server.offered(), 0, "a refused batch ingests nothing");

    // The refusal consumed no sequence number: the same seq, binary,
    // is ingested on the same connection.
    sock.write_all(&binary_batch(1, samples))
        .expect("send binary Batch");
    assert_acked(&read_reply(&mut sock), 1, 32);
    assert_eq!(server.offered(), 32);
    drop(sock);
    server.stop_within(Duration::from_secs(10));
}

#[test]
fn server_stop_completes_while_a_peer_stalls_mid_frame() {
    let server = start();
    let mut sock = hello(server.addr);
    let frame = binary_batch(1, &stream().samples[..16]);
    sock.write_all(&frame[..frame.len() / 2])
        .expect("half a frame");
    std::thread::sleep(PAUSE);
    server.stop_within(Duration::from_secs(10));
    assert_eq!(
        sock.read(&mut [0u8; 1]).ok(),
        Some(0),
        "the stalled connection is closed, unanswered"
    );
}
