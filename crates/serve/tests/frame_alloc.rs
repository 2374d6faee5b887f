//! A length prefix allocates only what arrives. Both frame readers — the
//! wire's `read_frame` and the query server's connection loop — are fed a
//! header announcing `MAX_FRAME` bytes, then 1 KiB, then end of stream.
//! Each must fail with `UnexpectedEof` while the process's live heap stays
//! under 1 MiB above where it started. A counting global allocator keeps
//! that high-water mark for the whole process, server threads included.

use bhut_serve::proto::{decode_error, TAG_ERROR, TAG_QUERY};
use bhut_serve::{EpochStore, ServeConfig, Server};
use bhut_wire::{read_frame, MAX_FRAME};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
    PEAK.fetch_max(live, SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), SeqCst);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), SeqCst);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The tests share the counters: one measures at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `f`; return its result and the most bytes live at once during it
/// above the live bytes at its start.
fn peak_above_start<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(SeqCst);
    PEAK.store(start, SeqCst);
    let r = f();
    (r, PEAK.load(SeqCst) - start)
}

const BOUND: usize = 1 << 20;

/// A header announcing `MAX_FRAME` payload bytes, then the first 1 KiB.
fn stalled_frame() -> Vec<u8> {
    let mut bytes = TAG_QUERY.to_le_bytes().to_vec();
    bytes.extend_from_slice(&MAX_FRAME.to_le_bytes());
    bytes.extend_from_slice(&[7u8; 1024]);
    bytes
}

#[test]
fn read_frame_allocates_only_what_arrives() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut stream = std::io::Cursor::new(stalled_frame());
    let (got, peak) = peak_above_start(|| read_frame(&mut stream));
    assert!(peak < BOUND, "read_frame held {peak} bytes for a 1 KiB partial frame");
    assert_eq!(got.unwrap_err().kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn the_server_allocates_only_what_arrives() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let store = Arc::new(EpochStore::new());
    let server = Server::bind_tcp("127.0.0.1:0", store, ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let (reply, peak) = peak_above_start(|| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&stalled_frame()).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        // The server answers a frame cut short, then closes.
        read_frame(&mut s)
    });
    server.stop();
    assert!(peak < BOUND, "the server held {peak} bytes for a 1 KiB partial frame");
    let (tag, body) = reply.expect("the server reports the cut-short frame");
    assert_eq!(tag, TAG_ERROR);
    let (_, msg) = decode_error(&body).unwrap();
    assert!(msg.contains("UnexpectedEof"), "{msg}");
}
