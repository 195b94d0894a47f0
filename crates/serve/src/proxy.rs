//! The adversary: a deterministic fault-injecting TCP proxy.
//!
//! The proxy sits between client and server and mutilates the
//! client→server direction per [`FaultPlan::frame_fault`], keyed by
//! (connection index, frame index) — so the same seed always produces the
//! same faults in the same places, and a chaos soak is reproducible
//! bit-for-bit:
//!
//! * [`FrameFault::Deliver`] — forward the frame, relay the reply;
//! * [`FrameFault::Drop`] — swallow the frame; the client times out and
//!   retries;
//! * [`FrameFault::Truncate`]`(n)` — forward only the first `n` bytes,
//!   then sever both sides; the server detects the torn frame;
//! * [`FrameFault::Delay`]`(ms)` — hold the frame, then deliver.
//!
//! Replies travel back verbatim: the protocol is strict request/reply, so
//! each connection is handled in lockstep by one thread.

use crate::protocol::{FrameError, MAX_FRAME_BYTES};
use crate::server::{accept_until_shutdown, read_framed_bytes, wake_tcp, Conn};
use enf_core::chaos::{FaultPlan, FrameFault};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A running proxy; drop-in stand-in for the server's address.
pub struct ProxyHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: thread::JoinHandle<()>,
}

impl ProxyHandle {
    /// Spawns a proxy on `127.0.0.1:0` forwarding to `upstream`, faulting
    /// frames per `plan`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<ProxyHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = thread::Builder::new()
            .name("enf-chaos-proxy".to_string())
            .spawn(move || {
                let mut conn_index: u64 = 0;
                let accept = || listener.accept().map(|(stream, _)| stream);
                accept_until_shutdown(accept, &flag, |stream, threads| {
                    let id = conn_index;
                    conn_index += 1;
                    let flag = Arc::clone(&flag);
                    let spawned = thread::Builder::new()
                        .name(format!("enf-chaos-proxy-conn-{id}"))
                        .spawn(move || {
                            let _ = relay(stream, upstream, plan, id, &flag);
                        });
                    if let Ok(h) = spawned {
                        threads.push(h);
                    }
                });
            })?;
        Ok(ProxyHandle {
            addr,
            shutdown,
            thread,
        })
    }

    /// The proxy's listening address (point the client here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the acceptor and joins the relay threads.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_tcp(self.addr);
        let _ = self.thread.join();
    }
}

/// One client connection, relayed in request/reply lockstep.
fn relay(
    client: TcpStream,
    upstream: SocketAddr,
    plan: FaultPlan,
    conn_id: u64,
    shutdown: &AtomicBool,
) -> Result<(), FrameError> {
    let mut client = client;
    client.set_nodelay(true).ok();
    Conn::set_read_timeout(&client, Some(Duration::from_millis(25))).map_err(FrameError::from)?;
    let mut server = TcpStream::connect_timeout(&upstream, Duration::from_millis(500))
        .map_err(FrameError::from)?;
    server.set_nodelay(true).ok();
    server.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut frame_index: u64 = 0;
    loop {
        let framed = match read_framed_bytes(&mut client, shutdown)? {
            Some(bytes) => bytes,
            None => return Ok(()), // client done (or proxy draining)
        };
        let fault = plan.frame_fault(conn_id, frame_index);
        frame_index += 1;
        match fault {
            FrameFault::Deliver => {
                server.write_all(&framed).map_err(FrameError::from)?;
                relay_reply(&mut server, &mut client)?;
            }
            FrameFault::Delay(ms) => {
                thread::sleep(Duration::from_millis(ms));
                server.write_all(&framed).map_err(FrameError::from)?;
                relay_reply(&mut server, &mut client)?;
            }
            FrameFault::Drop => {
                // Swallowed whole: no request reaches the server, no reply
                // reaches the client. The client's timeout fires.
                continue;
            }
            FrameFault::Truncate(n) => {
                let cut = n.min(framed.len());
                let _ = server.write_all(&framed[..cut]);
                let _ = server.flush();
                // Sever both sides mid-frame.
                let _ = server.shutdown(std::net::Shutdown::Both);
                let _ = client.shutdown(std::net::Shutdown::Both);
                return Ok(());
            }
        }
    }
}

/// Relays one reply frame server→client, verbatim.
fn relay_reply(server: &mut TcpStream, client: &mut TcpStream) -> Result<(), FrameError> {
    let mut len_buf = [0u8; 4];
    read_fully(server, &mut len_buf)?;
    let declared = u32::from_be_bytes(len_buf) as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { declared });
    }
    let mut payload = vec![0u8; declared];
    read_fully(server, &mut payload)?;
    client.write_all(&len_buf).map_err(FrameError::from)?;
    client.write_all(&payload).map_err(FrameError::from)?;
    client.flush().map_err(FrameError::from)
}

/// `read_exact` that rides out interrupts and socket timeouts.
fn read_fully(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(FrameError::Io {
                    kind: "upstream reply timed out".to_string(),
                })
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}
