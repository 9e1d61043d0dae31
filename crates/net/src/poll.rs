//! Minimal epoll + eventfd bindings for the evented server core, plus
//! the client's non-consuming socket readiness probe.
//!
//! Hand-rolled on `std::os::fd` — the workspace vendors no libc-style
//! crate, and the evented core needs exactly four syscalls that std
//! does not expose: `epoll_create1`, `epoll_ctl`, `epoll_wait` and
//! `eventfd`; the client's spin-before-read needs a fifth, `recv` with
//! `MSG_PEEK | MSG_DONTWAIT` ([`readable_now`]). Everything else rides
//! std (`TcpStream::write_vectored` for `writev`, `File` over an
//! `OwnedFd` for eventfd reads/writes).
//! Linux-only, like the CI and the deployment target; the constants
//! below are the kernel ABI values, stable since epoll shipped.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

/// Readable (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x1;
/// Writable (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x4;
/// Error condition (`EPOLLERR`); always reported, never subscribed.
pub const EPOLLERR: u32 = 0x8;
/// Peer hung up (`EPOLLHUP`); always reported, never subscribed.
pub const EPOLLHUP: u32 = 0x10;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;
const MSG_PEEK: c_int = 0x2;
const MSG_DONTWAIT: c_int = 0x40;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel
/// declares it `__attribute__((packed))` there so 32- and 64-bit
/// layouts agree); naturally aligned everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Would a blocking read on socket `fd` return right now? A
/// non-consuming, non-blocking one-byte peek: true when data is
/// queued, and also at EOF or on a socket error — the read the caller
/// makes next will not block and surfaces either properly. Leaves the
/// socket's blocking mode and its queued bytes untouched, so it can sit
/// in front of a `BufReader` whose buffer is empty.
pub fn readable_now(fd: RawFd) -> bool {
    let mut byte = 0u8;
    // SAFETY: `byte` is a valid one-byte buffer for the call's duration.
    let ret = unsafe {
        recv(
            fd,
            (&mut byte as *mut u8).cast(),
            1,
            MSG_PEEK | MSG_DONTWAIT,
        )
    };
    ret >= 0 || io::Error::last_os_error().kind() != io::ErrorKind::WouldBlock
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// Raw epoll event mask (`EPOLLIN` / `EPOLLOUT` / `EPOLLERR` /
    /// `EPOLLHUP` bits).
    pub events: u32,
}

impl PollEvent {
    /// The fd is readable (or has an error/hangup to surface via a
    /// read — a closed peer reports here too, as EOF).
    pub fn readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0
    }

    /// The fd is writable.
    pub fn writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0
    }

    /// The peer hung up or the fd errored.
    pub fn closed(&self) -> bool {
        self.events & (EPOLLERR | EPOLLHUP) != 0
    }
}

/// A level-triggered epoll instance.
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Create a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 returns a fresh fd we immediately own.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with `interest` (an `EPOLLIN`/`EPOLLOUT` mask),
    /// tagging its events with `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change a registered fd's interest mask (and token).
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // A null event pointer is legal post-2.6.9 but pass a real one
        // for portability, as everyone does.
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// passes (`None` = wait forever), appending readiness
    /// notifications to `events` (cleared first). Sub-millisecond
    /// timeouts round **up** so a near-deadline wait cannot spin.
    pub fn wait(&self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis();
                let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
                ms.min(i32::MAX as u128) as c_int
            }
        };
        const MAX_EVENTS: usize = 256;
        let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            // SAFETY: `buf` is a valid array of MAX_EVENTS entries.
            let ret = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    buf.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms,
                )
            };
            match cvt(ret) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &buf[..n] {
            // Copy out of the (possibly packed) kernel struct before
            // taking references.
            let (mask, token) = (ev.events, ev.data);
            events.push(PollEvent {
                token,
                events: mask,
            });
        }
        Ok(())
    }
}

/// A nonblocking eventfd: the cross-thread doorbell that lets service
/// threads (grant delivery, the deadlock sweeper) wake a sleeping I/O
/// shard. Writes coalesce in the kernel counter, so any number of
/// [`WakeFd::wake`] calls cost one wakeup.
pub struct WakeFd {
    file: File,
}

impl WakeFd {
    /// Create a nonblocking, close-on-exec eventfd.
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: eventfd returns a fresh fd we immediately own.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(WakeFd {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// The fd to register with a [`Poller`] (readable when woken).
    pub fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Ring the doorbell. Never blocks: the only failure mode is the
    /// counter saturating (needs 2^64−1 pending wakes), which reports
    /// `WouldBlock` and is safely ignored — the recipient is already
    /// due a wakeup.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&self.file).write(&one);
    }

    /// Consume all pending wakes (call when the poller reports the
    /// eventfd readable, before draining the work queues — the
    /// classic drain-then-check order that cannot lose a wakeup).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_and_drains_through_epoll() {
        let poller = Poller::new().unwrap();
        let wake = WakeFd::new().unwrap();
        poller.add(wake.raw_fd(), EPOLLIN, 42).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a zero-ish timeout comes back empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(events.is_empty());

        wake.wake();
        wake.wake(); // coalesces with the first
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable());

        wake.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(events.is_empty(), "drain consumed the pending wake");
    }

    #[test]
    fn readable_now_peeks_without_consuming() {
        use std::io::{Read as _, Write as _};
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        // Nothing sent: not readable, and the probe did not block.
        assert!(!readable_now(server.as_raw_fd()));

        client.write_all(b"hi").unwrap();
        // Loopback delivery is asynchronous to the write returning.
        while !readable_now(server.as_raw_fd()) {
            std::thread::yield_now();
        }
        assert!(readable_now(server.as_raw_fd()), "a peek consumes nothing");
        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        assert!(!readable_now(server.as_raw_fd()));

        // EOF counts as readable: the next read returns 0, not a block.
        drop(client);
        while !readable_now(server.as_raw_fd()) {
            std::thread::yield_now();
        }
        assert_eq!(server.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn socket_readability_is_level_triggered() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), EPOLLIN, 7).unwrap();

        client.write_all(b"hello").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable()));

        // Level-triggered: unread bytes keep reporting readable.
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable()));

        poller.delete(server.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(events.is_empty());
    }
}
