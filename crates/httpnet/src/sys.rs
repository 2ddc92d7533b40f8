//! Minimal raw Linux syscall wrappers for the event-driven transport.
//!
//! The dependency policy forbids `libc`, so the handful of syscalls the
//! reactor needs — `epoll_create1`, `epoll_ctl`, `epoll_pwait`, and
//! `eventfd2` for cross-thread wakeups — and the per-thread CPU clock
//! ([`thread_cpu_time`]) are issued directly via inline assembly.
//! Everything else (socket IO, accept, nonblocking mode) goes through
//! `std::net`, which already exposes the required knobs.
//!
//! Only the two architectures this project is built on are wired up;
//! adding another is a table of syscall numbers away.

#![allow(clippy::missing_safety_doc)]

use std::io;
use std::os::fd::RawFd;

// -------------------------------------------------------------------------
// Syscall numbers and the raw syscall instruction, per architecture.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CREATE1: usize = 291;
    pub const EVENTFD2: usize = 290;
    pub const CLOCK_GETTIME: usize = 228;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EPOLL_CREATE1: usize = 20;
    pub const EVENTFD2: usize = 19;
    pub const CLOCK_GETTIME: usize = 113;
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "httpnet's reactor issues raw Linux syscalls and supports x86_64/aarch64 only; \
     add this target's syscall numbers to httpnet::sys"
);

/// Issue a raw 6-argument syscall, returning the kernel's raw result
/// (negative values encode `-errno`).
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a as isize => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack)
    );
    ret
}

/// Convert a raw syscall return into `io::Result`.
fn cvt(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

// -------------------------------------------------------------------------
// epoll

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to subscribe).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; no need to subscribe).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: usize = 0x80000;
const EFD_CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;

/// `struct epoll_event`. Packed on x86_64 (the kernel ABI packs it there
/// so 32-/64-bit layouts agree); naturally aligned elsewhere.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen token (we store the connection slot index).
    pub data: u64,
}

/// `struct epoll_event` (naturally aligned layout).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen token (we store the connection slot index).
    pub data: u64,
}

impl EpollEvent {
    /// The token this event was registered with.
    pub fn token(&self) -> u64 {
        // Field access copies the value out; no reference into the
        // (possibly packed) struct is taken.
        self.data
    }

    /// The readiness bitmask.
    pub fn mask(&self) -> u32 {
        self.events
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll { fd: fd as RawFd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent { events, data: token };
        cvt(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd as usize,
                op as usize,
                fd as usize,
                &ev as *const EpollEvent as usize,
                0,
                0,
            )
        })?;
        Ok(())
    }

    /// Register `fd` with an interest mask and token.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Re-arm `fd` with a new interest mask.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for events, blocking up to `timeout_ms` (`-1` blocks
    /// indefinitely). Returns the number of events filled into `events`.
    /// `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.fd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0, // sigmask: NULL
                    8, // sigsetsize (ignored for NULL mask, but be exact)
                )
            };
            match cvt(ret) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = unsafe { syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
    }
}

// -------------------------------------------------------------------------
// eventfd — the reactor wakeup primitive.

/// A nonblocking eventfd used to wake a reactor from another thread.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn new() -> io::Result<EventFd> {
        let fd =
            cvt(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        Ok(EventFd { fd: fd as RawFd })
    }

    /// The raw descriptor (for epoll registration).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Signal the eventfd (adds 1 to its counter). Never blocks: the
    /// counter saturating is fine — one pending wake is enough.
    pub fn wake(&self) {
        let one: u64 = 1;
        let _ = unsafe {
            syscall6(nr::WRITE, self.fd as usize, &one as *const u64 as usize, 8, 0, 0, 0)
        };
    }

    /// Drain pending wakeups so the next `wake` edge is observable.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        let _ = unsafe {
            syscall6(nr::READ, self.fd as usize, &mut buf as *mut u64 as usize, 8, 0, 0, 0)
        };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        let _ = unsafe { syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
    }
}

// -------------------------------------------------------------------------
// Per-thread CPU clock.

const CLOCK_THREAD_CPUTIME_ID: usize = 3;

/// CPU time the calling thread has consumed so far
/// (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`). Unlike wall time it does
/// not grow while the thread waits or is descheduled, so it attributes
/// work correctly on an oversubscribed host.
pub fn thread_cpu_time() -> io::Result<std::time::Duration> {
    // `struct timespec` on both supported 64-bit targets.
    let mut ts = [0i64; 2];
    let ts_ptr = ts.as_mut_ptr() as usize;
    cvt(unsafe { syscall6(nr::CLOCK_GETTIME, CLOCK_THREAD_CPUTIME_ID, ts_ptr, 0, 0, 0, 0) })?;
    Ok(std::time::Duration::new(ts[0] as u64, ts[1] as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    #[test]
    fn thread_cpu_time_counts_work_not_sleep() {
        let start = thread_cpu_time().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_time().unwrap() - start;
        assert!(slept < std::time::Duration::from_millis(20), "sleeping burns no CPU: {slept:?}");
        let mut x = 0u64;
        while thread_cpu_time().unwrap() - start < std::time::Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        // Another thread's clock starts from its own zero.
        let other = std::thread::spawn(|| thread_cpu_time().unwrap()).join().unwrap();
        assert!(other < thread_cpu_time().unwrap());
    }

    #[test]
    fn epoll_reports_readable_pipe_end() {
        // A loopback TCP pair is the closest std-only analogue to a pipe.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = std::net::TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::default(); 8];
        // Nothing written yet: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        tx.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].mask() & EPOLLIN, 0);

        let mut buf = [0u8; 4];
        let mut rx2 = &rx;
        rx2.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn epoll_modify_and_delete() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _tx = std::net::TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN, 1).unwrap();
        // A connected socket with an empty send queue is writable.
        ep.modify(rx.as_raw_fd(), EPOLLOUT, 2).unwrap();
        let mut events = [EpollEvent::default(); 8];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 2);
        assert_ne!(events[0].mask() & EPOLLOUT, 0);
        ep.delete(rx.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn eventfd_wakes_epoll() {
        let ef = EventFd::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(ef.fd(), EPOLLIN, 42).unwrap();

        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no wake pending");

        ef.wake();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);

        ef.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn eventfd_wake_from_another_thread() {
        let ef = std::sync::Arc::new(EventFd::new().unwrap());
        let ep = Epoll::new().unwrap();
        ep.add(ef.fd(), EPOLLIN, 9).unwrap();
        let ef2 = ef.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            ef2.wake();
        });
        let mut events = [EpollEvent::default(); 4];
        let n = ep.wait(&mut events, 5000).unwrap();
        assert_eq!(n, 1);
        t.join().unwrap();
    }
}
