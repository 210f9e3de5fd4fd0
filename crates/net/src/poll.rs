//! `poll(2)`: the loop's one blocking call. std links libc on every unix
//! target, so a minimal `extern "C"` declaration is all the FFI the wait
//! needs — no crate, and the workspace's only `unsafe` block.

use std::ffi::{c_int, c_short};
use std::io;
use std::time::Duration;

/// Readable (or at EOF); for the listener, a connection is waiting.
pub(crate) const POLLIN: c_short = 0x1;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x4;

/// `struct pollfd`. `poll` reports `POLLHUP`/`POLLERR` in `revents` whatever
/// `events` asks for, so an fd the caller will not act on must not be in
/// the set at all.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: c_int, events: c_short) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Block until an fd in `fds` is ready or `timeout` (rounded up to whole
/// milliseconds) passes. Returns how many are ready: 0 means timed out.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    let nfds = Nfds::try_from(fds.len()).map_err(|_| io::ErrorKind::InvalidInput)?;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and `nfds` is its length, so poll(2) reads and writes
    // only memory it owns and keeps no pointer past the call. Any `fd`
    // value is sound: one that is not open comes back as `POLLNVAL`.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
    usize::try_from(ready).map_err(|_| io::Error::last_os_error())
}
