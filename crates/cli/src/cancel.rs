//! Ctrl-C → cooperative solver cancellation.
//!
//! The first SIGINT raises the shared cancel flag that [`install`] returned;
//! the anytime solver notices it at its next deterministic check point and
//! degrades to the best incumbent instead of dying mid-solve. A second
//! SIGINT exits immediately with the conventional 128+SIGINT status, so an
//! impatient user is never trapped.
//!
//! `clado serve` drains instead ([`install_drain`]): its handler writes
//! one byte into a self-pipe, and a bridge thread blocked on the pipe's
//! read end raises the daemon's drain.
//!
//! The handlers are registered through a raw `signal(2)` FFI call (the
//! build environment has no `libc`/`ctrlc` crates) and do only
//! async-signal-safe work: an atomic swap, `write(2)`, and `_exit(2)`.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

#[cfg(unix)]
mod imp {
    use std::io::Read;
    use std::os::unix::io::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
    use std::sync::{Arc, OnceLock};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const STDERR: i32 = 2;

    /// The flag shared between the handler and every `SolverConfig`.
    static CANCEL: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    /// Raised by the first drain signal; a second signal hard-exits.
    static DRAINING: AtomicBool = AtomicBool::new(false);

    /// The write end of the drain self-pipe (-1 until installed).
    static DRAIN_PIPE: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn _exit(status: i32) -> !;
    }

    extern "C" fn on_sigint(_signum: i32) {
        // First interrupt: raise the cooperative flag and keep running.
        // Second interrupt (flag already raised): hard-exit with 130.
        if let Some(flag) = CANCEL.get() {
            if !flag.swap(true, Ordering::SeqCst) {
                let msg =
                    b"\ninterrupted: finishing with the best incumbent (Ctrl-C again to abort)\n";
                unsafe {
                    write(STDERR, msg.as_ptr(), msg.len());
                }
                return;
            }
        }
        unsafe { _exit(128 + SIGINT) }
    }

    extern "C" fn on_drain(signum: i32) {
        // First SIGTERM/SIGINT: wake the bridge thread through the pipe;
        // the daemon stops admitting, finishes in-flight requests, and
        // exits 0. A second signal aborts immediately with the
        // conventional status.
        if !DRAINING.swap(true, Ordering::SeqCst) {
            let msg = b"\ndraining: finishing in-flight requests (signal again to abort)\n";
            unsafe {
                write(STDERR, msg.as_ptr(), msg.len());
                write(DRAIN_PIPE.load(Ordering::SeqCst), b"!".as_ptr(), 1);
            }
            return;
        }
        unsafe { _exit(128 + signum) }
    }

    pub fn install() -> Arc<AtomicBool> {
        let flag = CANCEL
            .get_or_init(|| Arc::new(AtomicBool::new(false)))
            .clone();
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
        flag
    }

    pub fn install_drain(bridge: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let (mut read_end, write_end) = UnixStream::pair()?;
        // The write end lives as long as the process: the handler may
        // write to it at any time.
        DRAIN_PIPE.store(write_end.into_raw_fd(), Ordering::SeqCst);
        std::thread::spawn(move || {
            if read_end.read_exact(&mut [0u8]).is_ok() {
                bridge();
            }
        });
        unsafe {
            signal(SIGTERM, on_drain as *const () as usize);
            signal(SIGINT, on_drain as *const () as usize);
        }
        Ok(())
    }
}

#[cfg(not(unix))]
mod imp {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    pub fn install() -> Arc<AtomicBool> {
        // No signal support: solves are simply not Ctrl-C-cancellable.
        Arc::new(AtomicBool::new(false))
    }

    pub fn install_drain(_bridge: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        // No signal support: the daemon runs until killed.
        Ok(())
    }
}

/// Installs the SIGINT handler (idempotent) and returns the shared cancel
/// flag to pass to `SolverConfig::cancel`.
pub fn install() -> Arc<AtomicBool> {
    imp::install()
}

/// Installs the SIGTERM + SIGINT drain handler for `clado serve`: the
/// first signal runs `bridge` on a thread that blocks on the handler's
/// self-pipe until then (graceful drain), the second aborts with
/// `128 + signum`. Call it once per process. Takes over SIGINT from
/// [`install`] — the daemon drains on Ctrl-C rather than cancelling a
/// single solve.
///
/// # Errors
///
/// The error of creating the self-pipe.
pub fn install_drain(bridge: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
    imp::install_drain(bridge)
}

#[cfg(all(test, unix))]
mod tests {
    use std::sync::atomic::Ordering;

    #[test]
    fn install_is_idempotent_and_shares_one_flag() {
        let a = super::install();
        let b = super::install();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert!(!a.load(Ordering::Relaxed));
    }

    /// The first drain signal reaches the bridge through the self-pipe.
    #[test]
    fn a_drain_signal_runs_the_bridge() {
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        let (tx, rx) = std::sync::mpsc::channel();
        super::install_drain(move || tx.send(()).expect("bridge reports")).expect("install");
        assert_eq!(unsafe { raise(15) }, 0, "SIGTERM raised");
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the bridge ran");
    }
}
