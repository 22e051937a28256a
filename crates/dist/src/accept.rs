//! The one accept loop of both listeners: the pool's worker port and
//! `clado serve`'s client port. `accept` blocks; whoever ends a loop
//! wakes it with a self-connect ([`wake_accept`]).

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};

/// Connects to the listener bound at `addr` and hangs up at once, which
/// returns an `accept` blocked in [`accept_until`] so the loop rechecks
/// its stop condition. An unspecified IP (`0.0.0.0`, `::`) is reached
/// on loopback.
pub fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// Accepts connections on `listener` and hands each to `serve` until
/// `stop` holds. `accept` blocks, so whoever makes `stop` hold must then
/// call [`wake_accept`]. A connection accepted once `stop` holds — the
/// wake-up itself — is dropped unserved.
///
/// # Errors
///
/// The first `accept` error other than `Interrupted`.
pub fn accept_until(
    listener: &TcpListener,
    stop: impl Fn() -> bool,
    mut serve: impl FnMut(TcpStream),
) -> io::Result<()> {
    while !stop() {
        match listener.accept() {
            Ok((stream, _peer)) if !stop() => serve(stream),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
