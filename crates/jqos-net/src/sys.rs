//! Batched datagram I/O: `recvmmsg`/`sendmmsg` on Linux, one
//! `recv_from`/`send_to` per datagram elsewhere, behind the same two
//! functions.  This is the only module with `unsafe` code.

use std::net::{SocketAddr, UdpSocket};

/// Bytes per receive slot.  A datagram that fills its slot may have been cut
/// short, so [`RecvSlots::datagram`] reports it as oversized: the largest
/// datagram the relay accepts is one byte less.
pub(crate) const SLOT: usize = 2048;

/// Most datagrams one call moves (the kernel-facing vectors live on the
/// stack): the bound on `recv_batch`, and the chunk a send is split into.
pub(crate) const MAX_BATCH: usize = 64;

/// Receive slots, refilled by each [`recv_batch`].
pub(crate) struct RecvSlots {
    bytes: Vec<u8>,
    lens: Vec<usize>,
    froms: Vec<SocketAddr>,
}

impl RecvSlots {
    /// `n ≤ MAX_BATCH` slots of [`SLOT`] bytes: the most datagrams one
    /// receive returns.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n <= MAX_BATCH, "at most {MAX_BATCH} receive slots");
        RecvSlots {
            bytes: vec![0; n * SLOT],
            lens: vec![0; n],
            froms: vec![SocketAddr::from(([0, 0, 0, 0], 0)); n],
        }
    }

    /// The bytes of datagram `i` of the last receive.
    pub(crate) fn bytes(&self, i: usize) -> &[u8] {
        &self.bytes[i * SLOT..i * SLOT + self.lens[i]]
    }

    /// Datagram `i` of the last receive and its source; `None` when the
    /// datagram was larger than a slot.
    pub(crate) fn datagram(&self, i: usize) -> (Option<&[u8]>, SocketAddr) {
        let whole = (self.lens[i] < SLOT).then(|| self.bytes(i));
        (whole, self.froms[i])
    }
}

/// Waits for a datagram — up to the socket's read timeout — then takes every
/// datagram already queued, up to one per slot.  Returns how many arrived; 0
/// on a timeout or an error.
pub(crate) fn recv_batch(sock: &UdpSocket, slots: &mut RecvSlots) -> usize {
    #[cfg(target_os = "linux")]
    return linux::recv_batch(sock, slots);
    #[cfg(not(target_os = "linux"))]
    return portable::recv_batch(sock, slots);
}

/// Sends the datagram `datagram(item)` of every item without blocking.
/// Returns how many the kernel took; the rest met a full buffer or an error.
pub(crate) fn send_batch<'a, T>(
    sock: &UdpSocket,
    items: &[T],
    datagram: impl Fn(&T) -> (SocketAddr, &'a [u8]),
) -> usize {
    #[cfg(target_os = "linux")]
    return items
        .chunks(MAX_BATCH)
        .map(|chunk| linux::send_chunk(sock, chunk, &datagram))
        .sum();
    #[cfg(not(target_os = "linux"))]
    return portable::send_batch(sock, items, datagram);
}

/// One syscall per datagram.  Receives take one datagram per call; sends
/// follow the socket's blocking mode, so where `sendmmsg` would shed on a
/// full buffer these may wait.
#[cfg(any(test, not(target_os = "linux")))]
mod portable {
    use super::*;

    pub(super) fn recv_batch(sock: &UdpSocket, slots: &mut RecvSlots) -> usize {
        let Ok((len, from)) = sock.recv_from(&mut slots.bytes[..SLOT]) else {
            return 0;
        };
        (slots.lens[0], slots.froms[0]) = (len, from);
        1
    }

    pub(super) fn send_batch<'a, T>(
        sock: &UdpSocket,
        items: &[T],
        datagram: impl Fn(&T) -> (SocketAddr, &'a [u8]),
    ) -> usize {
        let sent = |item: &&T| {
            let (to, bytes) = datagram(item);
            sock.send_to(bytes, to).is_ok()
        };
        items.iter().filter(sent).count()
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use std::ffi::{c_int, c_uint, c_void};
    use std::io;
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddrV4, SocketAddrV6};
    use std::os::fd::AsRawFd;
    use std::ptr::null_mut;

    use super::*;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_WAITFORONE: c_int = 0x1_0000;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec(*mut c_void, usize);

    /// `struct msghdr` as the kernel reads it (its two lengths are
    /// `size_t`).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut c_void,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: c_int,
    }

    /// `struct mmsghdr`: the header, then the length the kernel fills in.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: c_uint,
    }

    /// Room for a `sockaddr_in6`, the larger of the two address forms.
    #[repr(C, align(4))]
    #[derive(Clone, Copy)]
    struct RawAddr([u8; 28]);

    extern "C" {
        fn recvmmsg(
            fd: c_int,
            msgs: *mut MMsgHdr,
            n: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn sendmmsg(fd: c_int, msgs: *mut MMsgHdr, n: c_uint, flags: c_int) -> c_int;
    }

    /// Builds `n ≤ MAX_BATCH` headers on the stack, header `i` over the
    /// buffer and address `fill(i, ..)` writes (it returns the address
    /// length), and hands them to `call`, which makes the syscall and
    /// returns how many it completed.  Once the kernel is done with them,
    /// `done(i, length, address)` reads each completed one.
    fn with_headers(
        n: usize,
        mut fill: impl FnMut(usize, &mut IoVec, &mut RawAddr) -> u32,
        call: impl FnOnce(&mut [MMsgHdr]) -> usize,
        mut done: impl FnMut(usize, usize, &RawAddr),
    ) -> usize {
        let mut iovs = [IoVec(null_mut(), 0); MAX_BATCH];
        let mut names = [RawAddr([0; 28]); MAX_BATCH];
        let hdr = MsgHdr {
            name: null_mut(),
            namelen: 0,
            iov: null_mut(),
            iovlen: 1,
            control: null_mut(),
            controllen: 0,
            flags: 0,
        };
        let mut hdrs = [MMsgHdr { hdr, len: 0 }; MAX_BATCH];
        let vectors = hdrs.iter_mut().zip(&mut iovs).zip(&mut names);
        for (i, ((h, iov), name)) in vectors.take(n).enumerate() {
            h.hdr.namelen = fill(i, iov, name);
            h.hdr.name = name.0.as_mut_ptr().cast();
            h.hdr.iov = iov;
        }
        let completed = call(&mut hdrs[..n]);
        for i in 0..completed {
            done(i, hdrs[i].len as usize, &names[i]);
        }
        completed
    }

    pub(super) fn recv_batch(sock: &UdpSocket, slots: &mut RecvSlots) -> usize {
        let n = slots.lens.len();
        let mut chunks = slots.bytes.chunks_exact_mut(SLOT);
        let fill = |_, iov: &mut IoVec, _: &mut RawAddr| {
            let chunk = chunks.next().expect("one chunk per slot");
            *iov = IoVec(chunk.as_mut_ptr().cast(), SLOT);
            28
        };
        let call = |hdrs: &mut [MMsgHdr]| {
            // SAFETY: each header points at its own iovec over
            // its own `SLOT`-byte chunk of `slots.bytes` and at its own
            // 28-byte address, all alive for the call; the kernel writes at
            // most `SLOT` bytes, `namelen` bytes and the header's own
            // length and flag fields.
            let got = unsafe {
                let fd = sock.as_raw_fd();
                let (msgs, count) = (hdrs.as_mut_ptr(), hdrs.len() as c_uint);
                recvmmsg(fd, msgs, count, MSG_WAITFORONE, null_mut())
            };
            usize::try_from(got).unwrap_or(0)
        };
        let done = |i, len, name: &RawAddr| {
            (slots.lens[i], slots.froms[i]) = (len, from_raw(name));
        };
        with_headers(n, fill, call, done)
    }

    pub(super) fn send_chunk<'a, T>(
        sock: &UdpSocket,
        chunk: &[T],
        datagram: impl Fn(&T) -> (SocketAddr, &'a [u8]),
    ) -> usize {
        let fill = |i, iov: &mut IoVec, name: &mut RawAddr| {
            let (to, bytes) = datagram(&chunk[i]);
            *iov = IoVec(bytes.as_ptr().cast_mut().cast(), bytes.len());
            to_raw(to, name)
        };
        let call = |hdrs: &mut [MMsgHdr]| {
            let (mut at, mut sent) = (0, 0);
            while at < hdrs.len() {
                let rest = &mut hdrs[at..];
                // SAFETY: each header points at its own iovec over a
                // datagram borrowed for `'a`, which outlives the call (the
                // kernel only reads it), and at a filled address of
                // `namelen` bytes; the count is the slice's length.
                let r = unsafe {
                    let fd = sock.as_raw_fd();
                    sendmmsg(fd, rest.as_mut_ptr(), rest.len() as c_uint, MSG_DONTWAIT)
                };
                match usize::try_from(r) {
                    Ok(n) if n > 0 => (at, sent) = (at + n, sent + n),
                    _ => match io::Error::last_os_error().kind() {
                        io::ErrorKind::Interrupted => {}
                        // A full buffer sheds the rest of the chunk.
                        io::ErrorKind::WouldBlock => break,
                        // This datagram failed on its own; try the next.
                        _ => at += 1,
                    },
                }
            }
            sent
        };
        with_headers(chunk.len(), fill, call, |_, _, _| {})
    }

    fn from_raw(raw: &RawAddr) -> SocketAddr {
        let b = &raw.0;
        let port = u16::from_be_bytes([b[2], b[3]]);
        match u16::from_ne_bytes([b[0], b[1]]) {
            AF_INET6 => {
                let ip: [u8; 16] = b[8..24].try_into().expect("16 bytes");
                let flowinfo = u32::from_be_bytes([b[4], b[5], b[6], b[7]]);
                let scope = u32::from_ne_bytes([b[24], b[25], b[26], b[27]]);
                SocketAddrV6::new(Ipv6Addr::from(ip), port, flowinfo, scope).into()
            }
            // A UDP socket reports only the two families.
            _ => SocketAddrV4::new(Ipv4Addr::new(b[4], b[5], b[6], b[7]), port).into(),
        }
    }

    /// Writes `addr` as a `sockaddr_in`/`sockaddr_in6`; returns its length.
    fn to_raw(addr: SocketAddr, raw: &mut RawAddr) -> u32 {
        let b = &mut raw.0;
        b[2..4].copy_from_slice(&addr.port().to_be_bytes());
        match addr {
            SocketAddr::V4(a) => {
                b[..2].copy_from_slice(&AF_INET.to_ne_bytes());
                b[4..8].copy_from_slice(&a.ip().octets());
                16
            }
            SocketAddr::V6(a) => {
                b[..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                b[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
                b[8..24].copy_from_slice(&a.ip().octets());
                b[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                28
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The batched calls and the portable fallback carry the same datagrams
    /// from the same source, and a datagram too large for its slot is
    /// flagged, not passed on cut short.
    #[test]
    fn both_paths_agree_and_flag_oversized_datagrams() {
        let [tx, rx] = ["127.0.0.1:0"; 2].map(|a| UdpSocket::bind(a).unwrap());
        rx.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let (to, from) = (rx.local_addr().unwrap(), tx.local_addr().unwrap());
        let sent = [vec![1; 5], vec![2; SLOT - 1], vec![3; SLOT + 9]];
        let items: Vec<&[u8]> = sent.iter().map(Vec::as_slice).collect();
        // `(length, first byte)` of each datagram, or `None` if oversized.
        let want = vec![
            (Some((5, 1)), from),
            (Some((SLOT - 1, 2)), from),
            (None, from),
        ];
        let mut slots = RecvSlots::new(8);
        let got = |slots: &RecvSlots, i| {
            let (bytes, from) = slots.datagram(i);
            (bytes.map(|b| (b.len(), b[0])), from)
        };

        assert_eq!(send_batch(&tx, &items, |b| (to, *b)), 3);
        let mut batched = Vec::new();
        while batched.len() < 3 {
            let n = recv_batch(&rx, &mut slots);
            assert!(n > 0, "batched receive timed out");
            batched.extend((0..n).map(|i| got(&slots, i)));
        }
        assert_eq!(batched, want);

        assert_eq!(portable::send_batch(&tx, &items, |b| (to, *b)), 3);
        let one_by_one: Vec<_> = (0..3)
            .map(|_| {
                assert_eq!(portable::recv_batch(&rx, &mut slots), 1);
                got(&slots, 0)
            })
            .collect();
        assert_eq!(one_by_one, want);
    }
}
