//! A minimal v2 client written from `docs/PROTOCOL.md`: a JSON hello,
//! then `u32`-LE length-prefixed frames in the binary codec.
//!
//! It exists so that the generator sends bytes it encoded *before* the
//! measured window and compares response bytes without decoding them;
//! `RemoteEcovisorClient` encodes and decodes inside every call.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use container_cop::AppId;
use ecovisor::{ClientHelloV2, ServerHello, WireCodec, PROTOCOL_VERSION};

use crate::fixture::framed;

/// A response that does not arrive within this long fails the run
/// instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One connection: the socket and a receive buffer frames are carved
/// out of.
#[derive(Debug)]
pub struct RawConn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `buf[head..tail]` holds received, not yet consumed bytes.
    head: usize,
    tail: usize,
}

impl RawConn {
    /// Connects, sends the hello for `app` offering only the binary
    /// codec, and requires the server to accept v2 + binary. Returns
    /// the connection and how long connect + hello took.
    pub fn connect(addr: SocketAddr, app: AppId) -> io::Result<(RawConn, Duration)> {
        let started = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut conn = RawConn {
            stream,
            buf: vec![0; 256 * 1024],
            head: 0,
            tail: 0,
        };
        let hello = ClientHelloV2::new(app, vec![WireCodec::Binary], None);
        conn.send(&framed(&WireCodec::Json.encode(&hello)))?;
        let reply: ServerHello = WireCodec::Json
            .decode(conn.next_frame()?)
            .map_err(|e| invalid(format!("undecodable server hello: {e}")))?;
        match reply {
            ServerHello::Accept {
                version: PROTOCOL_VERSION,
                codec: WireCodec::Binary,
            } => Ok((conn, started.elapsed())),
            other => Err(invalid(format!(
                "hello not accepted as v2/binary: {other:?}"
            ))),
        }
    }

    /// Writes already framed bytes.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// The next frame's payload, reading from the socket only when the
    /// buffer does not already hold a whole frame.
    pub fn next_frame(&mut self) -> io::Result<&[u8]> {
        loop {
            let have = self.tail - self.head;
            if have >= 4 {
                let prefix: [u8; 4] = self.buf[self.head..self.head + 4]
                    .try_into()
                    .expect("four bytes");
                let len = u32::from_le_bytes(prefix) as usize;
                if len > ecovisor::transport::MAX_FRAME_LEN as usize {
                    return Err(invalid(format!("frame of {len} bytes exceeds the limit")));
                }
                if have >= 4 + len {
                    let start = self.head + 4;
                    self.head = start + len;
                    return Ok(&self.buf[start..start + len]);
                }
                if self.buf.len() < 4 + len {
                    self.buf.resize(4 + len, 0);
                }
            }
            // Make room: move the partial frame to the front.
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
            let n = self.stream.read(&mut self.buf[self.tail..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.tail += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::encode_request;
    use ecovisor::proto::{EnergyRequest, Frame, RequestBatch};
    use ecovisor::{
        EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare, RemoteEcovisorClient,
    };

    #[test]
    fn hello_is_accepted_and_a_frame_answers_like_the_library_client() {
        let mut eco = EcovisorBuilder::new().build();
        let app = eco
            .register_app("raw", EnergyShare::grid_only())
            .expect("register");
        let handle = EcovisorServer::bind("127.0.0.1:0", eco)
            .expect("bind")
            .spawn()
            .expect("spawn");
        let batch = RequestBatch::new(
            app,
            vec![EnergyRequest::GetGridCarbon, EnergyRequest::GetTickInterval],
        );

        let (mut raw, took) = RawConn::connect(handle.addr(), app).expect("hello accepted");
        assert!(took > Duration::ZERO);
        // Two frames back to back: both answers are carved from the buffer.
        let wire = framed(&encode_request(&batch));
        raw.send(&[wire.clone(), wire].concat()).expect("send");
        let first = raw.next_frame().expect("first response").to_vec();
        let second = raw.next_frame().expect("second response").to_vec();
        assert_eq!(first, second);

        let mut library = RemoteEcovisorClient::connect(handle.addr(), app).expect("connect");
        let expected = library.transport(batch);
        assert_eq!(first, WireCodec::Binary.encode(&Frame::Response(expected)));

        drop(raw);
        drop(library);
        handle.shutdown();
    }
}
