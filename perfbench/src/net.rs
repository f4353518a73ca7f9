//! The benchmark's own clients and the in-process server they talk to.
//!
//! Both clients write pre-encoded bytes and return raw reply bytes, so
//! the timed span holds no client-side encoding or decoding: a faster
//! codec on the client cannot show up as a server gain.

use crate::inputs::{Kind, Line};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use whatif_server::tcp::{serve_with_options, ServeOptions};
use whatif_server::{Engine, Reply, Request};
use whatif_wire::frame::{encode_frame, HEADER_LEN};
use whatif_wire::{
    read_event, Compression, FrameEvent, FrameType, OutcomeBlock, OutcomeStreamHead, ReplyBody,
    RequestBody, StreamEnd, WireReply, WireRequest, WIRE_MAGIC,
};

/// Socket timeout for every benchmark connection: far above any reply,
/// low enough that a wedged server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// A server running on loopback inside the benchmark's process.
pub struct Server {
    /// The engine behind the socket; read for cache, store and metrics
    /// deltas and driven directly by the traced run.
    pub engine: Arc<Engine>,
    /// Where it listens.
    pub addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Start a fresh engine on an ephemeral loopback port.
    pub fn start() -> Result<Server, String> {
        let engine = Arc::new(Engine::new());
        let options = ServeOptions {
            read_timeout: Some(IO_TIMEOUT),
            write_timeout: Some(IO_TIMEOUT),
            ..ServeOptions::default()
        };
        let (addr, accept) = serve_with_options("127.0.0.1:0", Arc::clone(&engine), options)
            .map_err(|e| format!("server failed to bind: {e}"))?;
        Ok(Server {
            engine,
            addr,
            accept: Some(accept),
        })
    }

    /// Ask the server to shut down and wait for its accept loop to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(accept) = self.accept.take() else {
            return Ok(());
        };
        let line = Line::new(0, Kind::Other, Request::Shutdown).bytes;
        let mut conn = LineConn::connect(self.addr).map_err(|e| format!("shutdown dial: {e}"))?;
        let mut reply = Vec::new();
        conn.round_trip(&line, &mut reply)
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(conn);
        accept
            .join()
            .map_err(|_| "server accept loop panicked".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A run that fails early still stops its server.
        let _ = self.shutdown();
    }
}

/// A v2 line client: one request line out, one reply line back.
pub struct LineConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineConn {
    /// Dial `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(LineConn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Write one newline-terminated request and read its reply line,
    /// newline stripped, into `reply`.
    pub fn round_trip(&mut self, request: &[u8], reply: &mut Vec<u8>) -> std::io::Result<()> {
        self.writer.write_all(request)?;
        reply.clear();
        self.reader.read_until(b'\n', reply)?;
        if reply.pop() != Some(b'\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-reply",
            ));
        }
        Ok(())
    }

    /// Round-trip and parse the reply (set-up and checks only).
    pub fn call(&mut self, request: &[u8]) -> Result<Reply, String> {
        let mut reply = Vec::new();
        self.round_trip(request, &mut reply)
            .map_err(|e| format!("i/o: {e}"))?;
        parse_reply(&reply)
    }
}

/// Parse one v2 reply line.
pub fn parse_reply(bytes: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    serde_json::from_str::<Reply>(text).map_err(|e| format!("unparseable reply: {e}"))
}

/// A v3 frame client.
pub struct FrameConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl FrameConn {
    /// Dial `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<FrameConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(FrameConn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Write pre-encoded request frame bytes, then read raw reply frames
    /// into `out` until one ends the reply (`Reply`, `StreamEnd` or
    /// `Error`). Only headers are looked at: checksums, decompression
    /// and decoding are left to [`decode_stream`] after the clock stops.
    pub fn round_trip(&mut self, request: &[u8], out: &mut Vec<u8>) -> std::io::Result<()> {
        self.writer.write_all(request)?;
        out.clear();
        loop {
            let start = out.len();
            out.resize(start + HEADER_LEN, 0);
            self.reader.read_exact(&mut out[start..])?;
            let header = &out[start..];
            if header[..4] != WIRE_MAGIC {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "reply frame has a bad magic",
                ));
            }
            let frame_type = header[5];
            let payload = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
            let body = out.len();
            out.resize(body + payload as usize, 0);
            self.reader.read_exact(&mut out[body..])?;
            if frame_type == FrameType::Reply as u8
                || frame_type == FrameType::StreamEnd as u8
                || frame_type == FrameType::Error as u8
            {
                return Ok(());
            }
        }
    }

    /// Send one v2 request through the JSON opcode and parse the reply
    /// (set-up only).
    pub fn call_json(&mut self, id: u64, json: &str) -> Result<Reply, String> {
        let request = WireRequest {
            id,
            body: RequestBody::Json(json.to_owned()),
            deadline_ms: 0,
        };
        let frame = encode_frame(FrameType::Request, &request.encode(), Compression::Lz4Like)
            .map_err(|e| format!("encode: {e}"))?;
        let mut raw = Vec::new();
        self.round_trip(&frame, &mut raw)
            .map_err(|e| format!("i/o: {e}"))?;
        let mut frames = decode_frames(&raw)?;
        let frame = frames.pop().ok_or("empty reply")?;
        match frame.frame_type {
            FrameType::Reply => match WireReply::decode(&frame.payload)
                .map_err(|e| format!("reply: {e}"))?
                .body
            {
                ReplyBody::Json(line) => parse_reply(line.as_bytes()),
                ReplyBody::Comparison(_) => Err("unexpected comparison reply".into()),
            },
            other => Err(format!("unexpected {other:?} frame")),
        }
    }
}

/// Every frame in `raw`, checksum-verified and decompressed.
pub fn decode_frames(mut raw: &[u8]) -> Result<Vec<whatif_wire::Frame>, String> {
    let mut frames = Vec::new();
    loop {
        match read_event(&mut raw).map_err(|e| format!("frame: {e}"))? {
            FrameEvent::Frame(frame) => frames.push(frame),
            FrameEvent::Eof => return Ok(frames),
            FrameEvent::Skipped { error, .. } => return Err(format!("bad frame: {error}")),
        }
    }
}

/// A decoded scenario stream.
pub struct Stream {
    /// KPI per scenario, in input order.
    pub kpi: Vec<f64>,
    /// `StreamBlock` frames received.
    pub blocks: u32,
}

/// Decode the raw frames of one grid reply. A typed server error
/// becomes `Err` with its message.
pub fn decode_stream(raw: &[u8]) -> Result<Stream, String> {
    let mut kpi = Vec::new();
    let mut blocks = 0u32;
    let mut total = None;
    for frame in decode_frames(raw)? {
        match frame.frame_type {
            FrameType::StreamHead => {
                let head = OutcomeStreamHead::decode(&frame.payload).map_err(|e| e.to_string())?;
                total = Some(head.total);
            }
            FrameType::StreamBlock => {
                let block = OutcomeBlock::decode(&frame.payload).map_err(|e| e.to_string())?;
                if block.start != kpi.len() as u64 {
                    return Err("stream blocks out of order".into());
                }
                kpi.extend_from_slice(&block.kpi);
                blocks += 1;
            }
            FrameType::StreamEnd => {
                let end = StreamEnd::decode(&frame.payload).map_err(|e| e.to_string())?;
                if end.blocks != blocks || total != Some(kpi.len() as u64) {
                    return Err("stream ended short".into());
                }
                return Ok(Stream { kpi, blocks });
            }
            FrameType::Error => {
                let error =
                    whatif_wire::ErrorReply::decode(&frame.payload).map_err(|e| e.to_string())?;
                return Err(format!("server error {}: {}", error.code, error.message));
            }
            other => return Err(format!("unexpected {other:?} frame")),
        }
    }
    Err("stream has no end frame".into())
}
