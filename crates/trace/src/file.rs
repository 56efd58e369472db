//! Trace file persistence: save generated traces and replay captures.
//!
//! The on-disk format is a magic header followed by length-prefixed
//! tuples in the `qap-types` wire encoding — the same bytes an
//! inter-host transfer would carry, so a saved trace doubles as a wire-
//! format regression fixture.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use qap_types::{decode_tuple, encode_tuple, Tuple};

const MAGIC: &[u8; 8] = b"QAPTRC01";

/// Errors raised while reading or writing trace files.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the trace magic.
    BadMagic,
    /// A tuple failed to encode or decode.
    Corrupt(qap_types::TypeError),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O: {e}"),
            TraceFileError::BadMagic => write!(f, "not a qap trace file (bad magic)"),
            TraceFileError::Corrupt(e) => write!(f, "corrupt trace file: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Writes a trace to a file.
pub fn write_trace(path: impl AsRef<Path>, trace: &[Tuple]) -> Result<(), TraceFileError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for t in trace {
        let bytes = encode_tuple(t).map_err(TraceFileError::Corrupt)?;
        w.write_all(&(bytes.len() as u32).to_le_bytes())?;
        w.write_all(&bytes)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a trace previously written with [`write_trace`].
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<Tuple>, TraceFileError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)?;
    let count = u64::from_le_bytes(count_bytes) as usize;
    let mut trace = Vec::with_capacity(count.min(1 << 24));
    for _ in 0..count {
        let mut len_bytes = [0u8; 4];
        r.read_exact(&mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        // `len` is whatever the file says: reserve a bounded amount and
        // read through `take`, so the buffer grows past that only as
        // far as the file really goes.
        let mut buf = Vec::with_capacity(len.min(1 << 16));
        if r.by_ref().take(len as u64).read_to_end(&mut buf)? != len {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        let tuple = decode_tuple(buf.into()).map_err(TraceFileError::Corrupt)?;
        trace.push(tuple);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, TraceConfig};
    use qap_types::{TypeError, Value};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qap-trace-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_a_generated_trace() {
        let trace = generate(&TraceConfig::tiny(81));
        let path = tmp("roundtrip.qtr");
        write_trace(&path, &trace).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_trace_reads_back_every_tuple_it_could_write() {
        // 174 NULLs fit the decoders' allocation bound; 175 do not, and
        // the writer refuses them rather than write an unreadable file.
        let fits = vec![Tuple::new(vec![Value::Null; 174])];
        let path = tmp("nulls.qtr");
        write_trace(&path, &fits).unwrap();
        assert_eq!(read_trace(&path).unwrap(), fits);
        let past = vec![Tuple::new(vec![Value::Null; 175])];
        assert!(matches!(
            write_trace(&path, &past),
            Err(TraceFileError::Corrupt(TypeError::FrameTooLarge {
                context: "tuple arity",
                ..
            }))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let path = tmp("empty.qtr");
        write_trace(&path, &[]).unwrap();
        assert!(read_trace(&path).unwrap().is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_non_trace_files() {
        let path = tmp("garbage.qtr");
        std::fs::write(&path, b"definitely not a trace").unwrap();
        assert!(matches!(
            read_trace(&path).unwrap_err(),
            TraceFileError::BadMagic
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_truncated_files() {
        let trace = generate(&TraceConfig::tiny(82));
        let path = tmp("truncated.qtr");
        write_trace(&path, &trace).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            read_trace(&path).unwrap_err(),
            TraceFileError::Io(_)
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_a_record_longer_than_the_file() {
        let path = tmp("long-record.qtr");
        write_trace(&path, &generate(&TraceConfig::tiny(83))).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The first record's length word follows the magic and count.
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_trace(&path).unwrap_err(),
            TraceFileError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
        std::fs::remove_file(path).ok();
    }
}
