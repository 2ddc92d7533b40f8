//! The journal file `journal.wal`: a 12-byte header (`DSRWALv1` magic,
//! format version) followed by record frames
//! `[len u32][tag u32][crc u32][payload]` with the CRC32 taken over
//! `tag_le ++ payload`. All integers little endian.

use crate::{corrupt, crc, FORMAT_VERSION, WAL_MAGIC};
use std::io::{self, BufReader, Read, Seek, Write};
use std::path::Path;

/// The one file a store directory holds.
pub(crate) const FILE_NAME: &str = "journal.wal";
/// Bytes in the file header (magic + version).
const HEADER_LEN: u64 = 12;
/// Bytes in a record frame header (len + tag + crc).
const FRAME_LEN: usize = 12;

fn frame_header(tag: u32, payload: &[u8]) -> [u8; FRAME_LEN] {
    let crc = crc::crc32(&[&tag.to_le_bytes(), payload]);
    let mut header = [0u8; FRAME_LEN];
    header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&tag.to_le_bytes());
    header[8..12].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Appender over the journal file.
pub(crate) struct Writer {
    out: io::BufWriter<std::fs::File>,
}

impl Writer {
    /// Create the file at `path` with a synced header. Fails with
    /// `AlreadyExists` if it exists.
    pub(crate) fn create(path: &Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new().write(true).create_new(true).open(path)?;
        Self::seed(file)
    }

    /// Write and sync the header into an empty `file`.
    fn seed(file: std::fs::File) -> io::Result<Self> {
        let mut out = io::BufWriter::new(file);
        out.write_all(&WAL_MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        out.flush()?;
        out.get_ref().sync_all()?;
        Ok(Self { out })
    }

    /// Reopen a replayed file for appends at `end`, the end of its last
    /// complete frame: a torn tail past `end` is cut off and synced
    /// away first, and a file that never got its header (`end` 0) is
    /// re-seeded in place.
    pub(crate) fn reopen(path: &Path, end: u64) -> io::Result<Self> {
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        if file.metadata()?.len() != end {
            file.set_len(end)?;
            file.sync_all()?;
        }
        if end == 0 {
            return Self::seed(file);
        }
        file.seek(io::SeekFrom::End(0))?;
        Ok(Self { out: io::BufWriter::new(file) })
    }

    /// Buffered frame write; durable only after [`Writer::sync`].
    pub(crate) fn append(&mut self, tag: u32, payload: &[u8]) -> io::Result<()> {
        self.out.write_all(&frame_header(tag, payload))?;
        self.out.write_all(payload)
    }

    /// Flush and fsync everything appended so far.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()
    }

    /// Write a deliberately incomplete frame (the on-disk shape a kill
    /// mid-append leaves behind) and flush it so recovery sees it.
    pub(crate) fn write_torn_record(&mut self, tag: u32, payload: &[u8]) -> io::Result<()> {
        // Cut inside the payload when there is one, else inside the
        // frame header — either way the frame is unreadable past `len`.
        let header = frame_header(tag, payload);
        if payload.is_empty() {
            self.out.write_all(&header[..8])?;
        } else {
            self.out.write_all(&header)?;
            self.out.write_all(&payload[..payload.len() / 2])?;
        }
        self.sync()
    }
}

/// What replaying the journal file produced.
pub(crate) struct Replay {
    /// Every complete frame, in append order.
    pub(crate) records: Vec<crate::Record>,
    /// Byte offset just past the last complete frame (0 when the file
    /// is shorter than its header).
    pub(crate) end: u64,
    /// The file held a torn tail past `end`, or no complete header.
    pub(crate) torn: bool,
}

/// Read and validate the journal file at `path` through a buffered
/// reader. Only the final frame may be torn: one cut short by
/// end-of-file, or failing its CRC with nothing after it. A frame that
/// fails its CRC with more bytes after it is corruption, and so is a
/// "torn" final frame whose CRC matches a shorter span of the bytes
/// that follow — its length field was damaged, and the bytes past that
/// span are records a truncation would drop.
pub(crate) fn replay(path: &Path) -> io::Result<Replay> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    let name = path.display();
    if len < HEADER_LEN {
        return Ok(Replay { records: Vec::new(), end: 0, torn: true });
    }
    let mut reader = BufReader::new(file);
    let mut header = [0u8; HEADER_LEN as usize];
    reader.read_exact(&mut header)?;
    if header[..8] != WAL_MAGIC {
        return Err(corrupt(format!("{name}: bad WAL magic")));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    if version != FORMAT_VERSION {
        return Err(corrupt(format!(
            "{name}: unsupported WAL format version {version} (expected {FORMAT_VERSION})"
        )));
    }

    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    let torn = |records, end| Ok(Replay { records, end, torn: true });
    while offset < len {
        let rest = len - offset;
        if rest < FRAME_LEN as u64 {
            return torn(records, offset);
        }
        let mut frame = [0u8; FRAME_LEN];
        reader.read_exact(&mut frame)?;
        let field =
            |i: usize| u32::from_le_bytes(frame[i..i + 4].try_into().expect("4-byte slice"));
        let (payload_len, tag, crc) = (field(0) as u64, field(4), field(8));
        let available = rest - FRAME_LEN as u64;
        let bad_length =
            || corrupt(format!("{name}: record at byte {offset} has a corrupt length field"));
        if payload_len > available {
            if crc_matches_a_prefix(&mut reader, available, tag, crc)? {
                return Err(bad_length());
            }
            return torn(records, offset);
        }
        let mut payload = vec![0u8; payload_len as usize];
        reader.read_exact(&mut payload)?;
        if crc::crc32(&[&tag.to_le_bytes(), &payload]) != crc {
            if payload_len < available {
                return Err(corrupt(format!(
                    "{name}: corrupt record at byte {offset} with {} bytes after it",
                    available - payload_len
                )));
            }
            if crc_matches_a_prefix(payload.as_slice(), payload_len, tag, crc)? {
                return Err(bad_length());
            }
            return torn(records, offset);
        }
        records.push(crate::Record { tag, payload });
        offset += FRAME_LEN as u64 + payload_len;
    }
    Ok(Replay { records, end: offset, torn: false })
}

/// Whether `crc` is the CRC of `tag` followed by some prefix of the
/// next `n` bytes of `bytes`, read in chunks so an unreadable frame
/// near the start of a large file costs no memory.
fn crc_matches_a_prefix(mut bytes: impl Read, n: u64, tag: u32, crc: u32) -> io::Result<bool> {
    let mut state = crc::update(crc::INIT, &tag.to_le_bytes());
    if !state == crc {
        return Ok(true);
    }
    let mut chunk = [0u8; 8192];
    let mut left = n;
    while left > 0 {
        let take = left.min(chunk.len() as u64) as usize;
        bytes.read_exact(&mut chunk[..take])?;
        for &b in &chunk[..take] {
            state = crc::update(state, &[b]);
            if !state == crc {
                return Ok(true);
            }
        }
        left -= take as u64;
    }
    Ok(false)
}
