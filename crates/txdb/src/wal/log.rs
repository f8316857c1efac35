//! The on-disk log file: header, length-prefixed CRC framing, batched
//! appends with group-commit fsync.
//!
//! File layout:
//!
//! ```text
//! [8B magic "txdbwal\0"] [4B format version] [8B generation]   header
//! [4B payload len] [4B CRC32(payload)] [payload]               frame 0
//! [4B payload len] [4B CRC32(payload)] [payload]               frame 1
//! ...
//! ```
//!
//! The `generation` ties the log to the snapshot it applies on top of:
//! every checkpoint bumps it, so a crash between "snapshot renamed" and
//! "log truncated" is detected on open (the stale log is discarded, not
//! replayed twice — see `Database::checkpoint` for the full protocol).
//!
//! A commit appends its whole batch in bounded buffered writes (chunks of
//! [`APPEND_CHUNK_BYTES`]) followed by at most one fsync (group commit):
//! commit latency is one sync, not one per record. With
//! `WalOptions { fsync: false }` the sync is skipped — contents still
//! survive process exit (the OS has the bytes), but not power loss; the
//! differential suite uses this mode to keep its many short-lived
//! databases fast.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::{Result, TxdbError};

use super::record::ChangeRecord;

/// Bytes before the first frame.
pub const WAL_HEADER_LEN: u64 = 20;
/// Identifies a txdb WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"txdbwal\0";
/// On-disk format version (frames and record payloads).
pub const WAL_FORMAT_VERSION: u32 = 1;
/// Upper bound on one frame's payload; a length field beyond this is
/// treated as a torn write rather than an allocation request.
pub const MAX_FRAME_LEN: u32 = 1 << 28;
/// A commit's framed records are written in chunks of about this many
/// bytes: the append buffer stays bounded however large the batch.
pub const APPEND_CHUNK_BYTES: usize = 64 * 1024;

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Tuning for a durable database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// fsync after every commit batch (and checkpoint). On by default;
    /// turning it off trades power-loss durability for commit latency.
    pub fsync: bool,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions { fsync: true }
    }
}

/// Render the fixed header for generation `gen`.
pub(crate) fn header_bytes(gen: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_FORMAT_VERSION.to_be_bytes());
    h[12..20].copy_from_slice(&gen.to_be_bytes());
    h
}

/// Frame one record: `[len][crc][payload]` appended to `buf`.
pub(crate) fn frame_record(buf: &mut Vec<u8>, rec: &ChangeRecord) {
    let mut payload = Vec::new();
    rec.encode(&mut payload);
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&crc32(&payload).to_be_bytes());
    buf.extend_from_slice(&payload);
}

/// An open, append-positioned log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    options: WalOptions,
    generation: u64,
    /// Records appended since open or last truncation (observability for
    /// tests and the checkpoint policy; not persisted).
    appended: u64,
    /// Fault injection: error after this many more records reach the
    /// file. The failure is *torn* on purpose — records before the limit
    /// in the same batch are written (unsynced), mimicking a crash
    /// mid-`write`.
    fail_after: Option<u64>,
}

impl Wal {
    /// Open `path` for appending. `valid_len` is the byte offset after
    /// the last valid frame (from recovery); anything beyond it — a torn
    /// tail — is truncated away. Creates the file with a fresh header
    /// when it does not exist (or when `valid_len` is `None`, which
    /// resets it, as checkpointing does).
    pub(crate) fn open(
        path: &Path,
        generation: u64,
        valid_len: Option<u64>,
        options: WalOptions,
    ) -> Result<Wal> {
        let ctx = "wal open";
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| TxdbError::io(ctx, &e))?;
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            options,
            generation,
            appended: 0,
            fail_after: None,
        };
        match valid_len {
            Some(len) => {
                debug_assert!(len >= WAL_HEADER_LEN);
                wal.file
                    .set_len(len)
                    .and_then(|()| wal.file.seek(SeekFrom::End(0)))
                    .map_err(|e| TxdbError::io(ctx, &e))?;
            }
            None => wal.reset(generation)?,
        }
        Ok(wal)
    }

    /// The generation this log applies on top of.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records appended since open or the last truncation.
    pub fn appended_records(&self) -> u64 {
        self.appended
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether commits fsync.
    pub fn fsync_enabled(&self) -> bool {
        self.options.fsync
    }

    /// Truncate to an empty log of generation `gen` (checkpointing).
    pub(crate) fn reset(&mut self, gen: u64) -> Result<()> {
        let ctx = "wal truncate";
        self.file.set_len(0).map_err(|e| TxdbError::io(ctx, &e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| TxdbError::io(ctx, &e))?;
        self.file
            .write_all(&header_bytes(gen))
            .map_err(|e| TxdbError::io(ctx, &e))?;
        self.file.sync_all().map_err(|e| TxdbError::io(ctx, &e))?;
        self.generation = gen;
        self.appended = 0;
        Ok(())
    }

    /// Append a batch of records, then fsync once (group commit). The
    /// framed records go to the file in chunks of about
    /// [`APPEND_CHUNK_BYTES`], so a bulk load's commit never holds its
    /// whole batch framed in memory. On error nothing is reported
    /// durable — the caller must treat the transaction as aborted;
    /// recovery discards any partially-written tail via the CRC framing.
    pub(crate) fn append_batch(&mut self, records: &[ChangeRecord]) -> Result<()> {
        let ctx = "wal append";
        if let Some(limit) = self.fail_after {
            // Fault-injection path: write the records up to the limit and
            // fail once it is hit, leaving a torn batch on disk.
            let writable = (limit.min(records.len() as u64)) as usize;
            self.write_framed(&records[..writable])?;
            let _ = self.file.flush();
            self.fail_after = Some(limit - writable as u64);
            self.appended += writable as u64;
            if writable < records.len() {
                return Err(TxdbError::Io {
                    context: ctx.into(),
                    detail: "injected append failure".into(),
                });
            }
            return Ok(());
        }
        self.write_framed(records)?;
        if self.options.fsync {
            self.file
                .sync_data()
                .map_err(|e| TxdbError::io("wal fsync", &e))?;
        }
        self.appended += records.len() as u64;
        Ok(())
    }

    /// Frame `records` and write them, one chunk of at least
    /// [`APPEND_CHUNK_BYTES`] (or the batch's tail) per `write_all`.
    fn write_framed(&mut self, records: &[ChangeRecord]) -> Result<()> {
        let mut buf = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            frame_record(&mut buf, rec);
            if buf.len() >= APPEND_CHUNK_BYTES || i + 1 == records.len() {
                self.file
                    .write_all(&buf)
                    .map_err(|e| TxdbError::io("wal append", &e))?;
                buf.clear();
            }
        }
        Ok(())
    }

    /// Inject an append failure after `n` more records reach the file.
    /// Test hook (kept on the public surface so integration tests can
    /// exercise mid-commit I/O failure; not part of the stable API).
    #[doc(hidden)]
    pub fn fail_appends_after(&mut self, n: u64) {
        self.fail_after = Some(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn header_layout_is_stable() {
        let h = header_bytes(42);
        assert_eq!(&h[..8], WAL_MAGIC);
        assert_eq!(u32::from_be_bytes(h[8..12].try_into().unwrap()), 1);
        assert_eq!(u64::from_be_bytes(h[12..20].try_into().unwrap()), 42);
    }
}
