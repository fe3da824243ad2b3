//! Append-only write-ahead log of admitted statements.
//!
//! The log is a sequence of length-prefixed, epoch-stamped frames,
//!
//! ```text
//! #<len>@<epoch>\n<payload>\n
//! ```
//!
//! where `<len>` is the payload's byte length in decimal, `<epoch>` is
//! the statement's position in the store's admission order (a
//! counter that increases by one per admitted statement), and the
//! payload is one SQL statement in the canonical rendering of
//! `sqlnf_model::sql` (`render_create_table` / `render_insert`), so a
//! log replays through the ordinary parser.
//!
//! Recovery checks two things about what it reads back. A torn tail —
//! the first malformed or incomplete frame — ends the replay. So does
//! the first frame whose epoch does not follow its predecessor's (the
//! first frame must carry the generation's epoch base, recorded in the
//! snapshot header). Everything past the replayed run is truncated
//! away, so the resumed epoch counter never collides with a leftover
//! frame.
//!
//! ## Generations
//!
//! A generation's log lives in `wal.<g>.0.log`. A snapshot records (in
//! its header line) the generation of the log that accompanies it and
//! the epoch the next frame will carry. Taking a snapshot never
//! truncates a log in place: it writes the snapshot for generation
//! `g+1`, creates the empty `wal.<g+1>.0.log`, renames the snapshot
//! into place, fsyncs the directory, and only then retires the
//! generation-`g` log. A crash at any point leaves the directory
//! recoverable: logs whose generation differs from the snapshot's are
//! either fully captured by the snapshot (older) or empty leftovers of
//! an unfinished snapshot (newer), so [`cleanup_stale`] deletes them
//! before replay instead of replaying them twice.
//!
//! Earlier builds could split a generation across `wal.<g>.<s>.log`
//! files. [`cleanup_stale`] deletes empty `s >= 1` files as debris and
//! refuses to open a directory whose live generation still holds
//! frames in one, rather than dropping them.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of the snapshot inside a WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.sql";

/// First line of every snapshot file; the generation follows.
const SNAPSHOT_HEADER: &str = "-- sqlnf snapshot generation=";

/// Separates the generation from the epoch base in a snapshot header.
const SNAPSHOT_EPOCH: &str = " epoch=";

/// Path of the log of `generation` inside `dir`.
pub fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation}.0.log"))
}

/// Path of the snapshot temp file for `generation` inside `dir` (a
/// unique name per generation, so an interrupted writer can never be
/// interleaved with a later one).
pub fn snapshot_tmp_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation}.tmp"))
}

/// The header line a snapshot of `generation` starts with (stripped
/// before the body is parsed as SQL). `epoch_base` is the epoch the
/// first frame logged after the snapshot will carry.
pub fn snapshot_header(generation: u64, epoch_base: u64) -> String {
    format!("{SNAPSHOT_HEADER}{generation}{SNAPSHOT_EPOCH}{epoch_base}\n")
}

/// Splits a snapshot image into its generation, its epoch base, and
/// its SQL body. A missing or malformed header reads as generation 0
/// with epoch base 1 and the whole image as body; a header without an
/// epoch field (written before frames carried epochs) reads as base 1.
pub fn parse_snapshot(image: &str) -> (u64, u64, &str) {
    if let Some(rest) = image.strip_prefix(SNAPSHOT_HEADER) {
        if let Some((head, body)) = rest.split_once('\n') {
            let (gen, epoch) = match head.split_once(SNAPSHOT_EPOCH) {
                Some((g, e)) => (g, e.trim().parse().ok()),
                None => (head, Some(1)),
            };
            if let (Ok(generation), Some(epoch_base)) = (gen.trim().parse(), epoch) {
                return (generation, epoch_base, body);
            }
        }
    }
    (0, 1, image)
}

/// Parses `wal.<g>.<s>.log` into `(g, s)`; `s` is always 0 for logs
/// this build writes.
fn parse_log_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("wal.")?.strip_suffix(".log")?;
    let (g, shard) = rest.split_once('.')?;
    Some((g.parse().ok()?, shard.parse().ok()?))
}

/// Deletes the debris of a crash mid-snapshot — logs of any generation
/// other than `keep` (already applied, or never written to) and
/// leftover snapshot temp files — plus empty `wal.<keep>.<s>.log` files
/// with `s >= 1`, which an earlier build's snapshot left behind.
///
/// A non-empty `wal.<keep>.<s>.log` with `s >= 1` holds frames of a log
/// that an earlier build split across several files; replaying only
/// `wal.<keep>.0.log` would drop them silently. That case is an error
/// naming the file, raised before any file is touched.
pub fn cleanup_stale(dir: &Path, keep: u64) -> io::Result<()> {
    let mut stale = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let remove = match parse_log_name(name) {
            Some((g, _)) if g != keep => true,
            Some((_, 0)) => false,
            Some(_) if entry.metadata()?.len() > 0 => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} holds frames of a WAL split across several files by an \
                         earlier build; reopen the directory with that build and shut \
                         it down gracefully to fold the frames into a snapshot",
                        entry.path().display()
                    ),
                ));
            }
            Some(_) => true,
            None => name.starts_with("snapshot.") && name.ends_with(".tmp"),
        };
        if remove {
            stale.push(entry.path());
        }
    }
    for path in &stale {
        std::fs::remove_file(path)?;
    }
    if !stale.is_empty() {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Fsyncs a directory so renames/creates/removes inside it are durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    records: u64,
}

impl Wal {
    /// Opens (creating if needed) the log of `generation` inside `dir`
    /// and returns it with the payloads it replays: the complete frames
    /// whose epochs count up from `epoch_base` without a gap.
    /// Everything after that run — a torn tail, or frames past an epoch
    /// gap — is truncated away, so recovery and the append path agree
    /// on the log's contents.
    pub fn open(dir: &Path, generation: u64, epoch_base: u64) -> io::Result<(Wal, Vec<String>)> {
        std::fs::create_dir_all(dir)?;
        let path = wal_path(dir, generation);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let mut good = 0u64;
        let mut payloads = Vec::new();
        for (epoch, payload, end) in scan_frames(&raw) {
            if epoch != epoch_base + payloads.len() as u64 {
                break;
            }
            good = end as u64;
            payloads.push(payload);
        }
        if good < raw.len() as u64 {
            file.set_len(good)?;
        }
        file.seek(SeekFrom::Start(good))?;
        let wal = Wal {
            file,
            path,
            bytes: good,
            records: payloads.len() as u64,
        };
        Ok((wal, payloads))
    }

    /// Appends one frame. The write lands in the OS page cache; an
    /// explicit [`sync`](Self::sync) is needed for durability. Returns
    /// the frame's byte size.
    pub fn append(&mut self, epoch: u64, payload: &str) -> io::Result<u64> {
        self.append_batch(std::slice::from_ref(&(epoch, payload.to_owned())))
    }

    /// Appends a batch of frames as a single `write` call — the heart
    /// of group commit: one syscall and (after [`sync`](Self::sync))
    /// one fsync cover every waiter in the batch. Returns the bytes
    /// written.
    pub fn append_batch(&mut self, frames: &[(u64, String)]) -> io::Result<u64> {
        let mut buf = String::new();
        for (epoch, payload) in frames {
            render_frame(&mut buf, *epoch, payload);
        }
        self.file.write_all(buf.as_bytes())?;
        self.bytes += buf.len() as u64;
        self.records += frames.len() as u64;
        sqlnf_obs::count!("serve.wal.bytes", buf.len() as u64);
        sqlnf_obs::count!("serve.wal.records", frames.len() as u64);
        Ok(buf.len() as u64)
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        let _span = sqlnf_obs::span!("serve.wal.fsync");
        self.file.sync_data()
    }

    /// Rolls the log back to `bytes`/`records`, erasing a batch whose
    /// commit failed between `write` and `fsync` so the frames are
    /// never replayed (their writers were answered with an error, not
    /// an ack).
    pub fn truncate_to(&mut self, bytes: u64, records: u64) -> io::Result<()> {
        self.file.set_len(bytes)?;
        self.file.seek(SeekFrom::Start(bytes))?;
        self.bytes = bytes;
        self.records = records;
        Ok(())
    }

    /// Bytes currently in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Frames currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Renders one frame into `buf`.
fn render_frame(buf: &mut String, epoch: u64, payload: &str) {
    use std::fmt::Write as _;
    let _ = write!(buf, "#{}@{epoch}\n{payload}\n", payload.len());
}

/// Parses the complete frames of a raw log image, up to the first
/// malformed or incomplete one; returns each frame's epoch, payload,
/// and the byte offset just past it.
fn scan_frames(raw: &[u8]) -> Vec<(u64, String, usize)> {
    let mut out = Vec::new();
    let mut at = 0usize;
    loop {
        if at >= raw.len() || raw[at] != b'#' {
            return out;
        }
        at += 1;
        let Some((len, next)) = scan_number(raw, at) else {
            return out;
        };
        at = next;
        if at >= raw.len() || raw[at] != b'@' {
            return out;
        }
        at += 1;
        let Some((epoch, next)) = scan_number(raw, at) else {
            return out;
        };
        at = next;
        if at >= raw.len() || raw[at] != b'\n' {
            return out;
        }
        at += 1;
        let Some(end) = at.checked_add(len as usize) else {
            return out;
        };
        if end >= raw.len() || raw[end] != b'\n' {
            return out;
        }
        match std::str::from_utf8(&raw[at..end]) {
            Ok(s) => out.push((epoch, s.to_owned(), end + 1)),
            Err(_) => return out,
        }
        at = end + 1;
    }
}

/// Parses a non-empty decimal run at `at`; returns the value and the
/// offset just past it.
fn scan_number(raw: &[u8], at: usize) -> Option<(u64, usize)> {
    let start = at;
    let mut at = at;
    while at < raw.len() && raw[at].is_ascii_digit() {
        at += 1;
    }
    if at == start {
        return None;
    }
    let n = std::str::from_utf8(&raw[start..at]).ok()?.parse().ok()?;
    Some((n, at))
}

/// Reads the `(epoch, payload)` pairs of all complete frames of a log
/// file; a missing file is an empty log.
pub fn replay(path: &Path) -> io::Result<Vec<(u64, String)>> {
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    Ok(scan_frames(&raw)
        .into_iter()
        .map(|(epoch, payload, _)| (epoch, payload))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqlnf_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmp_dir("rt");
        let (mut wal, replayed) = Wal::open(&dir, 0, 1).unwrap();
        assert!(replayed.is_empty());
        wal.append(1, "CREATE TABLE t (a TEXT);").unwrap();
        wal.append(2, "INSERT INTO t VALUES ('x;\ny');").unwrap();
        assert_eq!(wal.records(), 2);
        let back = replay(&wal_path(&dir, 0)).unwrap();
        assert_eq!(
            back,
            vec![
                (1, "CREATE TABLE t (a TEXT);".to_owned()),
                (2, "INSERT INTO t VALUES ('x;\ny');".to_owned())
            ]
        );
        drop(wal);
        let (_, replayed) = Wal::open(&dir, 0, 1).unwrap();
        assert_eq!(replayed, vec![back[0].1.clone(), back[1].1.clone()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_is_one_frame_per_statement() {
        let dir = tmp_dir("batch");
        let (mut wal, _) = Wal::open(&dir, 0, 1).unwrap();
        let frames: Vec<(u64, String)> = (1..=5)
            .map(|i| (i, format!("INSERT INTO t VALUES ({i});")))
            .collect();
        wal.append_batch(&frames).unwrap();
        assert_eq!(wal.records(), 5);
        assert_eq!(replay(&wal_path(&dir, 0)).unwrap(), frames);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated() {
        let dir = tmp_dir("torn");
        let (mut wal, _) = Wal::open(&dir, 0, 1).unwrap();
        wal.append(1, "INSERT INTO t VALUES (1);").unwrap();
        let good_bytes = wal.bytes();
        drop(wal);
        // Simulate a crash mid-append: a frame with a short payload.
        let path = wal_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"#999@2\nINSERT INTO").unwrap();
        drop(f);
        assert_eq!(
            replay(&path).unwrap(),
            vec![(1, "INSERT INTO t VALUES (1);".to_owned())]
        );
        // Re-opening truncates back to the last good frame and appends
        // continue from there.
        let (mut wal, _) = Wal::open(&dir, 0, 1).unwrap();
        assert_eq!(wal.bytes(), good_bytes);
        assert_eq!(wal.records(), 1);
        wal.append(2, "INSERT INTO t VALUES (2);").unwrap();
        assert_eq!(replay(&path).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_at_the_first_epoch_gap() {
        let dir = tmp_dir("gap");
        let (mut wal, _) = Wal::open(&dir, 0, 1).unwrap();
        for epoch in [1, 2, 4, 5] {
            wal.append(epoch, &format!("INSERT INTO t VALUES ({epoch});"))
                .unwrap();
        }
        drop(wal);
        // Epoch 3 is missing: only 1..=2 replay, and 4, 5 are erased.
        let (wal, replayed) = Wal::open(&dir, 0, 1).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(wal.records(), 2);
        drop(wal);
        let back = replay(&wal_path(&dir, 0)).unwrap();
        assert_eq!(back.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![1, 2]);
        // A log whose first frame is not the epoch base replays nothing.
        let (wal, replayed) = Wal::open(&dir, 0, 7).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(wal.bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_header_round_trips() {
        let image = format!("{}CREATE TABLE t (a INT);\n", snapshot_header(7, 42));
        assert_eq!(parse_snapshot(&image), (7, 42, "CREATE TABLE t (a INT);\n"));
        // Headers without an epoch field read as base 1.
        assert_eq!(
            parse_snapshot("-- sqlnf snapshot generation=7\nBODY"),
            (7, 1, "BODY")
        );
        // Headerless (or mangled) snapshots read as generation 0.
        assert_eq!(
            parse_snapshot("CREATE TABLE t (a INT);"),
            (0, 1, "CREATE TABLE t (a INT);")
        );
    }

    #[test]
    fn cleanup_removes_other_generations_and_tmps() {
        let dir = tmp_dir("clean");
        let log = |g: u64, s: u64| dir.join(format!("wal.{g}.{s}.log"));
        std::fs::write(log(3, 0), b"").unwrap();
        std::fs::write(log(4, 0), b"").unwrap();
        std::fs::write(log(4, 1), b"").unwrap();
        std::fs::write(log(5, 2), b"#1@9\nx\n").unwrap();
        std::fs::write(snapshot_tmp_path(&dir, 4), b"junk").unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), b"").unwrap();
        cleanup_stale(&dir, 4).unwrap();
        assert!(!log(3, 0).exists());
        assert!(log(4, 0).exists());
        assert!(!log(4, 1).exists(), "empty extra log is debris");
        assert!(!log(5, 2).exists());
        assert!(!snapshot_tmp_path(&dir, 4).exists());
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
