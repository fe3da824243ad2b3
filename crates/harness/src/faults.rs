//! Fault planning and injection.
//!
//! The plan is drawn from its own RNG stream (the workload stream is
//! never consulted), and every decision is drawn *unconditionally* —
//! the probability flags only gate whether a drawn fault is armed — so
//! changing `--kill-prob` never changes which corruption a seed would
//! inject, and vice versa.
//!
//! Corruption is strictly framing-level: a truncated tail, a smashed
//! frame marker, or appended garbage. The WAL's recovery contract is
//! that the first malformed frame ends the replay, so any of these
//! leaves a clean *prefix* of the admitted statements — which is
//! exactly what the differential check asserts. A byte flip inside a
//! payload would instead produce well-framed garbage SQL and turn
//! recovery into a parse error; that is a different (and rejected)
//! failure model, so the harness never does it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::Path;

/// Keeps the fault stream distinct from the workload stream for the
/// same seed.
const FAULT_STREAM: u64 = 0xFA17_5EED_0000_0001;

/// How the live WAL's tail is damaged after the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Truncate the log by this many bytes (clamped to its length) —
    /// the classic torn tail.
    TruncateTail(u64),
    /// Overwrite the last frame marker (`#`) so the final record is
    /// malformed.
    SmashLastFrame,
    /// Append bytes that are not a complete frame (a crash mid-append).
    AppendGarbage,
}

impl Corruption {
    /// Short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Corruption::TruncateTail(_) => "truncate-tail",
            Corruption::SmashLastFrame => "smash-frame",
            Corruption::AppendGarbage => "append-garbage",
        }
    }
}

/// The seed-determined fault plan of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Admitted statements between automatic snapshots (0 = only on
    /// graceful shutdown); small values force snapshot races with the
    /// concurrent writers.
    pub snapshot_every: u64,
    /// `Some(k)`: after `k` further successful WAL appends every append
    /// fails (the deterministic crash point), and the server is
    /// `kill()`ed — no final snapshot, no fsync — instead of shut down.
    pub kill_after: Option<u64>,
    /// Damage applied to the live WAL between crash and reopen.
    pub corruption: Option<Corruption>,
}

/// Draws the plan for `(seed, ops)` under the given probabilities.
pub fn plan(seed: u64, ops: usize, kill_prob: f64, corrupt_prob: f64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ FAULT_STREAM);
    let snapshot_every = rng.gen_range(0..=8u64);
    // Draw both faults unconditionally, then gate them.
    let kill_roll = rng.gen_bool(kill_prob.clamp(0.0, 1.0));
    let kill_point = rng.gen_range(1..=ops.max(1) as u64);
    let corrupt_roll = rng.gen_bool(corrupt_prob.clamp(0.0, 1.0));
    let corruption = match rng.gen_range(0..3u32) {
        0 => Corruption::TruncateTail(rng.gen_range(1..=160u64)),
        1 => Corruption::SmashLastFrame,
        _ => Corruption::AppendGarbage,
    };
    FaultPlan {
        snapshot_every,
        kill_after: kill_roll.then_some(kill_point),
        corruption: corrupt_roll.then_some(corruption),
    }
}

/// Applies `c` to the log of the live generation — the one named by
/// the snapshot header (generation 0 when no snapshot exists). A
/// missing or empty log makes the corruption a no-op — the
/// differential check then simply sees full recovery.
pub fn corrupt_wal_dir(dir: &Path, c: Corruption) -> io::Result<()> {
    use sqlnf_serve::wal;
    let generation = match std::fs::read_to_string(dir.join(wal::SNAPSHOT_FILE)) {
        Ok(image) => wal::parse_snapshot(&image).0,
        Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
        Err(e) => return Err(e),
    };
    let path = wal::wal_path(dir, generation);
    let raw = match std::fs::read(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if raw.is_empty() {
        return Ok(());
    }
    sqlnf_obs::count!("harness.corruptions");
    match c {
        Corruption::TruncateTail(n) => {
            let keep = raw.len() as u64 - n.min(raw.len() as u64);
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(keep)?;
        }
        Corruption::SmashLastFrame => {
            // Canonical statements never contain '#', so the last
            // '#' in the image is the last frame's marker.
            if let Some(i) = raw.iter().rposition(|&b| b == b'#') {
                let mut raw = raw;
                raw[i] = b'@';
                std::fs::write(&path, raw)?;
            }
        }
        Corruption::AppendGarbage => {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path)?;
            f.write_all(b"#999\nINSERT INTO half_a_frame")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_prob_independent() {
        assert_eq!(plan(5, 100, 0.5, 0.5), plan(5, 100, 0.5, 0.5));
        // Gating one fault never redraws the other.
        let both = plan(5, 100, 1.0, 1.0);
        let kill_only = plan(5, 100, 1.0, 0.0);
        let corrupt_only = plan(5, 100, 0.0, 1.0);
        assert_eq!(kill_only.kill_after, both.kill_after);
        assert_eq!(corrupt_only.corruption, both.corruption);
        assert!(kill_only.corruption.is_none());
        assert!(corrupt_only.kill_after.is_none());
        assert_eq!(both.snapshot_every, kill_only.snapshot_every);
    }

    #[test]
    fn corruption_leaves_a_replayable_prefix() {
        use sqlnf_serve::wal::{self, Wal};
        let stmts = [
            "CREATE TABLE t (a INT NOT NULL);",
            "INSERT INTO t VALUES (1);",
            "INSERT INTO t VALUES (2), (3);",
        ];
        for c in [
            Corruption::TruncateTail(7),
            Corruption::TruncateTail(10_000),
            Corruption::SmashLastFrame,
            Corruption::AppendGarbage,
        ] {
            let dir = std::env::temp_dir().join(format!(
                "sqlnf_faults_{}_{}",
                c.label(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let (mut w, _) = Wal::open(&dir, 0, 1).unwrap();
            for (i, s) in stmts.iter().enumerate() {
                w.append(i as u64 + 1, s).unwrap();
            }
            drop(w);
            corrupt_wal_dir(&dir, c).unwrap();
            let pristine: Vec<_> = stmts
                .iter()
                .enumerate()
                .map(|(i, s)| (i as u64 + 1, s.to_string()))
                .collect();
            let back = wal::replay(&wal::wal_path(&dir, 0)).unwrap();
            assert!(back.len() <= stmts.len(), "{c:?}");
            assert_eq!(
                back[..],
                pristine[..back.len()],
                "{c:?} must yield a prefix"
            );
            if !matches!(c, Corruption::AppendGarbage) {
                assert!(back.len() < stmts.len(), "{c:?} left the log undamaged");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
