//! Group commit over the write-ahead log.
//!
//! Writers validate and apply a statement under its table lock, then
//! [`enqueue`](GroupWal::enqueue) the canonical rendering — which
//! assigns the frame its epoch, the next position in the store's one
//! commit order — release their locks, and park in
//! [`wait`](GroupWal::wait) until the durable epoch covers them. There
//! is no dedicated committer thread: the first waiter to win the file
//! mutex (a `try_lock` election, same shape as the snapshot trigger's
//! compare-exchange) drains the queue, writes every pending frame in
//! one `write`, fsyncs once, advances the durable epoch, and wakes the
//! others. Losers park on a condvar with a short timeout so a stalled
//! committer can never strand them: on every wakeup they re-check
//! durability and re-run the election.
//!
//! One fsync therefore covers every statement that queued while the
//! previous fsync was in flight — the classic group-commit bargain:
//! per-statement latency is bounded below by one fsync, but fsyncs
//! per second no longer bound statements per second.
//!
//! Epochs are drawn under the queue mutex and batches are drained
//! under the file mutex, so batches reach the log — and the commit
//! listener — in epoch order. A batch is durable exactly when every
//! earlier epoch is, which is what recovery's contiguous replay needs.
//!
//! ## Failure contract
//!
//! A statement is acknowledged only after the batch fsync covering its
//! frame succeeded. If the batch write or fsync fails, the committer
//! rolls the file back to the batch's start and latches the log
//! *failed* at the batch's first epoch: every waiter at or past that
//! epoch, plus every later enqueue attempt, gets an error instead of an
//! ack. The in-memory table state of the failed statements is not
//! rolled back (their locks are long gone); a store that lost a batch
//! is degraded and should be restarted, which replays exactly the
//! durable, acknowledged prefix.

use crate::metrics::{self, Stage};
use crate::wal::Wal;
use crate::watch::HubMsg;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Duration;

/// How long a loser of the committer election parks before re-checking
/// durability and re-running the election.
const PARK: Duration = Duration::from_millis(1);

/// A claim on durability: the epoch assigned to one enqueued frame.
/// Redeemed by [`GroupWal::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    epoch: u64,
}

/// Frames admitted but not yet written, plus the epoch the next one
/// will carry.
#[derive(Debug)]
struct Queue {
    pending: Vec<(u64, String)>,
    next_epoch: u64,
}

/// The store's durability plane: one queue, one log file, one durable
/// epoch, one latched failure.
#[derive(Debug)]
pub struct GroupWal {
    /// Lock tier 5: admitted-but-unwritten frames.
    queue: Mutex<Queue>,
    /// Lock tier 4: the log file; holding it *is* being the committer
    /// (`None` when the store is ephemeral).
    file: Mutex<Option<Wal>>,
    /// Highest epoch known durable.
    durable: AtomicU64,
    /// First epoch lost to a failed batch (`u64::MAX` = healthy).
    /// Latched once, never reset: a log that lost a batch refuses all
    /// further work.
    failed: AtomicU64,
    /// How long an elected committer lingers before draining, letting
    /// more writers join its batch (0 = drain immediately).
    window: Duration,
    /// Test hook: when enabled, every committed frame's payload is
    /// recorded here at commit time — the oplog is exactly the durable
    /// history, which is what the harness diffs recovery against.
    oplog: Mutex<Option<Vec<String>>>,
    /// Test hook: the next batch fails between `write` and `fsync`.
    fsync_fault: AtomicBool,
    /// Commit-time listener (the store's WATCH hub): every batch that
    /// becomes durable is forwarded as `(epoch, payload)` frames, in
    /// epoch order. Failed batches are never sent, and nothing after
    /// one is.
    listener: Mutex<Option<Sender<HubMsg>>>,
    /// Parking lot for election losers.
    gate: Mutex<()>,
    cv: Condvar,
}

impl GroupWal {
    fn with_file(file: Option<Wal>, next_epoch: u64, window: Duration) -> GroupWal {
        GroupWal {
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                next_epoch,
            }),
            file: Mutex::new(file),
            durable: AtomicU64::new(next_epoch - 1),
            failed: AtomicU64::new(u64::MAX),
            window,
            oplog: Mutex::new(None),
            fsync_fault: AtomicBool::new(false),
            listener: Mutex::new(None),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// A durability plane with no backing file (ephemeral store):
    /// commit still assigns epochs, advances the durable epoch, and
    /// feeds the oplog, it just performs no I/O.
    pub fn ephemeral(window: Duration) -> GroupWal {
        GroupWal::with_file(None, 1, window)
    }

    /// Opens `generation`'s log inside `dir` and returns the plane with
    /// the statements to replay: the log's contiguous epoch run from
    /// `epoch_base` (see [`Wal::open`], which truncates whatever
    /// follows it).
    pub fn recover(
        dir: &Path,
        generation: u64,
        epoch_base: u64,
        window: Duration,
    ) -> io::Result<(GroupWal, Vec<String>)> {
        let epoch_base = epoch_base.max(1);
        let (wal, replayed) = Wal::open(dir, generation, epoch_base)?;
        let next = epoch_base + replayed.len() as u64;
        Ok((GroupWal::with_file(Some(wal), next, window), replayed))
    }

    /// The epoch the next enqueued frame will carry. Only meaningful
    /// while no writer is active (the snapshotter calls this with
    /// every table lock held).
    pub fn epoch_next(&self) -> u64 {
        self.queue.lock().unwrap().next_epoch
    }

    /// Install the commit-time listener (the store's WATCH hub). Set
    /// once at store construction, before any writer runs.
    pub(crate) fn set_listener(&self, tx: Sender<HubMsg>) {
        *self.listener.lock().unwrap() = Some(tx);
    }

    /// Assigns `payload` its epoch and queues it for commit. Must be
    /// called while still holding the statement's table (or registry)
    /// write lock, so epoch order agrees with application order. Fails
    /// — without enqueuing — once a batch was lost (the new frame could
    /// never ack); the caller still holds its lock and can roll the
    /// statement back.
    pub fn enqueue(&self, payload: String) -> io::Result<Ticket> {
        if self.failed.load(Ordering::Acquire) != u64::MAX {
            return Err(io::Error::other("WAL failed; statement refused"));
        }
        let mut q = {
            let _wait = sqlnf_obs::span!("serve.lock_wait.wal");
            metrics::timed(Stage::LockWal, || self.queue.lock().unwrap())
        };
        let epoch = q.next_epoch;
        q.next_epoch += 1;
        q.pending.push((epoch, payload));
        Ok(Ticket { epoch })
    }

    /// Whether the ticket is settled: `Some(Ok)` once its frame is
    /// durable, `Some(Err)` once it can never be (its batch, or an
    /// earlier one, was lost), `None` while it is still pending.
    fn settled(&self, t: Ticket) -> Option<io::Result<()>> {
        if self.failed.load(Ordering::Acquire) <= t.epoch {
            Some(Err(io::Error::other(
                "group commit failed; statement not durable",
            )))
        } else if self.durable.load(Ordering::Acquire) >= t.epoch {
            Some(Ok(()))
        } else {
            None
        }
    }

    /// Parks until the ticket's frame is durable (ack), or until it can
    /// never be (error). The caller must hold no locks: the waiter may
    /// be elected committer and perform the batch I/O itself.
    pub fn wait(&self, t: Ticket) -> io::Result<()> {
        loop {
            if let Some(outcome) = self.settled(t) {
                return outcome;
            }
            if let Some(mut file) = try_lock(&self.file) {
                self.commit_locked(&mut file, true);
                continue;
            }
            // Election lost: park until the committer wakes us (or the
            // timeout re-runs the election, so a stalled committer can
            // never strand us).
            let gate = self.gate.lock().unwrap();
            if self.settled(t).is_some() {
                continue;
            }
            let _ = self.cv.wait_timeout(gate, PARK).unwrap();
            sqlnf_obs::count!("serve.commit.wakeups");
        }
    }

    /// The committer's critical section: drain the queue and make the
    /// batch durable. Caller holds the file mutex. `linger` applies the
    /// commit window (disabled on the quiescent snapshot drain path).
    fn commit_locked(&self, file: &mut Option<Wal>, linger: bool) {
        if self.failed.load(Ordering::Acquire) != u64::MAX {
            // A batch was already lost: drop what queued behind it so
            // waiters see `failed` instead of queue growth, but perform
            // no I/O. Every dropped frame sits past the failed epoch.
            let dropped = std::mem::take(&mut self.queue.lock().unwrap().pending);
            if !dropped.is_empty() {
                self.wake();
            }
            return;
        }
        if linger && !self.window.is_zero() {
            // Linger with the file mutex held: later writers can still
            // enqueue (the queue mutex is free) and join this batch.
            std::thread::sleep(self.window);
        }
        let batch = std::mem::take(&mut self.queue.lock().unwrap().pending);
        let (Some(&(first, _)), Some(&(last, _))) = (batch.first(), batch.last()) else {
            return;
        };
        let rollback = file.as_ref().map(|w| (w.bytes(), w.records()));
        let res = match file.as_mut() {
            Some(wal) => self.write_batch(wal, &batch),
            None => Ok(()),
        };
        match res {
            Ok(()) => {
                let n = batch.len() as u64;
                if let Some(log) = self.oplog.lock().unwrap().as_mut() {
                    log.extend(batch.iter().map(|(_, payload)| payload.clone()));
                }
                // Durable from here on: notify the WATCH hub. Sent under
                // the file mutex, so batches arrive in epoch order.
                if let Some(tx) = self.listener.lock().unwrap().as_ref() {
                    let _ = tx.send(HubMsg::Batch(batch));
                }
                self.durable.store(last, Ordering::Release);
                sqlnf_obs::count!("serve.commit.batches");
                sqlnf_obs::count!("serve.commit.frames", n);
                sqlnf_obs::record!("serve.commit.batch_size", n);
            }
            Err(_) => {
                // Never acked: erase the batch so recovery cannot
                // replay frames their writers saw fail, and latch the
                // log failed from the batch's first epoch on.
                if let (Some(wal), Some((bytes, records))) = (file.as_mut(), rollback) {
                    let _ = wal.truncate_to(bytes, records);
                }
                self.failed.store(first, Ordering::Release);
            }
        }
        self.wake();
    }

    /// Writes one drained batch and fsyncs it once.
    fn write_batch(&self, wal: &mut Wal, batch: &[(u64, String)]) -> io::Result<()> {
        {
            let _span = sqlnf_obs::span!("serve.wal.append");
            metrics::timed(Stage::WalAppend, || wal.append_batch(batch))?;
        }
        if self.fsync_fault.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other("injected fsync fault"));
        }
        metrics::timed(Stage::WalFsync, || wal.sync())
    }

    /// Locks the log file (tier 4; the snapshot path holds it across
    /// the generation switch).
    pub fn lock_file(&self) -> MutexGuard<'_, Option<Wal>> {
        self.file.lock().unwrap()
    }

    /// Drains the queue into the (old-generation) log — used by the
    /// snapshotter, which at this point holds every table lock, so the
    /// queue is quiescent afterwards.
    pub fn drain(&self, file: &mut Option<Wal>) {
        self.commit_locked(file, false);
    }

    /// Fsyncs the log file (graceful shutdown path).
    pub fn sync(&self) -> io::Result<()> {
        if let Some(wal) = self.lock_file().as_mut() {
            metrics::timed(Stage::WalFsync, || wal.sync())?;
        }
        Ok(())
    }

    /// `(bytes, records)` of the live log.
    pub fn size(&self) -> (u64, u64) {
        self.lock_file()
            .as_ref()
            .map_or((0, 0), |wal| (wal.bytes(), wal.records()))
    }

    /// Test hook: start recording committed frames.
    pub fn enable_oplog(&self) {
        *self.oplog.lock().unwrap() = Some(Vec::new());
    }

    /// Test hook: the committed history so far, in epoch order.
    pub fn oplog(&self) -> Vec<String> {
        self.oplog.lock().unwrap().clone().unwrap_or_default()
    }

    /// Test hook: make the next commit batch fail between its `write`
    /// and its `fsync`, the crash window group commit must never ack
    /// across.
    pub fn inject_fsync_fault_once(&self) {
        self.fsync_fault.store(true, Ordering::SeqCst);
    }

    /// Wakes parked waiters (taking the gate briefly first, so a waiter
    /// that just checked the horizon but has not parked yet cannot miss
    /// the notification).
    fn wake(&self) {
        drop(self.gate.lock().unwrap());
        self.cv.notify_all();
    }
}

/// `try_lock` that treats a poisoned mutex as acquired (the poisoner
/// panicked mid-commit; the log will latch failed rather than wedge).
fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqlnf_commit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn enqueue_wait_commits_and_acks() {
        let dir = tmp_dir("ack");
        let (gw, replayed) = GroupWal::recover(&dir, 0, 1, Duration::ZERO).unwrap();
        assert!(replayed.is_empty());
        gw.enable_oplog();
        let t1 = gw.enqueue("S1".into()).unwrap();
        let t2 = gw.enqueue("S2".into()).unwrap();
        gw.wait(t1).unwrap();
        gw.wait(t2).unwrap();
        assert_eq!(gw.oplog(), vec!["S1".to_owned(), "S2".to_owned()]);
        // Everything written is replayable in epoch order.
        drop(gw);
        let (gw2, replayed) = GroupWal::recover(&dir, 0, 1, Duration::ZERO).unwrap();
        assert_eq!(replayed, vec!["S1".to_owned(), "S2".to_owned()]);
        assert_eq!(gw2.epoch_next(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_writers_share_fsyncs() {
        let dir = tmp_dir("shared");
        let (gw, _) = GroupWal::recover(&dir, 0, 1, Duration::ZERO).unwrap();
        let gw = Arc::new(gw);
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let gw = Arc::clone(&gw);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let t = gw.enqueue(format!("S{k}_{i}")).unwrap();
                        gw.wait(t).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(gw.size().1, 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_fault_fails_waiters_and_erases_the_batch() {
        let dir = tmp_dir("fault");
        let (gw, _) = GroupWal::recover(&dir, 0, 1, Duration::ZERO).unwrap();
        gw.enable_oplog();
        let t_ok = gw.enqueue("GOOD".into()).unwrap();
        gw.wait(t_ok).unwrap();
        gw.inject_fsync_fault_once();
        let t_bad = gw.enqueue("BAD".into()).unwrap();
        assert!(gw.wait(t_bad).is_err(), "undurable waiter must not ack");
        assert_eq!(gw.oplog(), vec!["GOOD".to_owned()]);
        // The failed frame was erased: only the durable prefix replays.
        assert_eq!(gw.size().1, 1);
        // The log is latched failed: further work is refused upfront.
        assert!(gw.enqueue("LATER".into()).is_err());
        drop(gw);
        let (_, replayed) = GroupWal::recover(&dir, 0, 1, Duration::ZERO).unwrap();
        assert_eq!(replayed, vec!["GOOD".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ephemeral_commits_without_io() {
        let gw = GroupWal::ephemeral(Duration::ZERO);
        gw.enable_oplog();
        let t = gw.enqueue("S".into()).unwrap();
        gw.wait(t).unwrap();
        assert_eq!(gw.oplog(), vec!["S".to_owned()]);
        assert_eq!(gw.size(), (0, 0));
    }
}
