//! Data mover service.
//!
//! Transfers selected row blocks from node workers to client
//! processors — the only inter-stage transport in the service plane.
//! Blocks flow over *bounded* channels sized by
//! `QueryOptions::mover_capacity`, so a slow absorber back-pressures
//! the node pipelines instead of buffering unboundedly; send-side
//! blocking is counted in [`MoverStats`] (queue-wait observability).
//! A full channel means the absorber — one thread, rebuilding rows out
//! of every columnar block — is what the query is waiting for, so a
//! sender that finds it full does that block's share of the absorber's
//! work before it waits: [`send_columns`] runs the column→row kernel
//! ([`ColumnBlock::to_rows`]) on the block it is holding and ships the
//! finished [`Rows`], which the absorber adopts by pointer. Nothing
//! else about the block changes (destination, sequence tag, wire
//! bytes, send count), so results and every counter but
//! [`MoverStats::sender_rebuilds`] are the same whoever transposed.
//! Local clients receive blocks at memory speed; remote clients (the
//! paper's Figure 8 query 5, "accessing the data from a remote
//! client") go through a [`BandwidthModel`] that delays each block
//! according to a link bandwidth and per-block latency, simulating the
//! wide-area transfer. The delay is charged on the *absorbing* side
//! ([`absorb_transfer`], the client session's thread) — it models the
//! client's ingest link, so concurrent queries overlap their stalls
//! while a slow client back-pressures only its own node pipelines
//! through the bounded channel. The simulated transfer sleeps in short
//! slices and polls the query's [`CancelToken`] between them, so an
//! abort or deadline interrupts a block mid-"flight".

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{Sender, TrySendError};
use dv_types::{AggBlock, CancelToken, ColumnBlock, DvError, Result, RowBlock, Rows};

/// Longest uninterruptible slice of a simulated transfer sleep.
const SLEEP_SLICE: Duration = Duration::from_millis(10);

/// Simulated network link for remote clients.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthModel {
    /// Payload bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed per-block latency (round-trip / framing overhead).
    pub latency: Duration,
}

impl BandwidthModel {
    /// A Fast-Ethernet-class link (the paper's cluster interconnect):
    /// 100 Mbit/s, negligible latency.
    pub fn fast_ethernet() -> BandwidthModel {
        BandwidthModel { bytes_per_sec: 12.5e6, latency: Duration::from_micros(100) }
    }

    /// A wide-area link for remote-client experiments: 10 Mbit/s,
    /// 20 ms latency.
    pub fn wide_area() -> BandwidthModel {
        BandwidthModel { bytes_per_sec: 1.25e6, latency: Duration::from_millis(20) }
    }

    /// Transfer delay of a payload of `bytes`.
    pub fn delay_for(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// Shared atomic mover counters for one query, snapshotted into
/// `QueryStats::mover`.
#[derive(Debug, Default)]
pub struct MoverStats {
    /// Blocks handed to the transport.
    pub sends: AtomicU64,
    /// Sends that found the bounded channel full and had to wait.
    pub blocked_sends: AtomicU64,
    /// Total time senders spent blocked on a full channel.
    pub send_wait_ns: AtomicU64,
    /// Columnar blocks whose rows the sending worker rebuilt because
    /// the channel was full (the rest are rebuilt by the absorber).
    pub sender_rebuilds: AtomicU64,
    /// Partial-aggregate blocks shipped (aggregation pushdown).
    pub agg_blocks: AtomicU64,
    /// Rows folded into node-side accumulators before shipping.
    pub agg_rows_in: AtomicU64,
    /// Accumulator entries (per-AFC group partials) actually shipped.
    pub agg_groups_out: AtomicU64,
    /// High-water mark of blocks buffered in the absorber's reorder
    /// maps (set by the absorbing side; bounds client-side memory).
    pub peak_buffered_blocks: AtomicU64,
}

impl MoverStats {
    /// Copy the counters into a plain snapshot.
    pub fn snapshot(&self) -> MoverSnapshot {
        MoverSnapshot {
            sends: self.sends.load(Ordering::Relaxed),
            blocked_sends: self.blocked_sends.load(Ordering::Relaxed),
            send_wait: Duration::from_nanos(self.send_wait_ns.load(Ordering::Relaxed)),
            sender_rebuilds: self.sender_rebuilds.load(Ordering::Relaxed),
            agg_blocks: self.agg_blocks.load(Ordering::Relaxed),
            agg_rows_in: self.agg_rows_in.load(Ordering::Relaxed),
            agg_groups_out: self.agg_groups_out.load(Ordering::Relaxed),
            peak_buffered_blocks: self.peak_buffered_blocks.load(Ordering::Relaxed),
        }
    }

    /// Record the absorber's current buffered-block count, keeping the
    /// high-water mark.
    pub fn note_buffered(&self, buffered: u64) {
        self.peak_buffered_blocks.fetch_max(buffered, Ordering::Relaxed);
    }
}

/// Point-in-time view of [`MoverStats`], carried in
/// `QueryStats::mover`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoverSnapshot {
    /// Blocks handed to the transport.
    pub sends: u64,
    /// Sends that found the bounded channel full and had to wait.
    pub blocked_sends: u64,
    /// Total sender time spent blocked on a full channel.
    pub send_wait: Duration,
    /// Columnar blocks whose rows the sending worker rebuilt because
    /// the channel was full.
    pub sender_rebuilds: u64,
    /// Partial-aggregate blocks shipped (aggregation pushdown).
    pub agg_blocks: u64,
    /// Rows folded into node-side accumulators before shipping.
    pub agg_rows_in: u64,
    /// Accumulator entries (per-AFC group partials) shipped.
    pub agg_groups_out: u64,
    /// High-water mark of blocks buffered in the absorber's reorder
    /// maps.
    pub peak_buffered_blocks: u64,
}

impl MoverSnapshot {
    /// Rows-in to groups-out reduction ratio of the aggregation
    /// pushdown (`None` when no partials were shipped).
    pub fn agg_reduction(&self) -> Option<f64> {
        (self.agg_groups_out > 0).then(|| self.agg_rows_in as f64 / self.agg_groups_out as f64)
    }
}

/// Message from node workers to the client-side collector.
///
/// Data messages carry a sequence tag: the *scanned ordinal* of the
/// source block's first pre-filter row within its node's schedule — a
/// plan-time quantity, unique and monotonic in schedule order per
/// node. The absorbing side buffers arrivals and reassembles them
/// sorted by `(source node, seq)`, so client tables come out
/// bit-identical no matter how morsel workers interleaved or stole
/// the work that produced the blocks.
#[derive(Debug)]
pub enum MoverMessage {
    /// A block destined for client processor `processor`.
    Block { processor: usize, seq: u64, block: RowBlock },
    /// A columnar block destined for client processor `processor`
    /// (rows are reconstituted only when the client absorbs it).
    Columns { processor: usize, seq: u64, block: ColumnBlock },
    /// A columnar block of `node` whose rows the sender already
    /// rebuilt (it found the channel full). `wire_bytes` is the
    /// payload of the columnar block it came from — what the link
    /// model charges, unchanged by who transposed.
    Rows { processor: usize, node: usize, seq: u64, wire_bytes: usize, rows: Rows },
    /// A partial-aggregate block (aggregation pushdown). Entries carry
    /// their own per-AFC sequence tags, so no message-level `seq`.
    Agg { processor: usize, block: AggBlock },
    /// Control message: the sending worker finished every block of the
    /// morsel starting at scanned ordinal `base` and spanning `rows`
    /// pre-filter rows on `node`. The channel is per-sender FIFO, so
    /// this always arrives after the morsel's data blocks; the absorber
    /// uses the contiguous-coverage watermark it implies to drain its
    /// reorder buffer early. Purely advisory — correctness never
    /// depends on it (the node's `Done` drain is the safety net).
    MorselDone { node: usize, base: u64, rows: u64 },
    /// Node `node` finished (successfully or not), reporting how long
    /// its extract/filter/partition/move pipeline ran.
    Done { node: usize, result: Result<()>, busy: std::time::Duration },
}

/// Sleep for the simulated transfer duration in short slices, polling
/// the cancel token between them so an abort interrupts the transfer.
fn sleep_cancellable(total: Duration, cancel: &CancelToken) -> Result<()> {
    let mut remaining = total;
    while remaining > Duration::ZERO {
        cancel.check()?;
        let step = remaining.min(SLEEP_SLICE);
        std::thread::sleep(step);
        remaining -= step;
    }
    cancel.check()
}

fn disconnected() -> DvError {
    DvError::Runtime("client disconnected during data transfer".into())
}

/// Offer one message to the transport without blocking, so a full
/// channel is observed (and counted) rather than folded silently into
/// a blocking send. Returns the message when the channel refused it.
fn offer(
    tx: &Sender<MoverMessage>,
    msg: MoverMessage,
    stats: &MoverStats,
) -> Result<Option<MoverMessage>> {
    stats.sends.fetch_add(1, Ordering::Relaxed);
    match tx.try_send(msg) {
        Ok(()) => Ok(None),
        Err(TrySendError::Disconnected(_)) => Err(disconnected()),
        Err(TrySendError::Full(msg)) => {
            stats.blocked_sends.fetch_add(1, Ordering::Relaxed);
            Ok(Some(msg))
        }
    }
}

/// Wait for room for a message the channel refused; `send_wait` times
/// exactly this wait.
fn send_refused(tx: &Sender<MoverMessage>, msg: MoverMessage, stats: &MoverStats) -> Result<()> {
    let wait_start = Instant::now();
    let sent = tx.send(msg);
    stats.send_wait_ns.fetch_add(wait_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    sent.map_err(|_| disconnected())
}

/// Hand one message to the transport: offer it, wait if refused.
fn send_msg(tx: &Sender<MoverMessage>, msg: MoverMessage, stats: &MoverStats) -> Result<()> {
    match offer(tx, msg, stats)? {
        Some(refused) => send_refused(tx, refused, stats),
        None => Ok(()),
    }
}

/// Charge the simulated transfer of `bytes` at the absorbing end: the
/// client's ingest link. A `None` model is a local client — no delay.
pub fn absorb_transfer(
    bandwidth: Option<&BandwidthModel>,
    bytes: usize,
    cancel: &CancelToken,
) -> Result<()> {
    match bandwidth {
        Some(bw) => sleep_cancellable(bw.delay_for(bytes), cancel),
        None => Ok(()),
    }
}

/// Send one block into the bounded transport, tagged with its source
/// block's scanned ordinal. Returns the wire bytes of the payload.
pub fn send_block(
    tx: &Sender<MoverMessage>,
    processor: usize,
    seq: u64,
    block: RowBlock,
    stats: &MoverStats,
) -> Result<usize> {
    let bytes = block.wire_bytes();
    send_msg(tx, MoverMessage::Block { processor, seq, block }, stats)?;
    Ok(bytes)
}

/// Send one columnar block into the bounded transport, tagged with its
/// source block's scanned ordinal. Only *selected* rows count toward
/// the payload — exactly what a serializing mover would put on the
/// wire.
///
/// `rows_for` says what the client does with the block. `Some(cancel)`:
/// it delivers the rows, so a sender that finds the channel full
/// rebuilds them itself before waiting (see the module docs) — unless
/// the query is already cancelled, when there is nobody to rebuild
/// them for. `None`: the absorber folds the block column-wise
/// (aggregation without pushdown), so it always travels columnar.
pub fn send_columns(
    tx: &Sender<MoverMessage>,
    processor: usize,
    seq: u64,
    block: ColumnBlock,
    rows_for: Option<&CancelToken>,
    stats: &MoverStats,
) -> Result<usize> {
    let bytes = block.wire_bytes();
    let node = block.source_node;
    let Some(refused) = offer(tx, MoverMessage::Columns { processor, seq, block }, stats)? else {
        return Ok(bytes);
    };
    // The full-channel rule: ship what the absorber would otherwise
    // have to produce from the block. A cancelled query gets an error
    // instead — no work for a dead query.
    let msg = match (refused, rows_for) {
        (MoverMessage::Columns { block, .. }, Some(cancel)) => {
            cancel.check()?;
            stats.sender_rebuilds.fetch_add(1, Ordering::Relaxed);
            MoverMessage::Rows { processor, node, seq, wire_bytes: bytes, rows: block.to_rows() }
        }
        (refused, _) => refused,
    };
    send_refused(tx, msg, stats)?;
    Ok(bytes)
}

/// Send one partial-aggregate block into the bounded transport.
/// Returns the wire bytes of the payload (seq tags + keys +
/// accumulator states). `rows_in` is the number of pre-aggregation
/// rows the block's accumulators absorbed, kept for the
/// pushdown-reduction counters.
pub fn send_agg(
    tx: &Sender<MoverMessage>,
    processor: usize,
    block: AggBlock,
    rows_in: u64,
    stats: &MoverStats,
) -> Result<usize> {
    let bytes = block.wire_bytes();
    stats.agg_blocks.fetch_add(1, Ordering::Relaxed);
    stats.agg_rows_in.fetch_add(rows_in, Ordering::Relaxed);
    stats.agg_groups_out.fetch_add(block.len() as u64, Ordering::Relaxed);
    send_msg(tx, MoverMessage::Agg { processor, block }, stats)?;
    Ok(bytes)
}

/// Send the advisory end-of-morsel marker. A control frame: it is not
/// charged to the bandwidth model and does not count as a payload send.
pub fn send_morsel_done(
    tx: &Sender<MoverMessage>,
    node: usize,
    base: u64,
    rows: u64,
) -> Result<()> {
    tx.send(MoverMessage::MorselDone { node, base, rows }).map_err(|_| disconnected())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use dv_types::Value;

    #[test]
    fn delay_scales_with_bytes() {
        let bw = BandwidthModel { bytes_per_sec: 1000.0, latency: Duration::ZERO };
        assert_eq!(bw.delay_for(1000), Duration::from_secs(1));
        assert_eq!(bw.delay_for(250), Duration::from_millis(250));
        let with_lat = BandwidthModel { bytes_per_sec: 1000.0, latency: Duration::from_millis(5) };
        assert_eq!(with_lat.delay_for(0), Duration::from_millis(5));
    }

    #[test]
    fn send_block_counts_payload() {
        let (tx, rx) = unbounded();
        let stats = MoverStats::default();
        let mut b = RowBlock::new(0);
        b.rows.push(vec![Value::Int(1), Value::Double(2.0)]);
        let bytes = send_block(&tx, 3, 40, b, &stats).unwrap();
        assert_eq!(bytes, 12);
        match rx.recv().unwrap() {
            MoverMessage::Block { processor, seq, block } => {
                assert_eq!(processor, 3);
                assert_eq!(seq, 40);
                assert_eq!(block.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let snap = stats.snapshot();
        assert_eq!(snap.sends, 1);
        assert_eq!(snap.blocked_sends, 0, "unbounded channel never blocks");
    }

    /// Four `(Int, Double)` rows from node 5, rows 1 and 3 selected.
    fn selected_columns() -> ColumnBlock {
        use dv_types::DataType;
        let mut b = ColumnBlock::with_dtypes(5, &[DataType::Int, DataType::Double]);
        for i in 0..4 {
            b.columns[0].append_data().push_value(Value::Int(i));
            b.columns[1].append_data().push_value(Value::Double(i as f64));
        }
        b.advance_rows(4);
        b.set_selection(Some(vec![1, 3]));
        b
    }

    #[test]
    fn send_columns_counts_selected_payload() {
        let (tx, rx) = unbounded();
        let cancel = CancelToken::new();
        let stats = MoverStats::default();
        let bytes = send_columns(&tx, 2, 8, selected_columns(), Some(&cancel), &stats).unwrap();
        assert_eq!(bytes, 2 * 12);
        match rx.recv().unwrap() {
            MoverMessage::Columns { processor, seq, block } => {
                assert_eq!(processor, 2);
                assert_eq!(seq, 8);
                assert_eq!(block.selected(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(stats.snapshot().sender_rebuilds, 0, "a channel with room ships columns");
    }

    /// Fill a capacity-1 channel, then send `selected_columns()` into
    /// it while a consumer (released by the returned sender having
    /// observed the full channel — `blocked_sends` — not by a sleep)
    /// drains both messages. Returns the second message and the stats.
    fn send_into_full_channel(rows_for: Option<&CancelToken>) -> (MoverMessage, MoverSnapshot) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let stats = MoverStats::default();
        send_block(&tx, 0, 0, RowBlock::new(0), &stats).unwrap();
        let second = std::thread::scope(|scope| {
            let stats = &stats;
            let consumer = scope.spawn(move || {
                while stats.blocked_sends.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                rx.recv().unwrap();
                rx.recv().unwrap()
            });
            let bytes = send_columns(&tx, 1, 8, selected_columns(), rows_for, stats).unwrap();
            assert_eq!(bytes, 2 * 12);
            consumer.join().unwrap()
        });
        (second, stats.snapshot())
    }

    #[test]
    fn full_channel_makes_the_sender_rebuild_rows() {
        let cancel = CancelToken::new();
        let (msg, snap) = send_into_full_channel(Some(&cancel));
        match msg {
            MoverMessage::Rows { processor, node, seq, wire_bytes, rows } => {
                assert_eq!((processor, node, seq, wire_bytes), (1, 5, 8, 2 * 12));
                let want: Rows = [
                    vec![Value::Int(1), Value::Double(1.0)],
                    vec![Value::Int(3), Value::Double(3.0)],
                ]
                .into_iter()
                .collect();
                assert_eq!(rows, want);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!((snap.sends, snap.blocked_sends, snap.sender_rebuilds), (2, 1, 1));
    }

    #[test]
    fn full_channel_keeps_aggregate_blocks_columnar() {
        let (msg, snap) = send_into_full_channel(None);
        assert!(matches!(msg, MoverMessage::Columns { .. }), "unexpected {msg:?}");
        assert_eq!((snap.sends, snap.blocked_sends, snap.sender_rebuilds), (2, 1, 0));
    }

    #[test]
    fn client_vanishing_under_a_blocked_sender_errors() {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let stats = MoverStats::default();
        send_block(&tx, 0, 0, RowBlock::new(0), &stats).unwrap();
        let cancel = CancelToken::new();
        let err = std::thread::scope(|scope| {
            let stats = &stats;
            scope.spawn(move || {
                while stats.blocked_sends.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                drop(rx);
            });
            send_columns(&tx, 0, 1, selected_columns(), Some(&cancel), stats).unwrap_err()
        });
        assert!(err.to_string().contains("client disconnected"), "{err}");
    }

    #[test]
    fn cancelled_sender_rebuilds_nothing_on_a_full_channel() {
        let (tx, _rx) = crossbeam::channel::bounded(1);
        let stats = MoverStats::default();
        send_block(&tx, 0, 0, RowBlock::new(0), &stats).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        // Nobody drains: a sender that waited would hang here.
        let err = send_columns(&tx, 0, 1, selected_columns(), Some(&cancel), &stats).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        let snap = stats.snapshot();
        assert_eq!((snap.blocked_sends, snap.sender_rebuilds), (1, 0));
    }

    #[test]
    fn send_to_disconnected_client_errors() {
        let (tx, rx) = unbounded();
        drop(rx);
        let b = RowBlock::new(0);
        assert!(send_block(&tx, 0, 0, b, &MoverStats::default()).is_err());
    }

    #[test]
    fn bandwidth_model_actually_delays() {
        // 8000 bytes at 80 kB/s = 100 ms.
        let bw = BandwidthModel { bytes_per_sec: 80_000.0, latency: Duration::ZERO };
        let start = std::time::Instant::now();
        absorb_transfer(Some(&bw), 8000, &CancelToken::new()).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(90));
        // A local client pays nothing.
        let start = std::time::Instant::now();
        absorb_transfer(None, usize::MAX, &CancelToken::new()).unwrap();
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn cancel_interrupts_simulated_transfer() {
        // 8000 bytes at 8 kB/s = 1 s, but the deadline trips in 30 ms.
        let bw = BandwidthModel { bytes_per_sec: 8_000.0, latency: Duration::ZERO };
        let cancel = CancelToken::with_timeout(Duration::from_millis(30));
        let start = std::time::Instant::now();
        let err = absorb_transfer(Some(&bw), 8000, &cancel).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert!(start.elapsed() < Duration::from_millis(500), "abort must cut the sleep short");
    }

    #[test]
    fn full_bounded_channel_counts_blocked_send() {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let stats = MoverStats::default();
        let mk = || {
            let mut b = RowBlock::new(0);
            b.rows.push(vec![Value::Int(1)]);
            b
        };
        send_block(&tx, 0, 0, mk(), &stats).unwrap();
        // The channel is full: the next send must block until the
        // consumer drains one message.
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let first = rx.recv();
            let second = rx.recv();
            (first.is_ok(), second.is_ok())
        });
        send_block(&tx, 0, 1, mk(), &stats).unwrap();
        let (first, second) = consumer.join().unwrap();
        assert!(first && second);
        let snap = stats.snapshot();
        assert_eq!(snap.sends, 2);
        assert_eq!(snap.blocked_sends, 1);
        assert!(snap.send_wait > Duration::ZERO);
    }
}
