// The ingest write-ahead log: the durability layer in front of
// POST /ingest. The paper's program promises a salesperson that no
// business event is lost; before this log, a crash between the 202
// response and process() silently dropped accepted documents. Now a
// document is appended — length+CRC framed, fsync-batched via group
// commit, segment-rotated — before the 202 goes out, partition
// consumers advance a committed offset only after processing
// completes, and a restart replays the uncommitted tail. Fingerprint
// dedup (seeded from the checkpointed lead store) makes that replay
// idempotent, so the log only has to guarantee at-least-once.
//
// The on-disk format (frames, segments, the commit sidecar, and the
// crash-recovery matrix) is specified normatively in STORAGE.md §9.
package alert

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"etap/internal/obs"
)

// WALRecord is one logged document: the ingest payload plus the accept
// timestamp (UnixNano) that anchors the delivery-lag SLO across a
// restart — a replayed alert's lag is measured from the original
// accept, not the replay.
type WALRecord struct {
	URL   string `json:"url"`
	Title string `json:"title,omitempty"`
	Text  string `json:"text"`
	At    int64  `json:"at"`
}

// WALConfig tunes the log. The zero value of each field selects the
// documented default.
type WALConfig struct {
	// Dir is the log directory; it is created if missing. Required.
	Dir string
	// FsyncBatch caps how many appends one fsync may acknowledge:
	// 1 fsyncs every append individually (strictest, slowest), larger
	// values let concurrent appenders share a group-commit fsync, each
	// round acknowledging at most FsyncBatch records. 0 means 64.
	FsyncBatch int
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes; 0 means 8 MiB.
	SegmentBytes int64
	// CommitEvery flushes the committed-offset sidecar every N offset
	// commits (and on Close); 0 means 256. A stale sidecar only costs
	// replay work — never correctness — because replay is idempotent.
	CommitEvery int
	// Registry receives the etap_alert_wal_* series; nil means
	// obs.Default.
	Registry *obs.Registry
	// Log receives recovery and GC reports; nil means slog.Default.
	Log *slog.Logger
}

func (c WALConfig) withDefaults() WALConfig {
	if c.FsyncBatch <= 0 {
		c.FsyncBatch = 64
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 256
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// ErrWALClosed reports an append or sync after Close.
var ErrWALClosed = errors.New("alert: wal closed")

// ErrWALCorrupt reports a frame that fails its checksum somewhere other
// than the tail of the final segment — damage recovery cannot explain
// as a torn write, so the operator must intervene (STORAGE.md §9.5).
var ErrWALCorrupt = errors.New("alert: wal segment corrupt")

const (
	walSegmentPrefix = "wal-"
	walSegmentSuffix = ".log"
	walCommitName    = "wal-commit.json"
	// walHeaderLen is the fixed frame header: sequence (8) + payload
	// length (4) + CRC-32C over header-minus-CRC plus payload (4).
	walHeaderLen = 16
	// walMaxPayload bounds a frame's payload; anything larger is
	// corruption, not data (ingest bodies are capped far below this).
	walMaxPayload = 8 << 20
)

// walCRCTable is the Castagnoli polynomial every frame checksum uses.
var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// walMetrics is the etap_alert_wal_* series for one log.
type walMetrics struct {
	appends    *obs.Counter
	fsyncs     *obs.Counter
	batch      *obs.Histogram
	bytes      *obs.Counter
	segments   *obs.Gauge
	replayed   *obs.Counter
	torn       *obs.Counter
	commits    *obs.Counter
	lost       *obs.Counter
	removed    *obs.Counter
	floorGauge *obs.Gauge
}

func newWALMetrics(reg *obs.Registry) *walMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return &walMetrics{
		appends: reg.Counter("etap_alert_wal_appends_total",
			"Documents appended to the ingest write-ahead log."),
		fsyncs: reg.Counter("etap_alert_wal_fsyncs_total",
			"fsync calls issued by the write-ahead log."),
		batch: reg.Histogram("etap_alert_wal_fsync_batch",
			"Appends acknowledged per fsync (group-commit batch size).", nil),
		bytes: reg.Counter("etap_alert_wal_bytes_total",
			"Bytes appended to the write-ahead log, frames included."),
		segments: reg.Gauge("etap_alert_wal_segments",
			"Write-ahead-log segment files on disk."),
		replayed: reg.Counter("etap_alert_wal_replayed_records_total",
			"Records re-read from the log by startup replay."),
		torn: reg.Counter("etap_alert_wal_torn_frames_total",
			"Torn tail frames truncated during recovery."),
		commits: reg.Counter("etap_alert_wal_commit_flushes_total",
			"Committed-offset sidecar flushes."),
		lost: reg.Counter("etap_alert_wal_commit_unreadable_total",
			"Committed-offset sidecars that could not be decoded at open and were treated as missing."),
		removed: reg.Counter("etap_alert_wal_segments_removed_total",
			"Fully-committed segments deleted by log GC."),
		floorGauge: reg.Gauge("etap_alert_wal_committed_floor",
			"Lowest committed offset across partitions (the replay floor)."),
	}
}

// WAL is the ingest write-ahead log. Append buffers a record and
// assigns its sequence number; Sync makes it durable (group commit);
// Commit advances a partition's processed watermark; Replay re-reads
// everything at or above the recovery floor. Safe for concurrent use.
type WAL struct {
	cfg WALConfig
	met *walMetrics

	// mu serializes buffer writes, sequence assignment, and rotation.
	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	oldFiles []*os.File // rotated out, not yet fsynced+closed
	segBytes int64
	nextSeq  uint64
	written  uint64 // highest seq written to the buffer
	segments []uint64
	closed   bool

	// syncMu guards the group-commit state: one leader flushes and
	// fsyncs while followers wait on cond for the watermark to cover
	// their sequence.
	syncMu  sync.Mutex
	cond    *sync.Cond
	synced  uint64
	syncing bool

	// cmu guards the committed-offset map and its flush cadence.
	cmu        sync.Mutex
	offsets    map[int]uint64
	partitions int
	sinceFlush int
	replayed   bool
}

// walCommitState is the JSON schema of the committed-offset sidecar.
type walCommitState struct {
	// Partitions records the consumer count the offsets are keyed by;
	// a restart with a different count must fall back to the floor.
	Partitions int `json:"partitions"`
	// Offsets maps partition index → highest sequence whose processing
	// completed (all lower sequences routed to that partition included).
	Offsets map[string]uint64 `json:"offsets"`
}

// OpenWAL opens (or creates) the log in cfg.Dir, validates every
// retained segment, truncates a torn tail frame in the final one, and
// starts a fresh segment for this process's appends.
func OpenWAL(cfg WALConfig) (*WAL, error) {
	if cfg.Dir == "" {
		return nil, errors.New("alert: wal requires a directory")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("alert: wal dir: %w", err)
	}
	w := &WAL{
		cfg:     cfg,
		met:     newWALMetrics(cfg.Registry),
		offsets: make(map[int]uint64),
	}
	w.cond = sync.NewCond(&w.syncMu)

	bases, err := walSegmentBases(cfg.Dir)
	if err != nil {
		return nil, err
	}
	last := uint64(0)
	for i, base := range bases {
		final := i == len(bases)-1
		end, torn, err := w.validateSegment(walSegmentPath(cfg.Dir, base), base, final)
		if err != nil {
			return nil, err
		}
		if torn > 0 {
			w.met.torn.Add(uint64(torn))
			cfg.Log.Warn("alert: wal torn tail truncated",
				"segment", walSegmentName(base), "frames", torn, "last_good_seq", end)
		}
		if end > last {
			last = end
		}
	}
	w.nextSeq = last + 1
	w.written = last
	w.synced = last // everything already on disk is durable
	w.segments = bases

	if err := w.loadCommits(); err != nil {
		return nil, err
	}
	if err := w.openSegment(w.nextSeq); err != nil {
		return nil, err
	}
	w.met.segments.Set(int64(len(w.segments)))
	return w, nil
}

// walSegmentName renders the segment file name for a base sequence.
func walSegmentName(base uint64) string {
	return fmt.Sprintf("%s%016x%s", walSegmentPrefix, base, walSegmentSuffix)
}

func walSegmentPath(dir string, base uint64) string {
	return filepath.Join(dir, walSegmentName(base))
}

// walSegmentBases lists the base sequences of every segment in dir,
// ascending. Unparseable names are ignored (operator files are not
// ours to touch).
func walSegmentBases(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("alert: wal scan: %w", err)
	}
	var bases []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, walSegmentPrefix) || !strings.HasSuffix(name, walSegmentSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, walSegmentPrefix), walSegmentSuffix)
		base, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// validateSegment scans one segment, verifying every frame checksum.
// It returns the last valid sequence seen (0 if the segment is empty)
// and, for the final segment, truncates a torn tail in place and
// reports how many frames it cut. A checksum failure anywhere else is
// ErrWALCorrupt: sequential appends can only tear the very end.
func (w *WAL) validateSegment(path string, base uint64, final bool) (lastSeq uint64, torn int, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("alert: wal open %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var off int64
	r := bufio.NewReader(f)
	want := base
	for {
		seq, payload, n, ferr := readWALFrame(r)
		if ferr == io.EOF {
			return lastSeq, 0, nil
		}
		if ferr != nil {
			if !final {
				return 0, 0, fmt.Errorf("%w: %s at offset %d: %v", ErrWALCorrupt, path, off, ferr)
			}
			// Torn tail: everything before off is intact; cut the rest.
			if terr := f.Truncate(off); terr != nil {
				return 0, 0, fmt.Errorf("alert: wal truncate %s: %w", path, terr)
			}
			if serr := f.Sync(); serr != nil {
				return 0, 0, fmt.Errorf("alert: wal sync after truncate %s: %w", path, serr)
			}
			return lastSeq, 1, nil
		}
		if seq != want {
			return 0, 0, fmt.Errorf("%w: %s holds seq %d where %d was expected", ErrWALCorrupt, path, seq, want)
		}
		_ = payload
		lastSeq = seq
		want = seq + 1
		off += int64(n)
	}
}

// readWALFrame decodes one frame from r: (seq, payload, frame length).
// io.EOF at a frame boundary is a clean end; any other failure —
// short header, short payload, oversized length, checksum mismatch —
// is returned as an error for the caller to classify.
func readWALFrame(r *bufio.Reader) (uint64, []byte, int, error) {
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("short header: %w", err)
	}
	seq := binary.BigEndian.Uint64(hdr[0:8])
	size := binary.BigEndian.Uint32(hdr[8:12])
	sum := binary.BigEndian.Uint32(hdr[12:16])
	if size > walMaxPayload {
		return 0, nil, 0, fmt.Errorf("frame length %d exceeds cap", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("short payload: %w", err)
	}
	crc := crc32.Update(0, walCRCTable, hdr[0:12])
	crc = crc32.Update(crc, walCRCTable, payload)
	if crc != sum {
		return 0, nil, 0, errors.New("checksum mismatch")
	}
	return seq, payload, walHeaderLen + int(size), nil
}

// openSegment starts a fresh segment whose first record will be base.
// Called at open and at rotation, under mu (or before the WAL is
// shared).
func (w *WAL) openSegment(base uint64) error {
	path := walSegmentPath(w.cfg.Dir, base)
	// O_TRUNC is safe: a same-base collision means the prior segment
	// with this base held zero valid records.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("alert: wal segment create: %w", err)
	}
	if len(w.segments) == 0 || w.segments[len(w.segments)-1] != base {
		w.segments = append(w.segments, base)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64<<10)
	w.segBytes = 0
	w.met.segments.Set(int64(len(w.segments)))
	return nil
}

// Append buffers one record, assigns its sequence number, and rotates
// the segment when full. The record is NOT durable until a Sync call
// covering the returned sequence succeeds — callers answering clients
// must Sync before acknowledging.
func (w *WAL) Append(rec WALRecord) (uint64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("alert: wal encode: %w", err)
	}
	var hdr [walHeaderLen]byte
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrWALClosed
	}
	seq := w.nextSeq
	w.nextSeq++
	if w.segBytes >= w.cfg.SegmentBytes {
		if err := w.rotateLocked(seq); err != nil {
			w.nextSeq--
			w.mu.Unlock()
			return 0, err
		}
	}
	binary.BigEndian.PutUint64(hdr[0:8], seq)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	crc := crc32.Update(0, walCRCTable, hdr[0:12])
	crc = crc32.Update(crc, walCRCTable, payload)
	binary.BigEndian.PutUint32(hdr[12:16], crc)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("alert: wal write: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("alert: wal write: %w", err)
	}
	frame := int64(walHeaderLen + len(payload))
	w.segBytes += frame
	w.written = seq
	w.mu.Unlock()
	w.met.appends.Inc()
	w.met.bytes.Add(uint64(frame))
	return seq, nil
}

// rotateLocked seals the active segment (flushing its buffer, deferring
// fsync+close to the next sync round) and opens the next one. Caller
// holds mu; firstSeq is the sequence about to be written.
func (w *WAL) rotateLocked(firstSeq uint64) error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("alert: wal flush at rotation: %w", err)
	}
	w.oldFiles = append(w.oldFiles, w.f)
	return w.openSegment(firstSeq)
}

// Sync blocks until every record up to and including seq is durable.
// Concurrent callers share fsyncs: one leader flushes and syncs while
// the rest wait, each fsync acknowledging at most FsyncBatch records.
func (w *WAL) Sync(seq uint64) error {
	w.syncMu.Lock()
	for {
		if w.synced >= seq {
			w.syncMu.Unlock()
			return nil
		}
		if !w.syncing {
			w.syncing = true
			w.syncMu.Unlock()
			target, err := w.flushAndSync()
			w.syncMu.Lock()
			w.syncing = false
			if err != nil {
				w.cond.Broadcast()
				w.syncMu.Unlock()
				return err
			}
			if target > w.synced {
				w.met.batch.Observe(float64(target - w.synced))
				w.synced = target
			}
			w.cond.Broadcast()
			continue // re-check: the cap may leave seq for the next round
		}
		w.cond.Wait()
	}
}

// flushAndSync is one group-commit round: flush the append buffer,
// fsync rotated-out segments (closing them) and the active one, and
// return the highest durable sequence — capped at FsyncBatch records
// past the current watermark so one round's acknowledgement matches
// the configured batch size.
func (w *WAL) flushAndSync() (uint64, error) {
	w.mu.Lock()
	if w.closed && w.f == nil {
		w.mu.Unlock()
		return 0, ErrWALClosed
	}
	target := w.written
	err := w.bw.Flush()
	olds := w.oldFiles
	w.oldFiles = nil
	cur := w.f
	w.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("alert: wal flush: %w", err)
	}
	for _, of := range olds {
		if serr := of.Sync(); serr != nil {
			return 0, fmt.Errorf("alert: wal fsync sealed segment: %w", serr)
		}
		if cerr := of.Close(); cerr != nil {
			return 0, fmt.Errorf("alert: wal close sealed segment: %w", cerr)
		}
		w.met.fsyncs.Inc()
	}
	if serr := cur.Sync(); serr != nil {
		return 0, fmt.Errorf("alert: wal fsync: %w", serr)
	}
	w.met.fsyncs.Inc()
	w.syncMu.Lock()
	if cap := w.synced + uint64(w.cfg.FsyncBatch); target > cap {
		target = cap
	}
	w.syncMu.Unlock()
	return target, nil
}

// SetPartitions declares the consumer count offsets are keyed by. If
// it differs from the count the sidecar recorded, per-partition
// offsets are collapsed to their floor (replay re-reads more, dedup
// absorbs it) and the map is re-keyed.
func (w *WAL) SetPartitions(n int) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	if w.partitions == n {
		return
	}
	if len(w.offsets) > 0 {
		floor := walFloor(w.offsets, w.partitions)
		w.offsets = make(map[int]uint64, n)
		for p := 0; p < n; p++ {
			w.offsets[p] = floor
		}
	}
	w.partitions = n
}

// walFloor is the lowest committed offset across parts partitions; a
// partition with no recorded offset floors it at 0.
func walFloor(offsets map[int]uint64, parts int) uint64 {
	if parts <= 0 {
		return 0
	}
	floor := ^uint64(0)
	for p := 0; p < parts; p++ {
		off, ok := offsets[p]
		if !ok {
			return 0
		}
		if off < floor {
			floor = off
		}
	}
	if floor == ^uint64(0) {
		return 0
	}
	return floor
}

// CommittedOffset returns the highest sequence partition p has fully
// processed (0 before its first commit).
func (w *WAL) CommittedOffset(p int) uint64 {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.offsets[p]
}

// Commit records that partition p has fully processed seq (and, since
// each partition consumes in order, every lower sequence routed to
// it). Every CommitEvery commits the sidecar is flushed and fully
// committed segments are garbage-collected.
func (w *WAL) Commit(p int, seq uint64) {
	w.cmu.Lock()
	if seq > w.offsets[p] {
		w.offsets[p] = seq
	}
	w.sinceFlush++
	flush := w.sinceFlush >= w.cfg.CommitEvery
	if flush {
		w.sinceFlush = 0
	}
	w.cmu.Unlock()
	if flush {
		if err := w.FlushCommits(); err != nil {
			w.cfg.Log.Warn("alert: wal commit flush", "err", err)
		}
	}
}

// FlushCommits writes the committed-offset sidecar (atomic write +
// rename, the repo's checkpoint discipline) and garbage-collects
// segments every partition has moved past.
func (w *WAL) FlushCommits() error {
	w.cmu.Lock()
	data, err := encodeCommitState(w.partitions, w.offsets)
	floor := walFloor(w.offsets, w.partitions)
	w.cmu.Unlock()
	if err != nil {
		return fmt.Errorf("alert: wal commit encode: %w", err)
	}
	path := filepath.Join(w.cfg.Dir, walCommitName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("alert: wal commit write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("alert: wal commit rename: %w", err)
	}
	w.met.commits.Inc()
	w.met.floorGauge.Set(int64(floor))
	w.gc(floor)
	return nil
}

// loadCommits reads the sidecar; a missing file is a fresh log. A
// sidecar that does not decode (empty or truncated by a crash, or
// damaged) is derived state and is treated as missing, with a warning
// and a count on etap_alert_wal_commit_unreadable_total: everything
// retained replays and fingerprint dedup absorbs the repeats.
func (w *WAL) loadCommits() error {
	data, err := os.ReadFile(filepath.Join(w.cfg.Dir, walCommitName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("alert: wal commit read: %w", err)
	}
	partitions, offsets, err := decodeCommitState(data)
	if err != nil {
		w.met.lost.Inc()
		w.cfg.Log.Warn("alert: wal commit sidecar unreadable, replaying everything retained",
			"file", walCommitName, "bytes", len(data), "err", err)
		return nil
	}
	w.partitions, w.offsets = partitions, offsets
	return nil
}

// encodeCommitState renders the sidecar's JSON for partitions and
// offsets (keyed by partition index).
func encodeCommitState(partitions int, offsets map[int]uint64) ([]byte, error) {
	state := walCommitState{Partitions: partitions, Offsets: make(map[string]uint64, len(offsets))}
	for p, off := range offsets {
		state.Offsets[strconv.Itoa(p)] = off
	}
	return json.Marshal(state)
}

// decodeCommitState parses a sidecar. It fails unless data is a state
// encodeCommitState could have written: well-formed JSON with a
// partition count of at least 0 and every offset keyed by the decimal
// form of a partition in [0, partitions).
func decodeCommitState(data []byte) (partitions int, offsets map[int]uint64, err error) {
	var state walCommitState
	if err := json.Unmarshal(data, &state); err != nil {
		return 0, nil, err
	}
	if state.Partitions < 0 {
		return 0, nil, fmt.Errorf("partition count %d", state.Partitions)
	}
	keys := make([]string, 0, len(state.Offsets))
	for key := range state.Offsets {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	offsets = make(map[int]uint64, len(keys))
	for _, key := range keys {
		p, err := strconv.Atoi(key)
		if err != nil || p < 0 || p >= state.Partitions || strconv.Itoa(p) != key {
			return 0, nil, fmt.Errorf("partition key %q with %d partitions", key, state.Partitions)
		}
		offsets[p] = state.Offsets[key]
	}
	return state.Partitions, offsets, nil
}

// gc deletes segments whose every record is at or below floor — proven
// by the NEXT segment's base — keeping the active segment regardless.
func (w *WAL) gc(floor uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segments) > 1 && w.segments[1] <= floor+1 {
		base := w.segments[0]
		if err := os.Remove(walSegmentPath(w.cfg.Dir, base)); err != nil {
			w.cfg.Log.Warn("alert: wal gc", "segment", walSegmentName(base), "err", err)
			break
		}
		w.segments = w.segments[1:]
		removed++
	}
	if removed > 0 {
		w.met.removed.Add(uint64(removed))
		w.met.segments.Set(int64(len(w.segments)))
	}
}

// Replay streams every retained record at or above the recovery floor
// to fn, in sequence order, reading straight off disk. Call it before
// the first Append of this process (the manager replays before opening
// ingest); fn deciding per-record whether to skip (already committed)
// or reprocess is the caller's business. A non-nil fn error aborts the
// replay and is returned.
func (w *WAL) Replay(fn func(seq uint64, rec WALRecord) error) error {
	w.cmu.Lock()
	w.replayed = true
	floor := walFloor(w.offsets, w.partitions)
	w.cmu.Unlock()
	w.mu.Lock()
	bases := append([]uint64(nil), w.segments...)
	active := w.f.Name()
	w.mu.Unlock()
	for _, base := range bases {
		path := walSegmentPath(w.cfg.Dir, base)
		if path == active {
			// The fresh segment this process appends to: nothing of a
			// prior life lives there.
			continue
		}
		if err := w.replaySegment(path, floor, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment feeds one segment's records past floor to fn.
func (w *WAL) replaySegment(path string, floor uint64, fn func(uint64, WALRecord) error) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("alert: wal replay open %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	r := bufio.NewReader(f)
	for {
		seq, payload, _, ferr := readWALFrame(r)
		if ferr == io.EOF {
			return nil
		}
		if ferr != nil {
			// Open already truncated torn tails and verified checksums;
			// fresh damage between then and now is corruption.
			return fmt.Errorf("%w: %s during replay: %v", ErrWALCorrupt, path, ferr)
		}
		if seq <= floor {
			continue
		}
		var rec WALRecord
		if uerr := json.Unmarshal(payload, &rec); uerr != nil {
			return fmt.Errorf("%w: %s seq %d payload: %v", ErrWALCorrupt, path, seq, uerr)
		}
		w.met.replayed.Inc()
		if ferr := fn(seq, rec); ferr != nil {
			return ferr
		}
	}
}

// WALStats is a point-in-time snapshot for tests and health reporting.
type WALStats struct {
	// Segments is the retained segment-file count (including the
	// active one).
	Segments int
	// NextSeq is the sequence the next append will take.
	NextSeq uint64
	// Synced is the highest durable sequence.
	Synced uint64
	// CommittedFloor is the lowest committed offset across partitions.
	CommittedFloor uint64
}

// Stats snapshots the log's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	segs := len(w.segments)
	next := w.nextSeq
	w.mu.Unlock()
	w.syncMu.Lock()
	synced := w.synced
	w.syncMu.Unlock()
	w.cmu.Lock()
	floor := walFloor(w.offsets, w.partitions)
	w.cmu.Unlock()
	return WALStats{Segments: segs, NextSeq: next, Synced: synced, CommittedFloor: floor}
}

// Close makes every buffered record durable, flushes the committed
// offsets, and closes the segment files. Append and Sync fail with
// ErrWALClosed afterwards. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	written := w.written
	w.mu.Unlock()
	var firstErr error
	if written > 0 {
		if err := w.Sync(written); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Wait out any in-flight group-commit round before closing files.
	w.syncMu.Lock()
	for w.syncing {
		w.cond.Wait()
	}
	w.syncMu.Unlock()
	w.mu.Lock()
	for _, of := range w.oldFiles {
		if err := of.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := of.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	w.oldFiles = nil
	if w.f != nil {
		if err := w.bw.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := w.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := w.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		w.f = nil
	}
	w.mu.Unlock()
	if err := w.FlushCommits(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
