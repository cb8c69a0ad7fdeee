package alert

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"etap/internal/obs"
)

// quietTestLog discards log output so recovery warnings exercised on
// purpose don't spam the test run.
func quietTestLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// snapCounter reads a counter out of a registry JSON snapshot.
func snapCounter(t *testing.T, snap map[string]any, name string) int {
	t.Helper()
	v, ok := snap[name]
	if !ok {
		t.Fatalf("metric %s missing from snapshot", name)
	}
	f, ok := v.(uint64)
	if !ok {
		t.Fatalf("metric %s has type %T", name, v)
	}
	return int(f)
}

func testWAL(t *testing.T, cfg WALConfig) *WAL {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = quietTestLog()
	}
	w, err := OpenWAL(cfg)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

func walAppendSync(t *testing.T, w *WAL, rec WALRecord) uint64 {
	t.Helper()
	seq, err := w.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatalf("Sync(%d): %v", seq, err)
	}
	return seq
}

func collectReplay(t *testing.T, w *WAL) map[uint64]WALRecord {
	t.Helper()
	got := make(map[uint64]WALRecord)
	if err := w.Replay(func(seq uint64, rec WALRecord) error {
		if _, dup := got[seq]; dup {
			t.Fatalf("replay yielded seq %d twice", seq)
		}
		got[seq] = rec
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir})
	want := make(map[uint64]WALRecord)
	for i := 0; i < 25; i++ {
		rec := WALRecord{
			URL:   fmt.Sprintf("https://example.com/doc-%d", i),
			Title: fmt.Sprintf("Doc %d", i),
			Text:  fmt.Sprintf("Body of document %d announcing a merger.", i),
			At:    int64(1_700_000_000_000_000_000 + i),
		}
		want[walAppendSync(t, w, rec)] = rec
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reopened := testWAL(t, WALConfig{Dir: dir})
	defer reopened.Close()
	got := collectReplay(t, reopened)
	if len(got) != len(want) {
		t.Fatalf("replay returned %d records, want %d", len(got), len(want))
	}
	for seq, rec := range want {
		if got[seq] != rec {
			t.Errorf("seq %d: got %+v want %+v", seq, got[seq], rec)
		}
	}
	if st := reopened.Stats(); st.NextSeq != uint64(len(want))+1 {
		t.Errorf("NextSeq after reopen = %d, want %d", st.NextSeq, len(want)+1)
	}
}

func TestWALSequencesAreContiguousFromOne(t *testing.T) {
	w := testWAL(t, WALConfig{})
	defer w.Close()
	for i := 1; i <= 5; i++ {
		seq, err := w.Append(WALRecord{URL: "u", Text: "t", At: int64(i)})
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
}

func TestWALTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir})
	for i := 0; i < 5; i++ {
		walAppendSync(t, w, WALRecord{URL: fmt.Sprintf("u%d", i), Text: "t", At: int64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the tail: chop the last 7 bytes of the newest non-empty
	// segment, simulating a crash mid-write.
	seg := newestSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	reopened := testWAL(t, WALConfig{Dir: dir, Registry: reg})
	defer reopened.Close()
	got := collectReplay(t, reopened)
	if len(got) != 4 {
		t.Fatalf("replay after torn tail returned %d records, want 4", len(got))
	}
	if _, lost := got[5]; lost {
		t.Error("torn record 5 should not replay")
	}
	if st := reopened.Stats(); st.NextSeq != 5 {
		t.Errorf("NextSeq after truncation = %d, want 5 (torn seq reused)", st.NextSeq)
	}
}

func TestWALTornHeaderTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir})
	walAppendSync(t, w, WALRecord{URL: "u", Text: "t", At: 1})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := newestSegment(t, dir)
	// Append half a header: a torn frame with no payload at all.
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := testWAL(t, WALConfig{Dir: dir})
	defer reopened.Close()
	if got := collectReplay(t, reopened); len(got) != 1 {
		t.Fatalf("replay returned %d records, want 1", len(got))
	}
}

func TestWALCorruptMiddleSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir, SegmentBytes: 1}) // rotate every append
	for i := 0; i < 3; i++ {
		walAppendSync(t, w, WALRecord{URL: fmt.Sprintf("u%d", i), Text: "t", At: int64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a payload byte in the FIRST segment — not the final one, so
	// recovery must refuse rather than truncate.
	bases, err := walSegmentBases(dir)
	if err != nil || len(bases) < 2 {
		t.Fatalf("want >=2 segments, got %d (err %v)", len(bases), err)
	}
	seg := walSegmentPath(dir, bases[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= walHeaderLen {
		t.Fatalf("first segment unexpectedly empty")
	}
	data[walHeaderLen] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(WALConfig{Dir: dir, Registry: obs.NewRegistry(), Log: quietTestLog()}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("OpenWAL on corrupt middle segment: err = %v, want ErrWALCorrupt", err)
	}
}

func TestWALChecksumCatchesBitFlip(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir})
	walAppendSync(t, w, WALRecord{URL: "u1", Text: "first", At: 1})
	walAppendSync(t, w, WALRecord{URL: "u2", Text: "second", At: 2})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip one bit inside the LAST frame's payload: recovery treats a
	// checksum-failed final frame as torn and truncates it.
	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened := testWAL(t, WALConfig{Dir: dir})
	defer reopened.Close()
	got := collectReplay(t, reopened)
	if len(got) != 1 || got[1].Text != "first" {
		t.Fatalf("replay after bit flip = %v, want only record 1", got)
	}
}

func TestWALRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir, SegmentBytes: 1, CommitEvery: 1})
	w.SetPartitions(1)
	const n = 6
	for i := 0; i < n; i++ {
		walAppendSync(t, w, WALRecord{URL: fmt.Sprintf("u%d", i), Text: "t", At: int64(i)})
	}
	if st := w.Stats(); st.Segments < n {
		t.Fatalf("SegmentBytes=1 should rotate every append: %d segments for %d records", st.Segments, n)
	}
	// Commit everything: GC must collapse to just the active segment.
	w.Commit(0, n)
	if err := w.FlushCommits(); err != nil {
		t.Fatalf("FlushCommits: %v", err)
	}
	if st := w.Stats(); st.Segments != 1 {
		t.Errorf("after full commit, %d segments remain, want 1", st.Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Nothing above the floor: replay must be empty.
	reopened := testWAL(t, WALConfig{Dir: dir})
	defer reopened.Close()
	if got := collectReplay(t, reopened); len(got) != 0 {
		t.Errorf("replay after full commit returned %d records, want 0", len(got))
	}
}

func TestWALGCKeepsUncommittedSegments(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir, SegmentBytes: 1})
	defer w.Close()
	w.SetPartitions(2)
	for i := 0; i < 4; i++ {
		walAppendSync(t, w, WALRecord{URL: fmt.Sprintf("u%d", i), Text: "t", At: int64(i)})
	}
	// Partition 1 never commits → floor stays 0 → nothing may be GC'd.
	w.Commit(0, 4)
	if err := w.FlushCommits(); err != nil {
		t.Fatalf("FlushCommits: %v", err)
	}
	if st := w.Stats(); st.Segments < 4 {
		t.Errorf("GC removed segments below the floor: %d left", st.Segments)
	}
	if st := w.Stats(); st.CommittedFloor != 0 {
		t.Errorf("floor = %d, want 0 while partition 1 is uncommitted", st.CommittedFloor)
	}
}

func TestWALCommitOffsetsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir})
	w.SetPartitions(2)
	for i := 0; i < 8; i++ {
		walAppendSync(t, w, WALRecord{URL: fmt.Sprintf("u%d", i), Text: "t", At: int64(i)})
	}
	w.Commit(0, 7)
	w.Commit(1, 4)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened := testWAL(t, WALConfig{Dir: dir})
	defer reopened.Close()
	reopened.SetPartitions(2)
	if got := reopened.CommittedOffset(0); got != 7 {
		t.Errorf("partition 0 offset = %d, want 7", got)
	}
	if got := reopened.CommittedOffset(1); got != 4 {
		t.Errorf("partition 1 offset = %d, want 4", got)
	}
	// Replay floor is min(7,4)=4: records 5..8 must replay.
	got := collectReplay(t, reopened)
	for seq := uint64(5); seq <= 8; seq++ {
		if _, ok := got[seq]; !ok {
			t.Errorf("seq %d above floor missing from replay", seq)
		}
	}
	if _, ok := got[4]; ok {
		t.Error("seq 4 at the floor must not replay")
	}
}

func TestWALPartitionCountChangeFloorsOffsets(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir})
	w.SetPartitions(2)
	for i := 0; i < 6; i++ {
		walAppendSync(t, w, WALRecord{URL: fmt.Sprintf("u%d", i), Text: "t", At: int64(i)})
	}
	w.Commit(0, 6)
	w.Commit(1, 3)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened := testWAL(t, WALConfig{Dir: dir})
	defer reopened.Close()
	reopened.SetPartitions(3) // count changed: offsets collapse to floor 3
	got := collectReplay(t, reopened)
	for seq := uint64(4); seq <= 6; seq++ {
		if _, ok := got[seq]; !ok {
			t.Errorf("seq %d above collapsed floor missing from replay", seq)
		}
	}
	if _, ok := got[3]; ok {
		t.Error("seq 3 at the collapsed floor must not replay")
	}
}

func TestWALCommitStateMissingReplaysEverything(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir})
	w.SetPartitions(1)
	for i := 0; i < 3; i++ {
		walAppendSync(t, w, WALRecord{URL: fmt.Sprintf("u%d", i), Text: "t", At: int64(i)})
	}
	w.Commit(0, 3)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Crash before the sidecar flush: simulate by deleting it. Replay
	// must over-deliver (all 3 records) — dedup absorbs it downstream.
	if err := os.Remove(filepath.Join(dir, walCommitName)); err != nil {
		t.Fatal(err)
	}
	reopened := testWAL(t, WALConfig{Dir: dir})
	defer reopened.Close()
	if got := collectReplay(t, reopened); len(got) != 3 {
		t.Errorf("replay without sidecar returned %d records, want all 3", len(got))
	}
}

func TestWALConcurrentAppendSyncGroupCommit(t *testing.T) {
	reg := obs.NewRegistry()
	w := testWAL(t, WALConfig{Registry: reg, FsyncBatch: 8})
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := w.Append(WALRecord{
					URL:  fmt.Sprintf("https://w%d.example.com/%d", g, i),
					Text: "concurrent",
					At:   int64(g*1000 + i),
				})
				if err != nil {
					errs <- err
					return
				}
				if err := w.Sync(seq); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append/sync: %v", err)
	}
	st := w.Stats()
	if want := uint64(writers*perWriter) + 1; st.NextSeq != want {
		t.Errorf("NextSeq = %d, want %d", st.NextSeq, want)
	}
	if st.Synced != uint64(writers*perWriter) {
		t.Errorf("Synced = %d, want %d", st.Synced, writers*perWriter)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Group commit must have shared fsyncs: strictly fewer fsync calls
	// than appends would need individually is the whole point, but with
	// scheduling noise the only hard guarantee is full durability, so
	// just assert the counters are coherent.
	snap := reg.Snapshot()
	appends := snapCounter(t, snap, "etap_alert_wal_appends_total")
	if appends != writers*perWriter {
		t.Errorf("appends counter = %d, want %d", appends, writers*perWriter)
	}
}

func TestWALAppendAfterCloseFails(t *testing.T) {
	w := testWAL(t, WALConfig{})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := w.Append(WALRecord{URL: "u", Text: "t", At: 1}); !errors.Is(err, ErrWALClosed) {
		t.Errorf("Append after Close: err = %v, want ErrWALClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v, want nil (idempotent)", err)
	}
}

func TestWALFrameRejectsOversizedLength(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, WALConfig{Dir: dir})
	walAppendSync(t, w, WALRecord{URL: "u", Text: "t", At: 1})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Forge a frame whose declared length exceeds the cap; recovery
	// must treat it as torn, not allocate gigabytes.
	seg := newestSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [walHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], 2)
	binary.BigEndian.PutUint32(hdr[8:12], walMaxPayload+1)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := testWAL(t, WALConfig{Dir: dir})
	defer reopened.Close()
	if got := collectReplay(t, reopened); len(got) != 1 {
		t.Fatalf("replay returned %d records, want 1", len(got))
	}
}

// newestSegment returns the path of the highest-base non-empty segment
// (the last one holding records; the freshly-opened active segment of
// a closed WAL may be empty).
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	bases, err := walSegmentBases(dir)
	if err != nil || len(bases) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	for i := len(bases) - 1; i >= 0; i-- {
		path := walSegmentPath(dir, bases[i])
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > 0 {
			return path
		}
	}
	t.Fatalf("all segments empty in %s", dir)
	return ""
}

// TestWALUnreadableCommitStateReplaysEverything writes sidecars a crash
// or a damaged disk can leave behind — empty, truncated, not JSON, an
// offset keyed outside the partitions — and checks that each opens as
// a lost sidecar: everything retained replays, and the loss is counted.
func TestWALUnreadableCommitStateReplaysEverything(t *testing.T) {
	for name, content := range map[string]string{
		"empty":     "",
		"truncated": `{"partitions":1,"offsets":{"0":`,
		"garbage":   "\x00\x01not json",
		"bad-key":   `{"partitions":1,"offsets":{"3":2}}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := testWAL(t, WALConfig{Dir: dir})
			w.SetPartitions(1)
			for i := 0; i < 3; i++ {
				walAppendSync(t, w, WALRecord{URL: fmt.Sprintf("u%d", i), Text: "t", At: int64(i)})
			}
			w.Commit(0, 3)
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := os.WriteFile(filepath.Join(dir, walCommitName), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			reopened := testWAL(t, WALConfig{Dir: dir, Registry: reg})
			defer reopened.Close()
			if got := collectReplay(t, reopened); len(got) != 3 {
				t.Errorf("replay over an unreadable sidecar returned %d records, want all 3", len(got))
			}
			if n := snapCounter(t, reg.Snapshot(), "etap_alert_wal_commit_unreadable_total"); n != 1 {
				t.Errorf("etap_alert_wal_commit_unreadable_total = %d, want 1", n)
			}
		})
	}
}

// FuzzWALCommitState feeds arbitrary bytes to the sidecar decoder. It
// must never panic and must allocate no more than a bound linear in the
// input; an input it accepts decodes to partitions in [0, partitions)
// and re-encodes to bytes that decode to the same state and encode to
// themselves, and any other input is a lost sidecar.
func FuzzWALCommitState(f *testing.F) {
	f.Add([]byte(`{"partitions":2,"offsets":{"0":7,"1":4}}`))
	f.Add([]byte(`{"partitions":0,"offsets":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			parts int
			offs  map[int]uint64
			err   error
		)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parts, offs, err = decodeCommitState(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8192+128*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		for p := range offs {
			if p < 0 || p >= parts {
				t.Fatalf("accepted partition %d of %d", p, parts)
			}
		}
		enc, err := encodeCommitState(parts, offs)
		if err != nil {
			t.Fatal(err)
		}
		p2, o2, err := decodeCommitState(enc)
		if err != nil || p2 != parts || !maps.Equal(o2, offs) {
			t.Fatalf("%q re-encodes to %q, which decodes to %d %v (%v)", data, enc, p2, o2, err)
		}
		if enc2, _ := encodeCommitState(p2, o2); !bytes.Equal(enc2, enc) {
			t.Fatalf("%q does not encode to itself: %q", enc, enc2)
		}
	})
}
