package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// This file implements the immutable on-disk segment: the encoder that
// seals a memSegment into a file, and the reader that serves searches
// from one. The byte-level layout is normatively specified in
// STORAGE.md; the constants and section order here implement format
// version 1:
//
//	[header]    magic "ETSG", version byte
//	[doc table] docCount, then (docID, tokenLen) per document
//	[postings]  per-term delta/varint postings lists (appendPosting),
//	            concatenated in sorted term order
//	[dict]      termCount, then (term, offset, byteLen, df) per term,
//	            sorted; offsets are relative to the postings section
//	[footer]    fixed 48 bytes: five u64 section pointers/counts, the
//	            IEEE CRC32 of every byte before the footer, magic "GSTE"
//
// Everything except the postings section is decoded into memory at
// open; postings are fetched lazily per query through the mmap-backed
// io.ReaderAt, so resident memory is dictionary + doc table, not the
// corpus.
const (
	segMagic     = "ETSG"
	segVersion   = 1
	segFooterLen = 48
	segFooterEnd = "GSTE"
)

// segmentSuffix is the extension committed segment files carry;
// in-progress files use segmentSuffix + tmpSuffix until their atomic
// rename (STORAGE.md §5).
const (
	segmentSuffix = ".seg"
	tmpSuffix     = ".tmp"
)

// segmentFileName renders the canonical file name for a segment ID.
func segmentFileName(id uint64) string {
	return fmt.Sprintf("seg-%016x%s", id, segmentSuffix)
}

// countingWriter tracks the byte offset and running CRC of everything
// written through it, so the encoder can record section offsets and
// seal the file with a checksum without buffering it whole.
type countingWriter struct {
	w   *bufio.Writer
	n   int64
	crc uint32
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

// segMeta describes a freshly written segment file: what the manifest
// records and the open path verifies.
type segMeta struct {
	docs  int
	bytes int64
	crc   uint32
}

// writtenSegment is the full result of encoding a memtable: the
// manifest metadata plus the reader-side in-memory state (doc table,
// dictionary, section offsets). The slices alias the sealed memtable —
// sealed memtables are immutable — so a just-flushed segment installs
// with zero re-reading, re-parsing or re-verifying; only restarts pay
// the verifying parse in openSegment.
type writtenSegment struct {
	meta     segMeta
	ids      []string
	docLens  []float64
	totalLen float64
	dict     map[string]dictEntry
	terms    []string
	postBase int64
	posts    int
}

// writeSegmentFile encodes a sealed memSegment to path (which must be
// a temporary name — the caller renames it into place after fsync).
// The memtable already holds every list in the file's encoding, so
// each one is written as it is, behind its count. The memtable is read
// under its read lock; sealed memtables are never written again but
// remain searchable while this runs.
func writeSegmentFile(path string, m *memSegment) (writtenSegment, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return writeSegmentFrame(path, m.ids, m.docLens, m.totalLen, m.sortedTerms(), m.emit)
}

// writeSegmentFrame writes the format-v1 frame around caller-supplied
// postings: header, doc table, one emit(term) postings list per term in
// the given (sorted) order, dictionary, footer. emit appends term t's
// encoded postings list onto scratch and returns it with the list's
// document frequency. Both the flush path (encoding a memtable) and the
// merge path (patching raw input bytes) produce their files through
// this one frame, so the two paths cannot drift.
func writeSegmentFrame(path string, ids []string, docLens []float64, totalLen float64, terms []string, emit func(t string, scratch []byte) ([]byte, int, error)) (writtenSegment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return writtenSegment{}, err
	}
	fail := func(err error) (writtenSegment, error) {
		// Best-effort cleanup of the partial temp file; a leftover is
		// harmless (openers ignore and remove non-manifest files).
		if cerr := f.Close(); cerr != nil {
			err = fmt.Errorf("%w (and close: %v)", err, cerr)
		}
		if rerr := os.Remove(path); rerr != nil {
			err = fmt.Errorf("%w (and remove: %v)", err, rerr)
		}
		return writtenSegment{}, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	ws, err := encodeSegmentFrame(w, ids, docLens, totalLen, terms, emit)
	if err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	// The commit protocol requires the data durable before the rename
	// that publishes it and before any manifest references it.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		if rerr := os.Remove(path); rerr != nil {
			err = fmt.Errorf("%w (and remove: %v)", err, rerr)
		}
		return writtenSegment{}, err
	}
	return ws, nil
}

// encodeSegmentFrame writes the frame writeSegmentFrame describes to w,
// which the caller flushes.
func encodeSegmentFrame(w *bufio.Writer, ids []string, docLens []float64, totalLen float64, terms []string, emit func(t string, scratch []byte) ([]byte, int, error)) (writtenSegment, error) {
	cw := &countingWriter{w: w}
	var err error

	// Header.
	if _, err := cw.Write(append([]byte(segMagic), segVersion)); err != nil {
		return writtenSegment{}, err
	}

	// Doc table.
	docsOff := cw.n
	var scratch []byte
	scratch = binary.AppendUvarint(scratch[:0], uint64(len(ids)))
	if _, err := cw.Write(scratch); err != nil {
		return writtenSegment{}, err
	}
	for i, id := range ids {
		scratch = binary.AppendUvarint(scratch[:0], uint64(len(id)))
		scratch = append(scratch, id...)
		scratch = binary.AppendUvarint(scratch, uint64(docLens[i]))
		if _, err := cw.Write(scratch); err != nil {
			return writtenSegment{}, err
		}
	}

	// Postings, recording per-term extents for the dictionary.
	postOff := cw.n
	posts := 0
	extents := make([]dictEntry, len(terms))
	for i, t := range terms {
		start := cw.n - postOff
		var df int
		scratch, df, err = emit(t, scratch[:0])
		if err != nil {
			return writtenSegment{}, err
		}
		if _, err := cw.Write(scratch); err != nil {
			return writtenSegment{}, err
		}
		extents[i] = dictEntry{off: uint64(start), blen: uint64(cw.n - postOff - start), df: df}
		posts += df
	}

	// Dictionary.
	dictOff := cw.n
	scratch = binary.AppendUvarint(scratch[:0], uint64(len(terms)))
	if _, err := cw.Write(scratch); err != nil {
		return writtenSegment{}, err
	}
	dict := make(map[string]dictEntry, len(terms))
	for i, t := range terms {
		scratch = binary.AppendUvarint(scratch[:0], uint64(len(t)))
		scratch = append(scratch, t...)
		scratch = binary.AppendUvarint(scratch, extents[i].off)
		scratch = binary.AppendUvarint(scratch, extents[i].blen)
		scratch = binary.AppendUvarint(scratch, uint64(extents[i].df))
		if _, err := cw.Write(scratch); err != nil {
			return writtenSegment{}, err
		}
		dict[t] = extents[i]
	}

	// Footer: fixed-size pointers + CRC of everything before it.
	crc := cw.crc
	footer := make([]byte, 0, segFooterLen)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(docsOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(postOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(dictOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(ids)))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(terms)))
	footer = binary.LittleEndian.AppendUint32(footer, crc)
	footer = append(footer, segFooterEnd...)
	if _, err := cw.Write(footer); err != nil {
		return writtenSegment{}, err
	}
	return writtenSegment{
		meta:     segMeta{docs: len(ids), bytes: cw.n, crc: crc},
		ids:      ids,
		docLens:  docLens,
		totalLen: totalLen,
		dict:     dict,
		terms:    terms,
		postBase: postOff,
		posts:    posts,
	}, nil
}

// installSegment opens a just-written segment for search without the
// verifying parse: the caller encoded the file moments ago, so the
// in-memory state from writeSegmentFile is installed directly and only
// the data mapping is established. Restarts go through openSegment.
func installSegment(path string, id uint64, ws writtenSegment) (*segment, error) {
	data, size, err := openSegmentData(path)
	if err != nil {
		return nil, err
	}
	if size != ws.meta.bytes {
		cerr := data.Close()
		if cerr != nil {
			return nil, fmt.Errorf("segment %s: wrote %d bytes, file has %d (and close: %v)", path, ws.meta.bytes, size, cerr)
		}
		return nil, fmt.Errorf("segment %s: wrote %d bytes, file has %d", path, ws.meta.bytes, size)
	}
	return &segment{
		id:       id,
		path:     path,
		data:     data,
		bytes:    size,
		ids:      ws.ids,
		docLens:  ws.docLens,
		totalLen: ws.totalLen,
		dict:     ws.dict,
		terms:    ws.terms,
		postBase: ws.postBase,
		posts:    ws.posts,
	}, nil
}

// dictEntry locates one term's postings list inside a segment file.
type dictEntry struct {
	off, blen uint64
	df        int
}

// segment is one committed, immutable on-disk segment opened for
// search. The dictionary and document table live in memory; postings
// are decoded lazily per query from the mmap-backed data. A segment is
// never mutated after open, so all methods are safe for concurrent use
// with no locking.
type segment struct {
	id    uint64
	path  string
	data  segmentData
	bytes int64

	// Retirement plumbing: snapshots pin a segment with refs; a merge
	// that replaces it sets retired, and whoever observes refs reach
	// zero afterwards destroys it. destroyOnce makes the close+remove
	// race-free when a releasing reader and the merger tie.
	refs        atomic.Int32
	retired     atomic.Bool
	destroyOnce sync.Once

	ids      []string
	docLens  []float64
	totalLen float64
	dict     map[string]dictEntry
	terms    []string // sorted, for deterministic merge iteration
	postBase int64
	posts    int // total (term, doc) postings
}

// openSegment opens and fully verifies a committed segment file: the
// size and CRC must match what the manifest recorded (a mismatch means
// a torn or foreign file and fails the open — the manifest never
// references bytes it did not commit). Returns the ready-to-search
// segment.
func openSegment(path string, id uint64, wantBytes int64, wantCRC uint32) (*segment, error) {
	data, size, err := openSegmentData(path)
	if err != nil {
		return nil, err
	}
	var s *segment
	if size != wantBytes {
		err = fmt.Errorf("size %d, manifest says %d", size, wantBytes)
	} else {
		s, err = decodeSegment(data, size, wantCRC)
	}
	if err != nil {
		if cerr := data.Close(); cerr != nil {
			err = fmt.Errorf("%w (and close: %v)", err, cerr)
		}
		return nil, fmt.Errorf("segment %s: %w", path, err)
	}
	s.id, s.path, s.data, s.bytes = id, path, data, size
	return s, nil
}

// decodeSegment verifies the size bytes of a segment file read through
// r and decodes its doc table and dictionary. It accepts exactly what
// writeSegmentFrame writes: every section where the footer puts it and
// consumed to its last byte, terms in strictly ascending order, and
// postings extents that tile the postings section in term order. Every
// count is bounded by the bytes of its section before anything is sized
// from it — a doc entry takes at least 2 bytes, a dictionary entry at
// least 4 — so a file claiming more than it holds is an error, not an
// out-of-memory crash, whatever its checksum says.
func decodeSegment(r io.ReaderAt, size int64, wantCRC uint32) (*segment, error) {
	if size < int64(len(segMagic))+1+segFooterLen {
		return nil, fmt.Errorf("%d bytes is below the minimum frame", size)
	}

	// Verify the checksum over everything before the footer.
	crc, err := crcRange(r, 0, size-segFooterLen)
	if err != nil {
		return nil, fmt.Errorf("checksumming: %w", err)
	}

	// Footer.
	footer := make([]byte, segFooterLen)
	if _, err := r.ReadAt(footer, size-segFooterLen); err != nil {
		return nil, fmt.Errorf("footer: %w", err)
	}
	if string(footer[segFooterLen-4:]) != segFooterEnd {
		return nil, fmt.Errorf("bad footer magic")
	}
	docsOff := binary.LittleEndian.Uint64(footer[0:])
	postOff := binary.LittleEndian.Uint64(footer[8:])
	dictOff := binary.LittleEndian.Uint64(footer[16:])
	docCount := binary.LittleEndian.Uint64(footer[24:])
	termCount := binary.LittleEndian.Uint64(footer[32:])
	fileCRC := binary.LittleEndian.Uint32(footer[40:])
	if fileCRC != crc {
		return nil, fmt.Errorf("checksum %08x, footer says %08x", crc, fileCRC)
	}
	if crc != wantCRC {
		return nil, fmt.Errorf("checksum %08x, manifest says %08x", crc, wantCRC)
	}
	header := make([]byte, len(segMagic)+1)
	if _, err := r.ReadAt(header, 0); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if string(header[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("bad magic")
	}
	if header[len(segMagic)] != segVersion {
		return nil, fmt.Errorf("format version %d, want %d", header[len(segMagic)], segVersion)
	}
	if docsOff != uint64(len(header)) || postOff < docsOff || dictOff < postOff || dictOff > uint64(size-segFooterLen) {
		return nil, fmt.Errorf("inconsistent section offsets")
	}
	s := &segment{postBase: int64(postOff)}

	// Doc table.
	buf := make([]byte, postOff-docsOff)
	if _, err := r.ReadAt(buf, int64(docsOff)); err != nil {
		return nil, fmt.Errorf("doc table: %w", err)
	}
	n, off, err := readUvarint(buf, 0)
	if err != nil {
		return nil, fmt.Errorf("doc count: %w", err)
	}
	if n != docCount {
		return nil, fmt.Errorf("doc table holds %d docs, footer says %d", n, docCount)
	}
	if n > uint64(len(buf)-off)/2 {
		return nil, fmt.Errorf("doc table claims %d docs in %d bytes", n, len(buf)-off)
	}
	s.ids = make([]string, 0, n)
	s.docLens = make([]float64, 0, n)
	for i := uint64(0); i < n; i++ {
		idLen, o, err := readUvarint(buf, off)
		if err != nil {
			return nil, fmt.Errorf("doc %d id length: %w", i, err)
		}
		off = o
		if idLen > uint64(len(buf)-off) {
			return nil, fmt.Errorf("doc %d id overruns table", i)
		}
		id := string(buf[off : off+int(idLen)])
		off += int(idLen)
		tokens, o, err := readUvarint(buf, off)
		if err != nil {
			return nil, fmt.Errorf("doc %d length: %w", i, err)
		}
		if tokens > math.MaxInt32 {
			return nil, fmt.Errorf("doc %d length %d beyond int32", i, tokens)
		}
		off = o
		s.ids = append(s.ids, id)
		s.docLens = append(s.docLens, float64(tokens))
		s.totalLen += float64(tokens)
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%d bytes after the doc table", len(buf)-off)
	}

	// Dictionary.
	buf = make([]byte, uint64(size-segFooterLen)-dictOff)
	if _, err := r.ReadAt(buf, int64(dictOff)); err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	n, off, err = readUvarint(buf, 0)
	if err != nil {
		return nil, fmt.Errorf("term count: %w", err)
	}
	if n != termCount {
		return nil, fmt.Errorf("dictionary holds %d terms, footer says %d", n, termCount)
	}
	if n > uint64(len(buf)-off)/4 {
		return nil, fmt.Errorf("dictionary claims %d terms in %d bytes", n, len(buf)-off)
	}
	s.dict = make(map[string]dictEntry, n)
	s.terms = make([]string, 0, n)
	postings := dictOff - postOff // the postings section's length
	var end uint64                // where the previous term's postings ended
	for i := uint64(0); i < n; i++ {
		tLen, o, err := readUvarint(buf, off)
		if err != nil {
			return nil, fmt.Errorf("term %d length: %w", i, err)
		}
		off = o
		if tLen > uint64(len(buf)-off) {
			return nil, fmt.Errorf("term %d overruns dictionary", i)
		}
		t := string(buf[off : off+int(tLen)])
		off += int(tLen)
		if i > 0 && t <= s.terms[i-1] {
			return nil, fmt.Errorf("term %q out of order after %q", t, s.terms[i-1])
		}
		var e dictEntry
		if e.off, off, err = readUvarint(buf, off); err != nil {
			return nil, fmt.Errorf("term %q offset: %w", t, err)
		}
		if e.blen, off, err = readUvarint(buf, off); err != nil {
			return nil, fmt.Errorf("term %q extent: %w", t, err)
		}
		if e.off != end || e.blen > postings-end {
			return nil, fmt.Errorf("term %q postings [%d, +%d) do not follow the previous term's within the %d-byte section", t, e.off, e.blen, postings)
		}
		end += e.blen
		var df uint64
		if df, off, err = readUvarint(buf, off); err != nil {
			return nil, fmt.Errorf("term %q df: %w", t, err)
		}
		if df > docCount {
			return nil, fmt.Errorf("term %q df %d exceeds the %d docs", t, df, docCount)
		}
		e.df = int(df)
		s.dict[t] = e
		s.terms = append(s.terms, t)
		s.posts += e.df
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%d bytes after the dictionary", len(buf)-off)
	}
	if end != postings {
		return nil, fmt.Errorf("postings extents cover %d of the section's %d bytes", end, postings)
	}
	return s, nil
}

// crcRange computes the IEEE CRC32 of [off, off+n) in fixed-size
// chunks, so verification never allocates proportionally to the file.
func crcRange(r io.ReaderAt, off, n int64) (uint32, error) {
	const chunk = 256 << 10
	buf := make([]byte, chunk)
	crc := uint32(0)
	for n > 0 {
		step := int64(chunk)
		if step > n {
			step = n
		}
		if _, err := r.ReadAt(buf[:step], off); err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:step])
		off += step
		n -= step
	}
	return crc, nil
}

// postings implements encodedPart: it reads the term's list through
// rawPostings into sc and decodes it there. Absent terms and (never
// expected after a verified open) read or decode failures return nil,
// counting the latter so operators can see a faulting segment.
func (s *segment) postings(t string, within []Posting, sc *scratch) []Posting {
	e, ok := s.dict[t]
	if !ok {
		return nil
	}
	buf, err := s.rawPostings(e, sc.buf)
	if err != nil {
		mSegReadFailures.Inc()
		return nil
	}
	sc.buf = buf
	n, off, err := readUvarint(buf, 0)
	var pl []Posting
	if err == nil {
		pl, err = sc.decode(buf[off:], n, within)
	}
	if err != nil {
		mSegReadFailures.Inc()
		return nil
	}
	return pl
}

// rawPostings reads one term's encoded postings bytes without decoding
// them, reusing buf when it is large enough — queries decode them from
// their scratch buffer (postings), and the merge path copies them into
// the merged file nearly verbatim (see writeMergedSegment).
func (s *segment) rawPostings(e dictEntry, buf []byte) ([]byte, error) {
	if uint64(cap(buf)) < e.blen {
		buf = make([]byte, e.blen)
	} else {
		buf = buf[:e.blen]
	}
	if _, err := s.data.ReadAt(buf, s.postBase+int64(e.off)); err != nil {
		return nil, err
	}
	return buf, nil
}

// snapshotStats implements part from the in-memory dictionary alone.
func (s *segment) snapshotStats(distinct []string) partStats {
	st := partStats{docs: len(s.ids), totalLen: s.totalLen, df: make([]int, len(distinct))}
	for i, t := range distinct {
		st.df[i] = s.dict[t].df
	}
	return st
}

// searchPart implements part through searchEncoded; a segment is
// immutable, so it needs no lock.
func (s *segment) searchPart(q *partQuery, sc *scratch) {
	searchEncoded(s, q, s.docLens, s.ids, sc)
}

// df implements encodedPart from the in-memory dictionary.
func (s *segment) df(t string) int { return s.dict[t].df }

// docFreq implements part.
func (s *segment) docFreq(t string) int { return s.df(t) }

// coFreq implements part through coFreqEncoded.
func (s *segment) coFreq(ta, tb string, window int32, sc *scratch) int {
	return coFreqEncoded(s, ta, tb, window, sc)
}

// size implements part.
func (s *segment) size() (docs, terms, postings int) {
	return len(s.ids), len(s.terms), s.posts
}

// close releases the segment's data mapping.
func (s *segment) close() error { return s.data.Close() }
