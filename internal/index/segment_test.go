package index

import (
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// randomPostings builds a random but valid postings list: ascending doc
// IDs, each with a non-empty ascending position list.
func randomPostings(rng *rand.Rand, docs int) []Posting {
	pl := make([]Posting, 0, docs)
	doc := int32(0)
	for i := 0; i < docs; i++ {
		doc += 1 + int32(rng.Intn(50))
		pos := make([]int32, 1+rng.Intn(8))
		p := int32(rng.Intn(10))
		for j := range pos {
			pos[j] = p
			p += 1 + int32(rng.Intn(20))
		}
		pl = append(pl, Posting{Doc: doc, Positions: pos})
	}
	return pl
}

// TestPostingsRoundTrip decodes two lists after each other into one
// reused scratch, as a co-occurrence count does, the second restricted
// to the documents of the first: the first must come back exactly, the
// second as exactly its postings in those documents, and decoding the
// second must not disturb the first.
func TestPostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pl []Posting
	var pos []int32
	for trial := 0; trial < 200; trial++ {
		wantA := randomPostings(rng, rng.Intn(40))
		b := randomPostings(rng, rng.Intn(40))
		var err error
		if pl, pos, err = decodePostings(appendPostings(nil, wantA), nil, pl[:0], pos[:0]); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		gotA := pl
		if pl, pos, err = decodePostings(appendPostings(nil, b), gotA, pl, pos); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		gotB := pl[len(gotA):]
		var wantB []Posting
		for _, p := range b {
			if slices.ContainsFunc(wantA, func(a Posting) bool { return a.Doc == p.Doc }) {
				wantB = append(wantB, p)
			}
		}
		for _, c := range []struct{ got, want []Posting }{{gotA, wantA}, {gotB, wantB}} {
			if len(c.want) == 0 {
				if len(c.got) != 0 {
					t.Fatalf("trial %d: decoded %d postings, want none", trial, len(c.got))
				}
				continue
			}
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("trial %d: round trip mismatch\nwant %v\ngot  %v", trial, c.want, c.got)
			}
		}
	}
}

func TestPostingsDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	full := appendPostings(nil, randomPostings(rng, 20))
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodePostings(full[:cut], nil, nil, nil); err == nil && cut != 0 {
			// cut==0 is legitimately an empty encoding only if the list
			// was empty; a 20-posting list must fail at every prefix.
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(full))
		}
	}
	if _, _, err := decodePostings(append(append([]byte(nil), full...), 0x00), nil, nil, nil); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
}

// sealedMemSegment builds a memSegment via the real tokenizer.
func sealedMemSegment(docs []corpusDoc) *memSegment {
	m := newMemSegment()
	for _, d := range docs {
		m.add(d.id, terms(d.text))
	}
	return m
}

func TestSegmentFileRoundTrip(t *testing.T) {
	docs := syntheticCorpus(200, 11)
	m := sealedMemSegment(docs)
	path := filepath.Join(t.TempDir(), "seg-test.seg")
	ws, err := writeSegmentFile(path, m)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	meta := ws.meta
	if meta.docs != len(docs) {
		t.Fatalf("meta.docs = %d, want %d", meta.docs, len(docs))
	}
	s, err := openSegment(path, 1, meta.bytes, meta.crc)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.close()

	md, mt, mp := m.size()
	sd, st, sp := s.size()
	if sd != md || st != mt || sp != mp {
		t.Fatalf("segment size (%d,%d,%d) != memtable size (%d,%d,%d)", sd, st, sp, md, mt, mp)
	}
	// Every term's postings must survive the disk round trip exactly.
	sc := new(scratch)
	for term, tp := range m.dict {
		got := s.postings(term, nil, sc)
		if !reflect.DeepEqual(got, tp.pl) {
			t.Fatalf("term %q postings mismatch", term)
		}
	}
	// And the same file must encode identically again (deterministic
	// layout regardless of map iteration order).
	path2 := filepath.Join(t.TempDir(), "seg-test2.seg")
	ws2, err := writeSegmentFile(path2, m)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	meta2 := ws2.meta
	if meta2.crc != meta.crc || meta2.bytes != meta.bytes {
		t.Fatalf("re-encoding changed bytes: (%d,%08x) vs (%d,%08x)", meta.bytes, meta.crc, meta2.bytes, meta2.crc)
	}
}

// TestOpenRejectsTornSegment backs the crash-recovery matrix rows for
// torn segment files (STORAGE.md §6): a size mismatch, a flipped byte
// anywhere, or a truncated tail must all fail verification at open.
func TestOpenRejectsTornSegment(t *testing.T) {
	docs := syntheticCorpus(50, 12)
	m := sealedMemSegment(docs)
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-torn.seg")
	ws, err := writeSegmentFile(path, m)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	meta := ws.meta
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	restore := func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Truncation at several depths, including mid-footer.
	for _, cut := range []int64{meta.bytes - 1, meta.bytes - segFooterLen, meta.bytes / 2, 3} {
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		if s, err := openSegment(path, 1, meta.bytes, meta.crc); err == nil {
			s.close()
			t.Fatalf("open accepted segment truncated to %d bytes", cut)
		}
		restore()
	}

	// A single flipped byte in each section must break the checksum.
	for _, off := range []int{0, 7, int(meta.bytes) / 2, int(meta.bytes) - segFooterLen - 1} {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := openSegment(path, 1, meta.bytes, meta.crc); err == nil {
			s.close()
			t.Fatalf("open accepted segment with byte %d flipped", off)
		}
	}
	restore()

	// Manifest disagreement: right bytes on disk, wrong expectation.
	if s, err := openSegment(path, 1, meta.bytes+1, meta.crc); err == nil {
		s.close()
		t.Fatal("open accepted size differing from manifest")
	}
	if s, err := openSegment(path, 1, meta.bytes, meta.crc^1); err == nil {
		s.close()
		t.Fatal("open accepted checksum differing from manifest")
	}

	// Control: the pristine file opens.
	s, err := openSegment(path, 1, meta.bytes, meta.crc)
	if err != nil {
		t.Fatalf("pristine segment rejected: %v", err)
	}
	s.close()
}

// A segment that claims more than it holds fails to open with an error,
// even with a valid checksum: doc and term counts are bounded by their
// sections' bytes before anything is sized from them, a df cannot
// exceed the doc count, and postings must lie in the postings section.
func TestOpenSegmentRejectsOverclaims(t *testing.T) {
	valid, bad := overclaimingSegments(t)
	open := func(b []byte) error {
		path := filepath.Join(t.TempDir(), "seg.seg")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSegment(path, 1, int64(len(b)), crc32.ChecksumIEEE(b[:len(b)-segFooterLen]))
		if err == nil {
			s.close()
		}
		return err
	}
	if err := open(valid); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	for name, b := range bad {
		if err := open(b); err == nil {
			t.Errorf("%s: open accepted the segment", name)
		}
	}
}
