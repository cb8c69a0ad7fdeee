package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"etap/internal/textproc"
)

// FuzzParseQuery asserts that query parsing is total and loses no term:
// it never panics, no phrase and no term is empty, and the bare terms
// plus every phrase's terms are, as a multiset, exactly the terms of the
// query with its quote characters read as spaces. Seeds live in
// testdata/fuzz/FuzzParseQuery.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, q string) {
		parsed := ParseQuery(q)
		got := slices.Clone(parsed.Terms)
		for _, phrase := range parsed.Phrases {
			if len(phrase) == 0 {
				t.Fatalf("ParseQuery(%q) has an empty phrase: %q", q, parsed.Phrases)
			}
			got = append(got, phrase...)
		}
		for _, term := range got {
			if term == "" {
				t.Fatalf("ParseQuery(%q) has an empty term: %+v", q, parsed)
			}
		}
		want := terms(strings.ReplaceAll(q, `"`, " "))
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("ParseQuery(%q) = %+v: terms %q, want %q", q, parsed, got, want)
		}
	})
}

// FuzzTermsAcrossParts asserts that indexing a document's title and
// text as two parts yields exactly the terms of the two joined by a
// space, as web.Web indexed pages before it handed the engine both
// parts: positions continue across parts, and no token joins across
// the boundary. Seeds live in testdata/fuzz/FuzzTermsAcrossParts.
func FuzzTermsAcrossParts(f *testing.F) {
	f.Fuzz(func(t *testing.T, title, text string) {
		want := terms(title + " " + text)
		if got := terms(title, text); !slices.Equal(got, want) {
			t.Fatalf("terms(%q, %q) = %q, want %q", title, text, got, want)
		}
		// A scratch that held a longer document gives the same terms.
		sc := textproc.GetScratch()
		defer sc.Release()
		scanTerms(sc, []string{strings.Repeat("Acme named a new CEO in 2004. ", 8)})
		if got := scanTerms(sc, []string{title, text}); !slices.Equal(got, want) {
			t.Fatalf("scanTerms over (%q, %q) after a longer text = %q, want %q", title, text, got, want)
		}
	})
}

// FuzzDecodePostings asserts that postings decoding is total and exact
// on arbitrary bytes: it never panics; an input either fails with an
// error or decodes to postings that appendPostings re-encodes to the
// same bytes; decoding restricted to a subset of the documents fails
// alike or yields exactly the postings of that subset; and what one
// decode allocates is bounded by the input's length, whatever counts
// the input claims. Seeds live in testdata/fuzz/FuzzDecodePostings,
// among them a list claiming 1<<40 postings and a posting claiming
// 1<<40 positions.
func FuzzDecodePostings(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pl, _, err := decodeList(data, nil, nil, nil)
		runtime.ReadMemStats(&after)
		// A posting costs 32 bytes for at least 2 input bytes and a
		// position 4 bytes for at least 1, with growth and size-class
		// rounding at most doubling that; the fixed slack absorbs the
		// error message and the runtime counting whole spans at refill.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(48*len(data)+1<<20); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), alloc, bound)
		}
		// Every other document, shifted by one so within also names
		// documents the list does not hold.
		within := []Posting{}
		for i, p := range pl {
			if i%2 == 0 {
				within = append(within, Posting{Doc: p.Doc}, Posting{Doc: p.Doc + 1})
			}
		}
		sub, _, subErr := decodeList(data, within, nil, nil)
		if (err == nil) != (subErr == nil) {
			t.Fatalf("decode(%x): error %v, restricted to %v: error %v", data, err, within, subErr)
		}
		if err != nil {
			return
		}
		if again := appendPostings(nil, pl); !bytes.Equal(again, data) {
			t.Fatalf("decode(%x) = %v re-encodes to %x", data, pl, again)
		}
		var want []Posting
		for i, p := range pl {
			if i%2 == 0 || (i > 0 && p.Doc == pl[i-1].Doc+1) {
				want = append(want, p)
			}
		}
		// Compared encoded: a posting without positions may come back
		// with nil or empty Positions depending on what preceded it.
		if !bytes.Equal(appendPostings(nil, sub), appendPostings(nil, want)) {
			t.Fatalf("decode(%x) restricted to %v = %v, want %v", data, within, sub, want)
		}
	})
}

// FuzzOpenSegment asserts that opening a segment is total, bounded and
// exact on arbitrary bytes: decodeSegment never panics; what it
// allocates is bounded by the input's length, whatever counts the file
// claims; a segment it accepts is safe to serve (no df above the doc
// count, every term's postings inside the postings section); and it
// re-encodes through the writer's frame to the same bytes. The target
// re-seals each input's footer
// checksum, so mutations reach the decoder instead of stopping at the
// CRC. Seeds live in testdata/fuzz/FuzzOpenSegment: a writer-built
// segment, and copies of it claiming 1<<40 docs, 1<<40 terms, a df
// above the doc count and postings beyond their section.
func FuzzOpenSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		data = reseal(bytes.Clone(data))
		var crc uint32
		if len(data) >= segFooterLen {
			crc = binary.LittleEndian.Uint32(data[len(data)-segFooterLen+40:])
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := decodeSegment(bytes.NewReader(data), int64(len(data)), crc)
		runtime.ReadMemStats(&after)
		// A doc entry costs at most 40 bytes for at least 2 input bytes
		// and a dictionary entry at most 100 for at least 4, each
		// section's bytes are read once, and the fixed slack absorbs
		// the checksum's 256 KiB chunk and whole-span counting.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(48*len(data)+1<<20); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		postings := binary.LittleEndian.Uint64(data[len(data)-segFooterLen+16:]) - uint64(s.postBase)
		for _, term := range s.terms {
			if e := s.dict[term]; e.df > len(s.ids) || e.off > postings || e.blen > postings-e.off {
				t.Fatalf("accepted term %q with df %d over %d docs, postings [%d, +%d) in a %d-byte section", term, e.df, len(s.ids), e.off, e.blen, postings)
			}
		}
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		ws, err := encodeSegmentFrame(w, s.ids, s.docLens, s.totalLen, s.terms,
			func(term string, scratch []byte) ([]byte, int, error) {
				e := s.dict[term]
				at := uint64(s.postBase) + e.off
				return append(scratch, data[at:at+e.blen]...), e.df, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("segment %x decodes to %d docs and %d terms that re-encode to %x", data, len(s.ids), len(s.terms), out.Bytes())
		}
		if ws.posts != s.posts || ws.postBase != s.postBase {
			t.Fatalf("re-encoding counts %d postings at %d, decoding %d at %d", ws.posts, ws.postBase, s.posts, s.postBase)
		}
	})
}

// reseal writes the checksum of segment file b's bytes before the
// footer into the footer, if b is long enough to have one.
func reseal(b []byte) []byte {
	if len(b) >= segFooterLen {
		binary.LittleEndian.PutUint32(b[len(b)-segFooterLen+40:], crc32.ChecksumIEEE(b[:len(b)-segFooterLen]))
	}
	return b
}

// withUvarint returns segment file b with the uvarint at offset at
// replaced by v, the footer's section offsets behind it moved by the
// change in length, and the checksum re-sealed.
func withUvarint(b []byte, at int, v uint64) []byte {
	_, n := binary.Uvarint(b[at:])
	out := append(binary.AppendUvarint(slices.Clone(b[:at]), v), b[at+n:]...)
	footer := out[len(out)-segFooterLen:]
	for _, field := range []int{8, 16} { // postOff, dictOff
		if off := binary.LittleEndian.Uint64(footer[field:]); off > uint64(at) {
			binary.LittleEndian.PutUint64(footer[field:], off+uint64(len(out)-len(b)))
		}
	}
	return reseal(out)
}

// withFooter returns segment file b with the u64 footer field at offset
// field set to v and the checksum re-sealed.
func withFooter(b []byte, field int, v uint64) []byte {
	out := slices.Clone(b)
	binary.LittleEndian.PutUint64(out[len(out)-segFooterLen+field:], v)
	return reseal(out)
}

// overclaimingSegments returns a small writer-built segment and copies
// of it that claim more than they hold, each with a valid checksum:
// 1<<40 docs, 1<<40 terms, a df above the doc count, and a postings
// extent beyond the postings section.
func overclaimingSegments(t testing.TB) (valid []byte, bad map[string][]byte) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	m := sealedMemSegment([]corpusDoc{{"a", "acme acquired beta"}, {"b", "beta named a new ceo"}})
	terms := m.sortedTerms()
	if _, err := encodeSegmentFrame(w, m.ids, m.docLens, m.totalLen, terms, m.emit); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	valid = out.Bytes()
	footer := valid[len(valid)-segFooterLen:]
	dictOff := int(binary.LittleEndian.Uint64(footer[16:]))
	// The first dictionary entry: count, term length, term, then its
	// offset, extent and df, one byte each in this segment.
	first := dictOff + 2 + len(terms[0])
	return valid, map[string][]byte{
		"docs-1<<40":     withFooter(withUvarint(valid, len(segMagic)+1, 1<<40), 24, 1<<40),
		"terms-1<<40":    withFooter(withUvarint(valid, dictOff, 1<<40), 32, 1<<40),
		"df-above-docs":  withUvarint(valid, first+2, uint64(len(m.ids)+1)),
		"extent-outside": withUvarint(valid, first, 1<<20),
	}
}

// FuzzLoadManifest asserts that manifest parsing is total and that
// what it accepts is safe to open and stable: it never panics; every
// accepted segment's file is its ID's canonical name, IDs strictly
// ascend below next_id and no count is negative; and an accepted
// manifest survives commitManifest's encoding unchanged. Seeds live in
// testdata/fuzz/FuzzLoadManifest, among them a committed manifest and
// ones naming "../x.seg", listing IDs out of order, reusing a live ID
// as next_id and claiming negative docs.
func FuzzLoadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		for i, s := range m.Segments {
			if s.File != segmentFileName(s.ID) || (i > 0 && s.ID <= m.Segments[i-1].ID) ||
				s.ID >= m.NextID || s.Docs < 0 || s.Bytes < 0 {
				t.Fatalf("accepted %q: segment %+v of %+v", data, s, m)
			}
		}
		enc, err := encodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseManifest(enc)
		if err != nil {
			t.Fatalf("%q parses, but its encoding %q does not: %v", data, enc, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("%q parses to %+v, its encoding to %+v", data, m, again)
		}
	})
}
