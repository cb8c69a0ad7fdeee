package index

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
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
		pl, _, err := decodePostings(data, nil, nil, nil)
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
		sub, _, subErr := decodePostings(data, within, nil, nil)
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
