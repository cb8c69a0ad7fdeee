package index

import (
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
