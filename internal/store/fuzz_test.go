package store

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// FuzzReadJSONL asserts that the lead-store loader is total and that
// loading publishes a correctly ordered snapshot: it never panics; an
// accepted stream re-encodes through WriteJSONL and loads back to the
// same leads in the same insertion order; and Find(Query{}) equals the
// loaded leads sorted by score descending, then snippet ID ascending.
// Seeds live in testdata/fuzz/FuzzReadJSONL, among them lines of a
// real checkpoint, a duplicate and a missing snippet ID, and equal
// scores.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		snap := s.Snapshot()
		if snap.Revision() != 1 {
			t.Fatalf("%q: loading published %d snapshots, want 1", data, snap.Revision())
		}
		loaded := leadValues(snap.order)
		var buf bytes.Buffer
		if err := s.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("%q loads, but its encoding %q does not: %v", data, buf.String(), err)
		}
		if got := leadValues(again.Snapshot().order); !reflect.DeepEqual(got, loaded) {
			t.Fatalf("%q loads to %+v, its encoding to %+v", data, loaded, got)
		}
		want := slices.Clone(loaded)
		slices.SortFunc(want, func(a, b Lead) int { return compareLeads(&a, &b) })
		if got := s.Find(Query{}); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("%q: Find(Query{}) = %+v, want %+v", data, got, want)
		}
	})
}

func leadValues(ls []*Lead) []Lead {
	out := make([]Lead, len(ls))
	for i, l := range ls {
		out[i] = *l
	}
	return out
}
