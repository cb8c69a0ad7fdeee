package tenant

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"etap/internal/obs"
)

// FuzzReadRegistry asserts that the tenant checkpoint loader is total
// and accepts only what Add accepts: it never panics; every profile it
// loads passes Validate; an accepted registry survives WriteJSONL →
// ReadRegistry unchanged; and the next automatic ID is a fresh
// positive "tenant-N" (or ErrIDsExhausted), never a wrapped one. Seeds
// live in testdata/fuzz/FuzzReadRegistry, among them a checkpoint the
// registry wrote, an invalid profile and the largest tenant-N ID.
func FuzzReadRegistry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Clock: fixedClock, Registry: obs.NewRegistry()}
		r, err := ReadRegistry(bytes.NewReader(data), cfg)
		if err != nil {
			return
		}
		loaded := r.List()
		for _, p := range loaded {
			if err := p.Validate(); err != nil {
				t.Fatalf("%q: loaded invalid profile %+v: %v", data, p, err)
			}
		}
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadRegistry(&buf, cfg)
		if err != nil {
			t.Fatalf("%q loads, but its encoding %q does not: %v", data, buf.String(), err)
		}
		if got := again.List(); !reflect.DeepEqual(got, loaded) {
			t.Fatalf("%q loads to %+v, its encoding to %+v", data, loaded, got)
		}
		p, err := r.Add(Profile{})
		if err == ErrIDsExhausted {
			return
		}
		if err != nil {
			t.Fatalf("%q: Add after load: %v", data, err)
		}
		n, perr := strconv.Atoi(strings.TrimPrefix(p.ID, "tenant-"))
		if !strings.HasPrefix(p.ID, "tenant-") || perr != nil || n <= 0 {
			t.Fatalf("%q: next automatic ID %q", data, p.ID)
		}
	})
}
