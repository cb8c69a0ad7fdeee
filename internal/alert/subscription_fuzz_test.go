package alert

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

// maxSubscriptionLine is ReadSubscriptions's scanner cap.
const maxSubscriptionLine = 1 << 20

// FuzzReadSubscriptions feeds arbitrary bytes to ReadSubscriptions. It
// must not panic; a line past the scanner's 1 MiB cap must be an error,
// not a larger buffer; and whatever loads must re-encode to a fixed
// point: read, write, read and write again give the same bytes.
func FuzzReadSubscriptions(f *testing.F) {
	for _, s := range []string{
		"",
		"\n\n\n",
		`{"id":"sub-1","company":"Acme","created":1}` + "\n\n" + `{"id":"sub-2","driver":"revenue-growth","minScore":0.5,"created":2}`,
		`{"id":"a","company":"Acme Inc."}` + "\n" + `{"id":"a","company":"Globex"}`,
		`{"id":"sub-7","created":3}` + "\n" + `{"id":"sub-40","tenant":"north"}` + "\n" + `{"id":"sub-x"}`,
		`{"id":"odd","company":"..."}`,
		`{"id":"zürich-1","company":"Zürich Holdings AG","webhook":"http://h/ü"}`,
		`{"id":""}`,
		`{"id":"sub-1","minScore":1e308}`,
		"not json",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, err := ReadSubscriptions(bytes.NewReader(data))
		if longestLine(data) > maxSubscriptionLine {
			if err == nil {
				t.Fatalf("a line of %d bytes loaded", longestLine(data))
			}
			return
		}
		if err != nil {
			return
		}
		first := encodeSubscriptions(t, ss)
		again, err := ReadSubscriptions(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-reading what was written: %v\n%s", err, first)
		}
		if second := encodeSubscriptions(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding moved:\n%s\nthen\n%s", first, second)
		}
	})
}

func encodeSubscriptions(t *testing.T, ss *Subscriptions) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ss.WriteJSONL(&b); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return b.Bytes()
}

// longestLine is the length of data's longest line, without its
// newline.
func longestLine(data []byte) int {
	n := 0
	for _, l := range bytes.Split(data, []byte("\n")) {
		n = max(n, len(l))
	}
	return n
}

// TestReadSubscriptionsRejectsLongLine checks the scanner cap at its
// edge: a valid subscription padded to the cap loads, one byte more is
// bufio.ErrTooLong.
func TestReadSubscriptionsRejectsLongLine(t *testing.T) {
	line := func(n int) string {
		head := `{"id":"sub-1","webhook":"http://h/`
		return head + strings.Repeat("x", n-len(head)-2) + `"}`
	}
	if _, err := ReadSubscriptions(strings.NewReader(line(maxSubscriptionLine-1) + "\n")); err != nil {
		t.Fatalf("a line one byte under the cap: %v", err)
	}
	if _, err := ReadSubscriptions(strings.NewReader(line(maxSubscriptionLine+1) + "\n")); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a line one byte over the cap: %v, want bufio.ErrTooLong", err)
	}
}
