package kb

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

// maxKBLine is ReadJSONL's scanner cap.
const maxKBLine = 4 << 20

// FuzzReadKB feeds arbitrary bytes to ReadJSONL. It must not panic; a
// line past the scanner's 4 MiB cap must be an error, not a larger
// buffer; and whatever loads must re-encode to a fixed point: read,
// write, read and write again give the same bytes.
func FuzzReadKB(f *testing.F) {
	for _, s := range []string{
		"",
		"\n\n\n",
		`{"key":"acme","name":"Acme Inc","industry":"retail","employees":120,"keywords":["stores","cloud"]}` + "\n\n" +
			`{"key":"globex","name":"Globex","related":[{"key":"acme","kind":"partner"}]}`,
		`{"key":"acme","name":"Acme"}` + "\n" + `{"key":"acme","name":"Acme again"}`,
		`{"key":"zürich","name":"Zürich AG","hq":"Zürich"}` + "\n" + `{"key":"東京","name":"東京商事"}`,
		`{"key":"","name":"nameless"}`,
		`{"key":"b"}` + "\n" + `{"key":"a"}`,
		"not json",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := ReadJSONL(bytes.NewReader(data))
		if longestLine(data) > maxKBLine {
			if err == nil {
				t.Fatalf("a line of %d bytes loaded", longestLine(data))
			}
			return
		}
		if err != nil {
			return
		}
		first := encodeKB(t, k)
		again, err := ReadJSONL(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-reading what was written: %v\n%s", err, first)
		}
		if second := encodeKB(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding moved:\n%s\nthen\n%s", first, second)
		}
	})
}

func encodeKB(t *testing.T, k *KB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := k.WriteJSONL(&b); err != nil {
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

// TestReadKBRejectsLongLine checks the scanner cap at its edge: a
// valid company padded to the cap loads, one byte more is
// bufio.ErrTooLong.
func TestReadKBRejectsLongLine(t *testing.T) {
	line := func(n int) string {
		head := `{"key":"acme","name":"`
		return head + strings.Repeat("x", n-len(head)-2) + `"}`
	}
	if _, err := ReadJSONL(strings.NewReader(line(maxKBLine-1) + "\n")); err != nil {
		t.Fatalf("a line one byte under the cap: %v", err)
	}
	if _, err := ReadJSONL(strings.NewReader(line(maxKBLine+1) + "\n")); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a line one byte over the cap: %v, want bufio.ErrTooLong", err)
	}
}
