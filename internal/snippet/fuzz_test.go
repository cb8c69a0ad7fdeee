package snippet

import (
	"strings"
	"testing"

	"etap/internal/textproc"
)

// FuzzSplitMatchesJoin checks Split against its definition for any
// text: each snippet's text is its sentences joined by single spaces,
// whether Split sliced it from the document or joined it, and its
// offsets are those of its first and last sentence. It runs the default
// windows, one-sentence windows and overlapping windows. The seeds
// under testdata/fuzz cover double spaces, tabs, newlines,
// abbreviations, invalid UTF-8 and non-ASCII spaces.
func FuzzSplitMatchesJoin(f *testing.F) {
	f.Add("")
	f.Add("One deal closed. Two mergers failed. Three firms grew. Four boards met.")
	f.Fuzz(func(t *testing.T, text string) {
		sentences := textproc.SplitSentences(text)
		for _, g := range []Generator{{}, {N: 1}, {N: 3, Stride: 1}} {
			for _, sn := range g.Split("d", text) {
				window := sentences[sn.SentFrom:sn.SentTo]
				parts := make([]string, len(window))
				for i, s := range window {
					parts[i] = s.Text
				}
				if want := strings.Join(parts, " "); sn.Text != want {
					t.Fatalf("%+v: snippet %d text %q, want its sentences joined: %q", g, sn.Index, sn.Text, want)
				}
				if sn.Start != window[0].Start || sn.End != window[len(window)-1].End {
					t.Fatalf("%+v: snippet %d spans [%d,%d), its sentences [%d,%d)",
						g, sn.Index, sn.Start, sn.End, window[0].Start, window[len(window)-1].End)
				}
			}
		}
	})
}
