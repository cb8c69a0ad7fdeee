// Package snippet implements ETAP's snippet generator (Section 3.1): each
// document is split into snippets, where a snippet is a group of n
// consecutive sentences. "The choice of operating at the snippet level was
// motivated by the observation that a snippet conveys a precise piece of
// information, in contrast with the entire document".
package snippet

import (
	"strconv"

	"etap/internal/textproc"
)

// DefaultN is the snippet size used throughout the paper ("We have used
// n = 3 in our system").
const DefaultN = 3

// Snippet is a group of consecutive sentences from one document.
type Snippet struct {
	ID       string // stable identifier: "<docID>#<index>"
	DocID    string // source document identifier
	Index    int    // zero-based snippet index within the document
	Text     string // the sentences joined with single spaces
	SentFrom int    // index of the first sentence in the document
	SentTo   int    // index one past the last sentence
	Start    int    // byte offset of the snippet in the document
	End      int    // byte offset one past the end
}

// Generator splits documents into fixed-size sentence windows.
type Generator struct {
	// N is the number of consecutive sentences per snippet; 0 means
	// DefaultN.
	N int
	// Stride is the number of sentences to advance between windows;
	// 0 means non-overlapping windows (stride == N).
	Stride int
}

// Split chunks the document text into snippets. A trailing window shorter
// than N sentences is still emitted (documents rarely divide evenly), so
// every sentence belongs to at least one snippet. A snippet whose
// sentences are separated by single spaces in text, as generated and
// extracted documents are, takes its Text as a slice of text; only
// other snippets are joined into a string of their own.
func (g Generator) Split(docID, text string) []Snippet {
	n := g.N
	if n <= 0 {
		n = DefaultN
	}
	stride := g.Stride
	if stride <= 0 {
		stride = n
	}

	sentences := textproc.SplitSentences(text)
	if len(sentences) == 0 {
		return nil
	}

	var out []Snippet
	index := 0
	for from := 0; from < len(sentences); from += stride {
		to := from + n
		if to > len(sentences) {
			to = len(sentences)
		}
		out = append(out, Snippet{
			ID:       docID + "#" + strconv.Itoa(index),
			DocID:    docID,
			Index:    index,
			Text:     sentenceText(text, sentences[from:to]),
			SentFrom: from,
			SentTo:   to,
			Start:    sentences[from].Start,
			End:      sentences[to-1].End,
		})
		index++
		if to == len(sentences) {
			break
		}
	}
	return out
}

// sentenceText returns ss joined with single spaces: a slice of text
// when each sentence is text[Start:End] and the next starts one space
// after it ends, a new string otherwise.
func sentenceText(text string, ss []textproc.Sentence) string {
	if len(ss) == 1 {
		return ss[0].Text
	}
	sliced := true
	for i, s := range ss {
		if text[s.Start:s.End] != s.Text ||
			i > 0 && (s.Start != ss[i-1].End+1 || text[ss[i-1].End] != ' ') {
			sliced = false
			break
		}
	}
	if sliced {
		return text[ss[0].Start:ss[len(ss)-1].End]
	}
	n := 0
	for _, s := range ss {
		n += len(s.Text) + 1
	}
	b := make([]byte, 0, n)
	for i, s := range ss {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, s.Text...)
	}
	return string(b)
}
