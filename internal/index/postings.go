package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file holds the postings-list machinery shared by every part
// implementation: the varint delta codec segment files store postings
// in (see STORAGE.md §3), and the match-and-score algorithm that turns
// fetched postings into BM25 hits. Keeping the algorithm in one place
// is what makes the in-RAM and on-disk engines bit-identical: a shard,
// a memtable and a segment all resolve queries through the exact same
// arithmetic, differing only in where the postings bytes come from.

// appendPosting delta-encodes one posting onto buf. A postings list is
// a uvarint count followed by its postings in ascending Doc order:
//
//	uvarint(docCount)
//	per posting:
//	  uvarint(doc - prevDoc)     // prevDoc starts at 0
//	  uvarint(len(positions))
//	  per position, ascending:
//	    uvarint(pos - prevPos)   // prevPos starts at 0 per posting
//
// Document IDs are part-local and strictly increasing, so deltas after
// the first are always positive; the first delta is the raw ID. A
// memtable appends each posting as its document arrives and keeps the
// count beside the bytes; whoever writes the list into a segment file
// puts the count in front (memSegment.emit, writeMergedSegment).
func appendPosting(buf []byte, docDelta int32, positions []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(docDelta))
	buf = binary.AppendUvarint(buf, uint64(len(positions)))
	prevPos := int32(0)
	for _, pos := range positions {
		buf = binary.AppendUvarint(buf, uint64(pos-prevPos))
		prevPos = pos
	}
	return buf
}

// decodePostings decodes the n postings data holds (a list without its
// leading count; see appendPosting), appending the decoded
// postings to pl and every posting's positions, back to back, to pos;
// each decoded Posting's Positions aliases its stretch of the returned
// pos. Callers that pass the same pl and pos back in query after query
// (see scratch) decode without allocating once both have grown to the
// largest list kept.
//
// A non-nil within (sorted by Doc) keeps only the postings of the
// documents within also holds: the rest are parsed and checked but not
// stored, so a conjunctive query's scratch grows with the intersection
// rather than with every list it scans.
//
// The count comes apart from the bytes so that a memtable's list, which
// keeps its count beside them, decodes where it lies.
//
// It returns an error (never panics) on truncated or corrupt input so a
// damaged segment surfaces as a recoverable condition, not a crash; the
// caller then keeps its own pl and pos. No count is trusted before it
// is checked against the bytes left: a posting takes at least 2 bytes
// and a position at least 1, so what decoding allocates is bounded by
// len(data) whatever the counts claim.
func decodePostings(data []byte, n uint64, within, pl []Posting, pos []int32) ([]Posting, []int32, error) {
	if n > uint64(len(data))/2 {
		return nil, nil, fmt.Errorf("postings count %d exceeds the %d bytes left", n, len(data))
	}
	var off int
	var err error
	if within == nil {
		pl = slices.Grow(pl, int(n))
	} else {
		pl = slices.Grow(pl, min(int(n), len(within)))
	}
	prevDoc := int64(-1)
	w := 0 // within[w] is the first posting not below the current doc
	// Most deltas and counts fit one byte: the loops below take those
	// inline and leave the rest, and every error, to readUvarint.
	for i := uint64(0); i < n; i++ {
		var docDelta uint64
		if off < len(data) && data[off] < 0x80 {
			docDelta = uint64(data[off])
			off++
		} else if docDelta, off, err = readUvarint(data, off); err != nil {
			return nil, nil, fmt.Errorf("doc delta %d: %w", i, err)
		}
		doc := int64(docDelta) + max(prevDoc, 0)
		if docDelta > math.MaxInt32 || doc <= prevDoc || doc > math.MaxInt32 {
			return nil, nil, fmt.Errorf("doc delta %d: %d does not follow doc %d", i, docDelta, prevDoc)
		}
		prevDoc = doc
		keep := within == nil
		if !keep {
			for w < len(within) && int64(within[w].Doc) < doc {
				w++
			}
			keep = w < len(within) && int64(within[w].Doc) == doc
		}
		var posCount uint64
		if off < len(data) && data[off] < 0x80 {
			posCount = uint64(data[off])
			off++
		} else if posCount, off, err = readUvarint(data, off); err != nil {
			return nil, nil, fmt.Errorf("position count %d: %w", i, err)
		}
		if posCount > uint64(len(data)-off) {
			return nil, nil, fmt.Errorf("position count %d of posting %d exceeds the %d bytes left", posCount, i, len(data)-off)
		}
		if keep {
			pos = slices.Grow(pos, int(posCount))
		}
		start := len(pos)
		prevPos := int64(0)
		for j := uint64(0); j < posCount; j++ {
			var d uint64
			if off < len(data) && data[off] < 0x80 {
				d = uint64(data[off])
				off++
			} else if d, off, err = readUvarint(data, off); err != nil {
				return nil, nil, fmt.Errorf("position delta %d/%d: %w", i, j, err)
			}
			if d > math.MaxInt32-uint64(prevPos) {
				return nil, nil, fmt.Errorf("position delta %d/%d: %d overflows position %d", i, j, d, prevPos)
			}
			prevPos += int64(d)
			if keep {
				pos = append(pos, int32(prevPos))
			}
		}
		if keep {
			pl = append(pl, Posting{Doc: int32(doc), Positions: pos[start:len(pos):len(pos)]})
		}
	}
	if off != len(data) {
		return nil, nil, fmt.Errorf("postings list has %d trailing bytes", len(data)-off)
	}
	return pl, pos, nil
}

// postingsLastDoc scans an encoded postings list (off pointing just
// past the leading count) and returns the last document ID, validating
// that exactly count postings fill the buffer. It parses varint
// boundaries only — no postings are materialised — which is what lets
// segment merges run as byte copies.
func postingsLastDoc(data []byte, off int, count uint64) (int32, error) {
	doc := int32(0)
	for i := uint64(0); i < count; i++ {
		d, o, err := readUvarint(data, off)
		if err != nil {
			return 0, fmt.Errorf("doc delta %d: %w", i, err)
		}
		off = o
		doc += int32(d)
		posCount, o, err := readUvarint(data, off)
		if err != nil {
			return 0, fmt.Errorf("position count %d: %w", i, err)
		}
		off = o
		for j := uint64(0); j < posCount; j++ {
			for {
				if off >= len(data) {
					return 0, fmt.Errorf("truncated position delta %d/%d", i, j)
				}
				b := data[off]
				off++
				if b < 0x80 {
					break
				}
			}
		}
	}
	if off != len(data) {
		return 0, fmt.Errorf("postings list has %d trailing bytes", len(data)-off)
	}
	return doc, nil
}

// readUvarint decodes one uvarint at off, returning the value and the
// next offset. Unlike binary.Uvarint it reports truncation as an error,
// and it rejects the padded encodings binary.AppendUvarint never
// writes, so every accepted byte string has exactly one reading.
func readUvarint(data []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("truncated uvarint at offset %d", off)
	}
	if n > 1 && data[off+n-1] == 0 {
		return 0, 0, fmt.Errorf("padded uvarint at offset %d", off)
	}
	return v, off + n, nil
}

// scratch is the working memory of one part's share of a query or
// co-occurrence count: the encoded bytes of the term being read, the
// decoded postings and positions of every term fetched, the per-term
// lists with their merge cursors, the phrase positions of the current
// candidate, and the hits found. The caller takes it from the pool,
// hands it to one part, copies what it needs out of hits and puts it
// back; hits themselves hold only a DocID and a score, never a
// reference into the decoded postings. Once the pool's scratches have
// grown to the largest lists seen, a query decodes and matches without
// allocating in proportion to the postings it scans.
type scratch struct {
	buf    []byte
	pl     []Posting
	pos    []int32
	lists  [][]Posting
	cur    []int
	phrase [][]int32
	hits   []Hit
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes an empty scratch from the pool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch empties sc and returns it to the pool; nothing read from
// sc may be used afterwards.
func putScratch(sc *scratch) {
	// A shard's lists are its live postings: a pooled scratch must not
	// pin them.
	clear(sc.lists)
	clear(sc.phrase)
	sc.pl, sc.pos, sc.lists, sc.hits = sc.pl[:0], sc.pos[:0], sc.lists[:0], sc.hits[:0]
	scratchPool.Put(sc)
}

// decode appends the n postings encoded in data (see decodePostings) to
// sc and returns them, keeping only the documents within holds when
// within is not nil. The list aliases sc, so it is valid until sc goes
// back to the pool. On an error sc is left as it was.
func (sc *scratch) decode(data []byte, n uint64, within []Posting) ([]Posting, error) {
	start := len(sc.pl)
	pl, pos, err := decodePostings(data, n, within, sc.pl, sc.pos)
	if err != nil {
		return nil, err
	}
	sc.pl, sc.pos = pl, pos
	return pl[start:len(pl):len(pl)], nil
}

// encodedPart is a part that holds its postings encoded — a memtable in
// memory, a segment in its file — and decodes one term's list at a
// time into scratch. The caller holds whatever lock the part needs
// across every call of one read.
type encodedPart interface {
	// df returns the term's document frequency in the part.
	df(t string) int
	// postings decodes the term's list into sc, restricted to the
	// documents within holds when within is not nil; nil when the term
	// is absent or its list cannot be read.
	postings(t string, within []Posting, sc *scratch) []Posting
}

// searchEncoded is searchPart for an encodedPart: the terms are decoded
// into sc rarest first, each keeping only the documents every term
// before it holds, then matchAndScore runs over those lists exactly as
// it does over a shard's — conjunctive matching cannot tell a list from
// its intersection with the others. A term that leaves no document ends
// the search before the remaining terms are read.
func searchEncoded(p encodedPart, q *partQuery, docLens []float64, ids []string, sc *scratch) {
	sc.lists = append(sc.lists[:0], make([][]Posting, len(q.distinct))...)
	var within []Posting
	for range q.distinct {
		next := -1
		for i, t := range q.distinct {
			if sc.lists[i] == nil && (next < 0 || p.df(t) < p.df(q.distinct[next])) {
				next = i
			}
		}
		pl := p.postings(q.distinct[next], within, sc)
		if len(pl) == 0 {
			return
		}
		sc.lists[next], within = pl, pl
	}
	matchAndScore(q, sc.lists, docLens, ids, sc)
}

// coFreqEncoded is coFreq for an encodedPart: the rarer term is decoded
// whole and the other only where it shares a document with it.
func coFreqEncoded(p encodedPart, ta, tb string, window int32, sc *scratch) int {
	if p.df(tb) < p.df(ta) {
		ta, tb = tb, ta
	}
	if p.df(ta) == 0 {
		return 0
	}
	pa := p.postings(ta, nil, sc)
	if len(pa) == 0 {
		return 0
	}
	return countCo(pa, p.postings(tb, pa, sc), window)
}

// matchAndScore resolves a query against one part's postings and
// appends the matching documents to sc.hits. lists holds the part's
// postings list for each of q.distinct, in order (nil when the term
// does not occur in the part); every list is sorted by Doc, so the
// conjunctive match is a merge that walks each list once, led by the
// shortest. Each candidate then passes every phrase's adjacency check
// and is scored by BM25 with the caller-supplied global idf values and
// average document length. The hits are unordered; the caller merges
// and ranks across parts. Scores are bit-identical regardless of how
// documents are partitioned because every per-document input (tf,
// docLen, idf, avgLen) and the summation order (sorted distinct terms)
// are partition-independent.
func matchAndScore(q *partQuery, lists [][]Posting, docLen []float64, ids []string, sc *scratch) {
	if len(lists) == 0 {
		return
	}
	lead := 0
	for i, pl := range lists {
		if len(pl) == 0 {
			return // conjunctive: this part holds no matching docs
		}
		if len(pl) < len(lists[lead]) {
			lead = i
		}
	}
	cur := append(sc.cur[:0], make([]int, len(lists))...)
	sc.cur = cur

candidates:
	for _, p := range lists[lead] {
		d := p.Doc
		for i, pl := range lists {
			c := cur[i]
			for c < len(pl) && pl[c].Doc < d {
				c++
			}
			cur[i] = c
			if c == len(pl) {
				return // a list is exhausted: no later document matches
			}
			if pl[c].Doc != d {
				continue candidates
			}
		}
		for _, phrase := range q.phrases {
			pos := sc.phrase[:0]
			for _, t := range phrase {
				pos = append(pos, lists[t][cur[t]].Positions)
			}
			sc.phrase = pos
			if !phraseInPostings(pos) {
				continue candidates
			}
		}

		// BM25 over the distinct query tokens, in sorted term order so
		// the floating-point summation is deterministic and
		// partition-independent.
		score := 0.0
		for i, pl := range lists {
			tf := float64(len(pl[cur[i]].Positions))
			den := tf + bm25K1*(1-bm25B+bm25B*docLen[d]/q.avgLen)
			score += q.idf[i] * tf * (bm25K1 + 1) / den
		}
		sc.hits = append(sc.hits, Hit{DocID: ids[d], Score: score})
	}
}

// phraseInPostings reports whether a phrase occurs contiguously in one
// document, given that document's positions of each phrase token in
// phrase order. The caller owns pos and reuses it across candidates.
func phraseInPostings(pos [][]int32) bool {
	for _, p0 := range pos[0] {
		ok := true
		for i := 1; i < len(pos); i++ {
			if !contains32(pos[i], p0+int32(i)) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// countCo counts the documents two postings lists share, by a merge
// over their ascending doc IDs. With window <= 0 every shared document
// counts — the whole-document co-occurrence the PMI-IR lexicon
// induction uses; otherwise only documents holding a position pair
// within window do — Turney's NEAR operator.
func countCo(pa, pb []Posting, window int32) int {
	n := 0
	i, j := 0, 0
	for i < len(pa) && j < len(pb) {
		switch {
		case pa[i].Doc < pb[j].Doc:
			i++
		case pa[i].Doc > pb[j].Doc:
			j++
		default:
			if window <= 0 || positionsNear(pa[i].Positions, pb[j].Positions, window) {
				n++
			}
			i++
			j++
		}
	}
	return n
}
