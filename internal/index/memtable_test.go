package index

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// segmentFileDigest is the SHA-256 of the segment file a single
// memtable holding all of digestCorpus flushes to. It was computed
// while memtables still held []Posting lists, so it pins the on-disk
// bytes (STORAGE.md §3) across changes to how a memtable holds them.
const segmentFileDigest = "11f88af4803c7ee5bd879b77aed8cb5c62869392b3f85390adbbbb98d62e47de"

func TestFlushedSegmentMatchesPinnedDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), segmentFileName(1))
	if _, err := writeSegmentFile(path, sealedMemSegment(digestCorpus())); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != segmentFileDigest {
		t.Fatalf("flushed segment digest = %s, want %s (%d bytes)", got, segmentFileDigest, len(b))
	}
}

// TestFlushedMemtableIsReleased seals one memtable, lets the flusher
// commit it, and checks that nothing keeps the sealed batch reachable:
// once its segment is installed, the memtable's postings are garbage.
// A slot of the sealing list left holding it would pin the whole batch
// until the next seal reused that slot.
func TestFlushedMemtableIsReleased(t *testing.T) {
	const flushDocs = 200
	docs := syntheticCorpus(flushDocs, 13)
	si := buildSegmentIndex(t, SegmentOptions{Writers: 1, FlushDocs: flushDocs}, docs[:flushDocs-1])
	var released atomic.Bool
	func() {
		m := si.writers[0].current()
		runtime.SetFinalizer(m, func(*memSegment) { released.Store(true) })
	}()
	si.Add(docs[flushDocs-1].id, docs[flushDocs-1].text)
	deadline := time.Now().Add(10 * time.Second)
	for st := si.SegmentStats(); st.Segments != 1 || st.MemtableDocs != 0; st = si.SegmentStats() {
		if time.Now().After(deadline) {
			t.Fatalf("the sealed memtable never flushed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for !released.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the flushed memtable is still reachable")
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// refMemtable is the memtable as it held postings before its lists were
// kept encoded: one []Posting per term, appended token by token. The
// encoded memtable's decoded lists are checked against it.
type refMemtable struct {
	docs int32
	dict map[string][]Posting
}

func (r *refMemtable) add(ts []string) {
	doc := r.docs
	r.docs++
	for pos, t := range ts {
		pl := r.dict[t]
		if n := len(pl); n == 0 || pl[n-1].Doc != doc {
			pl = append(pl, Posting{Doc: doc})
		}
		last := &pl[len(pl)-1]
		last.Positions = append(last.Positions, int32(pos))
		r.dict[t] = pl
	}
}

// memtablePair adds every token stream to a memtable and to the
// reference alike.
func memtablePair(streams [][]string) (*memSegment, *refMemtable) {
	m := newMemSegment()
	ref := &refMemtable{dict: make(map[string][]Posting)}
	for i, ts := range streams {
		m.add(fmt.Sprintf("doc-%d", i), ts)
		ref.add(ts)
	}
	return m, ref
}

// checkMemtable reports the first way m differs from ref: its term
// count, a term's df, a decoded list, or its postings total.
func checkMemtable(m *memSegment, ref *refMemtable) error {
	if len(m.dict) != len(ref.dict) || len(m.ids) != int(ref.docs) {
		return fmt.Errorf("memtable holds %d terms over %d docs, reference %d over %d", len(m.dict), len(m.ids), len(ref.dict), ref.docs)
	}
	posts := 0
	sc := new(scratch)
	for term, want := range ref.dict {
		posts += len(want)
		if df := m.df(term); df != len(want) {
			return fmt.Errorf("term %q: df %d, reference %d", term, df, len(want))
		}
		if got := m.postings(term, nil, sc); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("term %q decodes to %v, reference %v", term, got, want)
		}
	}
	if _, _, p := m.size(); p != posts {
		return fmt.Errorf("memtable counts %d postings, reference %d", p, posts)
	}
	return nil
}

// randomStreams tokenizes n random documents through terms: words with
// repeats inside a document, numbers, and documents of zero, one and
// hundreds of tokens, so doc and position deltas span several varint
// bytes.
func randomStreams(rng *rand.Rand, n int) [][]string {
	words := []string{"Acme", "acquired", "acquires", "the", "CEO", "ceo", "revenue", "2004", "1,200.50", "Q4", "3.5", "-", "Widget's", "named", "zeppelin"}
	vocab := words[:1+rng.Intn(len(words))]
	streams := make([][]string, n)
	for i := range streams {
		var length int
		switch rng.Intn(4) {
		case 0:
			length = rng.Intn(2) // zero or one token
		case 1:
			length = 130 + rng.Intn(300)
		default:
			length = rng.Intn(40)
		}
		var b strings.Builder
		for j := 0; j < length; j++ {
			b.WriteString(vocab[rng.Intn(len(vocab))])
			b.WriteByte(' ')
		}
		streams[i] = terms(b.String())
	}
	return streams
}

// TestMemtableMatchesReference checks every term's decoded memtable
// list against the []Posting reference, over random corpora and over
// digestCorpus.
func TestMemtableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		m, ref := memtablePair(randomStreams(rng, rng.Intn(300)))
		if err := checkMemtable(m, ref); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	docs := digestCorpus()
	streams := make([][]string, len(docs))
	for i, d := range docs {
		streams[i] = terms(d.text)
	}
	m, ref := memtablePair(streams)
	if err := checkMemtable(m, ref); err != nil {
		t.Fatalf("digestCorpus: %v", err)
	}
}

// fuzzStreams turns fuzz bytes into token streams: a byte from 0xF0 up
// ends the document and adds (b-0xF0)*8 empty ones, a byte in
// [0xE0, 0xF0) repeats the document's last token (b-0xDF)*16 times, and
// any other byte is one of 48 tokens, numbers among them.
func fuzzStreams(data []byte) [][]string {
	var streams [][]string
	var cur []string
	for _, b := range data {
		switch {
		case b >= 0xF0:
			streams = append(streams, cur)
			cur = nil
			for i := 0; i < int(b-0xF0)*8; i++ {
				streams = append(streams, nil)
			}
		case b >= 0xE0:
			last := "x"
			if len(cur) > 0 {
				last = cur[len(cur)-1]
			}
			for i := 0; i < int(b-0xDF)*16; i++ {
				cur = append(cur, last)
			}
		default:
			if b%6 == 0 {
				cur = append(cur, strconv.Itoa(int(b%48)*37))
			} else {
				cur = append(cur, "t"+strconv.Itoa(int(b%48)))
			}
		}
	}
	return append(streams, cur)
}

// memReader serves a segment file held in memory.
type memReader struct{ *bytes.Reader }

func (memReader) Close() error { return nil }

// FuzzMemtableAdd adds the token streams fuzzStreams reads from the
// input to a memtable. Every decoded list must equal the []Posting
// reference's, and the sealed frame must pass decodeSegment with every
// list, the doc table and the term order round-tripping. Seeds live in
// testdata/fuzz/FuzzMemtableAdd.
func FuzzMemtableAdd(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ref := memtablePair(fuzzStreams(data))
		if err := checkMemtable(m, ref); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		terms := m.sortedTerms()
		ws, err := encodeSegmentFrame(w, m.ids, m.docLens, m.totalLen, terms, m.emit)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		s, err := decodeSegment(bytes.NewReader(out.Bytes()), int64(out.Len()), ws.meta.crc)
		if err != nil {
			t.Fatalf("sealed memtable does not open: %v", err)
		}
		s.data = memReader{bytes.NewReader(out.Bytes())}
		if !slices.Equal(s.ids, m.ids) || !slices.Equal(s.docLens, m.docLens) || !slices.Equal(s.terms, terms) {
			t.Fatalf("segment holds docs %q (lengths %v) and terms %q, memtable %q (%v) and %q", s.ids, s.docLens, s.terms, m.ids, m.docLens, terms)
		}
		sc := new(scratch)
		for _, term := range terms {
			if got, want := s.postings(term, nil, sc), ref.dict[term]; !reflect.DeepEqual(got, want) {
				t.Fatalf("term %q reads back from the segment as %v, reference %v", term, got, want)
			}
		}
	})
}

// TestMemtableConcurrentReaders has readers decode one memtable while a
// writer appends to it: searches, co-occurrence counts and document
// frequencies over a growing prefix of the corpus never shrink, and
// once the writer is done every answer equals a memtable built
// sequentially. Run under -race it is the memtable's data-race gate.
func TestMemtableConcurrentReaders(t *testing.T) {
	docs := syntheticCorpus(1000, 51)
	opts := SegmentOptions{Writers: 1, FlushDocs: 1 << 30, CacheSize: -1}
	si := buildSegmentIndex(t, opts, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, d := range docs {
			si.Add(d.id, d.text)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := goldenQueries[g%len(goldenQueries)]
			p := digestPairs[g%len(digestPairs)]
			var hits, co, near, df int
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true
				default:
				}
				reads := [...]struct {
					name string
					prev *int
					now  int
				}{
					{fmt.Sprintf("Search(%q)", q), &hits, len(si.Search(q, 0))},
					{fmt.Sprintf("CoDocFreq(%q, %q)", p[0], p[1]), &co, si.CoDocFreq(p[0], p[1])},
					{fmt.Sprintf("CoNearFreq(%q, %q, 5)", p[0], p[1]), &near, si.CoNearFreq(p[0], p[1], 5)},
					{fmt.Sprintf("DocFreq(%q)", p[0]), &df, si.DocFreq(p[0])},
				}
				for _, r := range reads {
					if r.now < *r.prev {
						t.Errorf("reader %d: %s fell from %d to %d while documents were only added", g, r.name, *r.prev, r.now)
						return
					}
					*r.prev = r.now
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
	want := buildSegmentIndex(t, opts, docs)
	for _, op := range scratchOps() {
		if got, want := op.run(si), op.run(want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v after concurrent reads, %v built sequentially", op.name, got, want)
		}
	}
}
