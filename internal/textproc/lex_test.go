package textproc

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// refLex is Normalize as the word table replaced it: a lower-case, a
// stop-word check and a Porter stem, computed afresh.
func refLex(word string) Lex {
	lower := strings.ToLower(word)
	return Lex{Lower: lower, Stem: refStem(word), Stop: stopwords[lower]}
}

// setMates holds three generated words for every set of the table.
var setMates = sync.OnceValue(func() *[1 << lexSetBits][3]string {
	var out [1 << lexSetBits][3]string
	for i, left := 0, 3*len(out); left > 0; i++ {
		w := "q" + strconv.Itoa(i) + "x"
		for k, c := range &out[lexSet(w)] {
			if c == "" {
				out[lexSet(w)][k] = w
				left--
				break
			}
		}
	}
	return &out
})

// colliders returns two words other than word in word's set.
func colliders(word string) (string, string) {
	var out []string
	for _, w := range setMates()[lexSet(word)] {
		if w != word {
			out = append(out, w)
		}
	}
	return out[0], out[1]
}

// collider returns a word other than word in word's set.
func collider(word string) string {
	c, _ := colliders(word)
	return c
}

// emptySet drops every entry of word's set.
func emptySet(word string) {
	for k := range lexTable[lexSet(word)] {
		lexTable[lexSet(word)][k].Store(nil)
	}
}

// resident reports whether word's set holds word's entry.
func resident(word string) bool {
	for k := range lexTable[lexSet(word)] {
		if e := lexTable[lexSet(word)][k].Load(); e != nil && e.word == word {
			return true
		}
	}
	return false
}

// checkLex compares every entry point of the table against refLex, and
// the whole entry against one computed afresh.
func checkLex(t *testing.T, when, word string) {
	t.Helper()
	want := refLex(word)
	if got := Normalize(word); got != want {
		t.Fatalf("%s: Normalize(%q) = %+v, want %+v", when, word, got, want)
	}
	if got := Lower(word); got != want.Lower {
		t.Fatalf("%s: Lower(%q) = %q, want %q", when, word, got, want.Lower)
	}
	if got := Stem(word); got != want.Stem {
		t.Fatalf("%s: Stem(%q) = %q, want %q", when, word, got, want.Stem)
	}
	if got := IsStopword(word); got != want.Stop {
		t.Fatalf("%s: IsStopword(%q) = %v, want %v", when, word, got, want.Stop)
	}
	if got, fresh := *Lookup(word), *newWord(word); got != fresh {
		t.Fatalf("%s: Lookup(%q) = %+v, want %+v", when, word, got, fresh)
	}
}

// FuzzLexMatchesReference checks the word table against the functions
// it replaced: on a miss (an empty set), on a hit, after one other
// word of the set arrived (the word stays) and after a second did (the
// word was dropped).
func FuzzLexMatchesReference(f *testing.F) {
	for _, s := range []string{
		"", "a", "The", "THE", "running", "Acquisitions", "İntl", "café",
		"É", "\xffing", "a\xe2\x82\xac", "1,200.50", "don't", "Vice-President",
		strings.Repeat("acquisition", 4),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, word string) {
		emptySet(word)
		checkLex(t, "miss", word)
		checkLex(t, "hit", word)
		c1, c2 := colliders(word)
		checkLex(t, "one colliding word", c1)
		checkLex(t, "after one collision", word)
		checkLex(t, "another colliding word", c2)
		checkLex(t, "after two collisions", word)
	})
}

// TestLexTableHoldsCollidingWords pins the table's replacement rule:
// a word new to its set takes way 0 and moves way 0's word to way 1,
// so a word survives one other word of its set and is computed afresh
// after two. Two words of one set used in turn both stay resident.
func TestLexTableHoldsCollidingWords(t *testing.T) {
	word := "acquisitions"
	c1, c2 := colliders(word)
	emptySet(word)
	Normalize(word)
	Normalize(c1)
	if !resident(word) || !resident(c1) {
		t.Fatalf("after %q and the colliding %q the set holds %+v", word, c1, &lexTable[lexSet(word)])
	}
	Normalize(c2)
	if resident(word) || !resident(c1) || !resident(c2) {
		t.Fatalf("after a second colliding word %q the set holds %+v", c2, &lexTable[lexSet(word)])
	}
	checkLex(t, "evicted", word)

	// Two words of one set alternating: each is computed once, then
	// found by every later lookup, so the entries never change.
	emptySet(word)
	first, second := Lookup(word), Lookup(c1)
	for i := 0; i < 1000; i++ {
		if Lookup(word) != first || Lookup(c1) != second {
			t.Fatalf("round %d: an alternating word was computed afresh", i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Lookup(word); Lookup(c1) }); allocs != 0 {
		t.Errorf("alternating two words of one set allocated %v times, want 0", allocs)
	}

	long := strings.Repeat("x", maxLexWord+1)
	emptySet(long)
	checkLex(t, "too long to keep", long)
	if resident(long) {
		t.Fatalf("a %d-byte word was kept", len(long))
	}
}

// TestLexSlotsSpreadOneByteWords checks that every one-byte word, the
// punctuation and digits every text is full of, has a set of its own,
// so they never evict each other. The top bits of the hash would put
// "," and "." in one set.
func TestLexSlotsSpreadOneByteWords(t *testing.T) {
	seen := map[uint64]int{}
	for c := 0; c < 256; c++ {
		set := lexSet(string([]byte{byte(c)}))
		if prev, ok := seen[set]; ok {
			t.Fatalf("bytes %#x and %#x share set %d", prev, c, set)
		}
		seen[set] = c
	}
}

// TestToLowerIdempotent backs the table's claim that it changes no
// output: callers that stemmed or stop-checked an already lower-cased
// word now look up the word itself, which is the same thing only if
// lower-casing twice equals lower-casing once, for every rune and every
// byte that is not valid UTF-8.
func TestToLowerIdempotent(t *testing.T) {
	var b strings.Builder
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if utf8.ValidRune(r) {
			b.WriteRune(r)
		}
	}
	for c := 0x80; c < 0x100; c++ {
		b.WriteByte(byte(c))
		b.WriteByte(' ')
	}
	once := strings.ToLower(b.String())
	if twice := strings.ToLower(once); twice != once {
		t.Fatal("strings.ToLower is not idempotent")
	}
}

// TestLexConcurrentCollidingWords has goroutines normalize overlapping
// word streams in different orders, including three words of one set
// for several sets, and checks every answer. Run it under -race: each
// set's ways are loaded and replaced concurrently.
func TestLexConcurrentCollidingWords(t *testing.T) {
	words := []string{"Acquired", "acquisitions", "the", "CEO", "growth", "İntl", "café", "1,200"}
	for _, w := range words[:4] {
		c1, c2 := colliders(w)
		words = append(words, c1, c2)
	}
	want := make([]Lex, len(words))
	for i, w := range words {
		want[i] = refLex(w)
	}
	const goroutines, rounds = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (r*(2*g+1) + g) % len(words)
				if got := Normalize(words[i]); got != want[i] {
					t.Errorf("goroutine %d: Normalize(%q) = %+v, want %+v", g, words[i], got, want[i])
					return
				}
				if got := Stem(words[(i+1)%len(words)]); got != want[(i+1)%len(words)].Stem {
					t.Errorf("goroutine %d: Stem(%q) = %q", g, words[(i+1)%len(words)], got)
					return
				}
				if e := Lookup(words[(i+2)%len(words)]); e.Lex != want[(i+2)%len(words)] || e.word != words[(i+2)%len(words)] {
					t.Errorf("goroutine %d: Lookup(%q) = %+v", g, words[(i+2)%len(words)], e)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLexDoesNotPinPage normalizes a word sliced from a large page and
// checks that neither the table nor the kept results hold the page: a
// table keyed on the word itself would keep the whole page reachable
// until another word took the slot.
func TestLexDoesNotPinPage(t *testing.T) {
	var released atomic.Bool
	var kept Lex
	var lower, stem string
	func() {
		page := strings.Repeat("unpinnedness ", 1<<14)
		runtime.SetFinalizer(unsafe.StringData(page), func(*byte) { released.Store(true) })
		word := page[13:25]
		emptySet(word)
		kept, lower, stem = Normalize(word), Lower(word), Stem(word)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !released.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the page is still reachable after normalizing a word of it")
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if kept.Lower != "unpinnedness" || lower != kept.Lower || stem != kept.Stem || kept.Stem != refStem("unpinnedness") {
		t.Fatalf("kept %+v, %q, %q", kept, lower, stem)
	}
}

// TestLexHitAllocatesNothing: a word already in the table is
// normalized without allocating, capitalized or not.
func TestLexHitAllocatesNothing(t *testing.T) {
	words := []string{"Acquisitions", "the", "Management", "revenues"}
	for _, w := range words {
		Normalize(w)
	}
	var sink Lex
	if allocs := testing.AllocsPerRun(100, func() {
		for _, w := range words {
			sink = Normalize(w)
			sink.Stem = Stem(w)
			sink.Lower = Lower(w)
		}
	}); allocs != 0 {
		t.Errorf("normalizing %d warmed words allocated %v times, want 0", len(words), allocs)
	}
	_ = sink
}

// missWords returns n distinct words: base-26 prefixes ahead of common
// English suffixes, so each is stemmed through several Porter steps.
// Cycling through many more words than the table has slots makes
// nearly every lookup a miss.
func missWords(n int) []string {
	suffixes := []string{"ations", "ing", "ed", "fulness", "izer", "ement", "ities", "s"}
	out := make([]string, n)
	for i := range out {
		var b []byte
		for v := i; ; v /= 26 {
			b = append(b, byte('a'+v%26))
			if v < 26 {
				break
			}
		}
		out[i] = string(b) + suffixes[i%len(suffixes)]
	}
	return out
}
