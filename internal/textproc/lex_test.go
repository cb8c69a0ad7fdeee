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

// colliders holds two generated words for every slot of the table.
var colliders = sync.OnceValue(func() *[1 << lexBits][2]string {
	var out [1 << lexBits][2]string
	for i, left := 0, 2*len(out); left > 0; i++ {
		w := "q" + strconv.Itoa(i) + "x"
		c := &out[lexSlot(w)]
		if c[0] == "" {
			c[0] = w
			left--
		} else if c[1] == "" {
			c[1] = w
			left--
		}
	}
	return &out
})

// collider returns a word other than word that hashes to word's slot.
func collider(word string) string {
	c := colliders()[lexSlot(word)]
	if c[0] != word {
		return c[0]
	}
	return c[1]
}

// checkLex compares every entry point of the table against refLex.
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
}

// FuzzLexMatchesReference checks the word table against the functions
// it replaced: on a miss (an empty slot), on a hit, and after a
// colliding word took the slot.
func FuzzLexMatchesReference(f *testing.F) {
	for _, s := range []string{
		"", "a", "The", "THE", "running", "Acquisitions", "İntl", "café",
		"É", "\xffing", "a\xe2\x82\xac", "1,200.50", "don't", "Vice-President",
		strings.Repeat("acquisition", 4),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, word string) {
		lexTable[lexSlot(word)].Store(nil)
		checkLex(t, "miss", word)
		checkLex(t, "hit", word)
		c := collider(word)
		checkLex(t, "colliding word", c)
		checkLex(t, "after a collision", word)
	})
}

// TestLexTableHoldsCollidingWords pins the table's replacement rule: a
// word that finds another in its slot is computed afresh and takes the
// slot, and the evicted word is computed afresh when it comes back.
func TestLexTableHoldsCollidingWords(t *testing.T) {
	word := "acquisitions"
	c := collider(word)
	Normalize(word)
	if e := lexTable[lexSlot(word)].Load(); e == nil || e.word != word {
		t.Fatalf("slot holds %+v after normalizing %q", e, word)
	}
	Normalize(c)
	if e := lexTable[lexSlot(word)].Load(); e == nil || e.word != c {
		t.Fatalf("slot holds %+v after normalizing the colliding %q", e, c)
	}
	checkLex(t, "evicted", word)
	long := strings.Repeat("x", maxLexWord+1)
	lexTable[lexSlot(long)].Store(nil)
	checkLex(t, "too long to keep", long)
	if e := lexTable[lexSlot(long)].Load(); e != nil {
		t.Fatalf("a %d-byte word was kept: %+v", len(long), e)
	}
}

// TestLexSlotsSpreadOneByteWords checks that every one-byte word, the
// punctuation and digits every text is full of, has a slot of its own,
// so they never evict each other. The top bits of the hash would put
// "," and "." in one slot.
func TestLexSlotsSpreadOneByteWords(t *testing.T) {
	seen := map[uint64]int{}
	for c := 0; c < 256; c++ {
		slot := lexSlot(string([]byte{byte(c)}))
		if prev, ok := seen[slot]; ok {
			t.Fatalf("bytes %#x and %#x share slot %d", prev, c, slot)
		}
		seen[slot] = c
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
// word streams in different orders, including words that collide in
// one slot, and checks every answer. Run it under -race: each slot is
// loaded and replaced concurrently.
func TestLexConcurrentCollidingWords(t *testing.T) {
	words := []string{"Acquired", "acquisitions", "the", "CEO", "growth", "İntl", "café", "1,200"}
	for _, w := range words[:4] {
		words = append(words, collider(w), collider(collider(w)))
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
		lexTable[lexSlot(word)].Store(nil)
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
