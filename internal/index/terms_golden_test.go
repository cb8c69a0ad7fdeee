package index

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"etap/internal/corpus"
)

// termsGolden pins the index terms of every page of the default world,
// title and text joined as web.Web indexes them. terms shares Tokenize
// and Stem with the annotation path, so a kernel rewrite that changes
// one term changes every ranking; the digests were computed before the
// kernels were rewritten for speed.
var termsGolden = []struct {
	seed   int64
	digest string
}{
	{1, "abcbc1f53d790694aa93d98d7249276a124af210eb877d53b1c060c20e729f74"},
	{7, "7ed71a42096a21966bcf179c0533c6ef12de7baedfda014c72b157fcb57c04ca"},
}

func TestTermsGoldenDigests(t *testing.T) {
	for _, tc := range termsGolden {
		docs := corpus.NewGenerator(corpus.Config{Seed: tc.seed}).World()
		h := sha256.New()
		for i := range docs {
			ts := terms(docs[i].Title + " " + docs[i].Text())
			h.Write(strconv.AppendInt(nil, int64(len(ts)), 10))
			for _, term := range ts {
				h.Write([]byte{';'})
				h.Write(strconv.AppendInt(nil, int64(len(term)), 10))
				h.Write([]byte{':'})
				h.Write([]byte(term))
			}
			h.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("seed %d: terms digest = %s, want %s", tc.seed, got, tc.digest)
		}
	}
}
