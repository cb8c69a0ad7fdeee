package index

import (
	"fmt"
	"testing"
)

// goldenRoutes pins writer-lane assignments over 4 lanes. Routing is a
// pure function of the document ID under the fixed routeSeed, so these
// values must hold in every process — a change here means lane
// placement stopped being reproducible across restarts.
var goldenRoutes = map[string]int{
	"u:a":                                 2,
	"u:b":                                 1,
	"u:c":                                 0,
	"doc-1":                               3,
	"doc-2":                               3,
	"doc-3":                               0,
	"doc-4":                               0,
	"https://news.example.com/ceo-change": 0,
	"https://biz.example.com/merger":      1,
	"":                                    1,
}

func TestRouteSeedStableAcrossRestarts(t *testing.T) {
	ix := memoryIndex(t, 4, 0)
	for docID, want := range goldenRoutes {
		if got := ix.laneOf(docID); got != want {
			t.Errorf("route(%q) -> lane %d, want %d", docID, got, want)
		}
	}
}

func TestRouteSeedSpreadsShards(t *testing.T) {
	var counts [4]int
	const n = 10000
	for i := 0; i < n; i++ {
		counts[route(fmt.Sprintf("doc-%d", i))%4]++
	}
	for s, c := range counts {
		// Each lane should hold roughly a quarter; allow wide slack —
		// this guards against degenerate routing (everything on one
		// lane), not statistical perfection.
		if c < n/8 || c > n/2 {
			t.Errorf("lane %d holds %d of %d docs; routing is badly skewed: %v", s, c, n, counts)
		}
	}
}
